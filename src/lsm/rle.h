// Zero-run RLE block codec — the stand-in for LZ4/ZSTD in miniLSM. The
// paper's value payloads are half zero bytes (compression ratio 0.5,
// Section 6.2); this codec compresses zero runs and leaves other bytes
// literal, reproducing the same on-disk volume without external libraries.

#ifndef PROTEUS_LSM_RLE_H_
#define PROTEUS_LSM_RLE_H_

#include <string>
#include <string_view>

namespace proteus {

/// Compresses `input`. Output begins with a 1-byte tag: 0 = stored raw
/// (incompressible), 1 = RLE. Always succeeds.
std::string RleCompress(std::string_view input);

/// Decompresses a buffer produced by RleCompress. Returns false on a
/// malformed buffer (corruption detection).
bool RleDecompress(std::string_view input, std::string* output);

}  // namespace proteus

#endif  // PROTEUS_LSM_RLE_H_
