// CRC32C (Castagnoli, polynomial 0x1EDC6F41 reflected to 0x82F63B78) —
// the per-block checksum used by the WAL, the MANIFEST, and the
// SST index handles.
//
// Chosen over the Murmur3/ClHash checksums used elsewhere because the
// Castagnoli polynomial has a hardware instruction on x86 (SSE4.2
// crc32q): Crc32c() dispatches at runtime to the hardware path when the
// CPU has it and falls back to a slicing-by-8 table implementation
// otherwise, so the on-disk format is identical on every machine.

#ifndef PROTEUS_UTIL_CRC32C_H_
#define PROTEUS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace proteus {

/// CRC32C of `n` bytes at `data` (standard init/final xor with ~0).
uint32_t Crc32c(const void* data, size_t n);

inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}

/// Extends a previous Crc32c result as if the two buffers had been
/// checksummed in one call: Crc32cExtend(Crc32c(a), b) == Crc32c(a+b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// True when the runtime dispatch selected the SSE4.2 hardware path
/// (diagnostics / tests; both paths produce identical checksums).
bool Crc32cUsesHardware();

/// The table-driven portable implementation, exposed so tests can verify
/// the hardware path against it on machines that have both.
uint32_t Crc32cPortable(const void* data, size_t n);

/// Appends the length-prefixed CRC frame shared by the WAL and the
/// MANIFEST (docs/FORMAT.md "Record framing"):
///   u32 length | u32 crc32c(payload) | payload
/// One definition so the two files can never drift apart.
inline void AppendCrcFrame(std::string* out, std::string_view payload) {
  char header[8];
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload);
  std::memcpy(header, &length, 4);
  std::memcpy(header + 4, &crc, 4);
  out->append(header, 8);
  out->append(payload);
}

}  // namespace proteus

#endif  // PROTEUS_UTIL_CRC32C_H_
