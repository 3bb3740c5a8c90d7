// Portable stand-in for CLHASH (Lemire & Kaser 2016), the string-key hash
// the paper switches to in Section 7.1.
//
// Substitution note: real CLHASH relies on the CLMUL
// instruction set. The filters only need a fast, uniform 64-bit hash over
// variable-length byte strings, so we implement a keyed polynomial hash
// over 64-bit lanes with multiply-xorshift finalization. The interface
// matches what the Bloom filters need; tests verify uniformity.

#ifndef PROTEUS_HASH_CLHASH_H_
#define PROTEUS_HASH_CLHASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace proteus {

/// 64-bit keyed hash of an arbitrary byte buffer.
uint64_t ClHash64(const void* data, size_t len, uint64_t seed);

inline uint64_t ClHash64(std::string_view s, uint64_t seed) {
  return ClHash64(s.data(), s.size(), seed);
}

}  // namespace proteus

#endif  // PROTEUS_HASH_CLHASH_H_
