// Low-level bit-manipulation helpers shared by the succinct structures,
// Bloom filters, and the CPFPR model.
//
// Bit-order convention used throughout the library: keys are bit strings
// read most-significant bit first. "Prefix of length l" always means the
// first l bits in that order (for a uint64_t key, its top l bits).

#ifndef PROTEUS_UTIL_BITS_H_
#define PROTEUS_UTIL_BITS_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// BMI2 PDEP fast path for Select64: compiled behind a target attribute
// and selected at runtime, so one binary runs everywhere.
#define PROTEUS_SELECT64_HAVE_PDEP 1
#include <immintrin.h>
#endif

namespace proteus {

/// Number of set bits in a 64-bit word.
inline int PopCount64(uint64_t x) { return std::popcount(x); }

/// Portable Select64 (see Select64 below for the contract). Exposed so
/// the PDEP fast path can be validated against it on any machine.
inline int Select64Portable(uint64_t x, int r) {
  // Byte-skipping implementation: cheap and portable (no PDEP dependency).
  for (int byte = 0; byte < 8; ++byte) {
    int c = std::popcount(static_cast<unsigned>((x >> (byte * 8)) & 0xFF));
    if (r <= c) {
      uint8_t b = static_cast<uint8_t>(x >> (byte * 8));
      for (int bit = 0; bit < 8; ++bit) {
        if (b & (1u << bit)) {
          if (--r == 0) return byte * 8 + bit;
        }
      }
    }
    r -= c;
  }
  return -1;  // Unreachable when the precondition holds.
}

#if PROTEUS_SELECT64_HAVE_PDEP

/// PDEP deposits the single bit 1<<(r-1) into the positions of x's set
/// bits, landing it exactly on the r-th set bit; countr_zero reads the
/// answer. Two data-independent instructions vs the portable byte scan.
__attribute__((target("bmi2"))) inline int Select64Pdep(uint64_t x, int r) {
  uint64_t deposited = _pdep_u64(uint64_t{1} << (r - 1), x);
  return deposited == 0 ? -1 : std::countr_zero(deposited);
}

inline bool CpuHasBmi2() {
  static const bool have = __builtin_cpu_supports("bmi2");
  return have;
}

/// Index (0-based, from the LSB) of the r-th (1-based) set bit of x.
/// Precondition: PopCount64(x) >= r >= 1.
inline int Select64(uint64_t x, int r) {
  return CpuHasBmi2() ? Select64Pdep(x, r) : Select64Portable(x, r);
}

#else

inline int Select64(uint64_t x, int r) { return Select64Portable(x, r); }

#endif  // PROTEUS_SELECT64_HAVE_PDEP

/// A key's head: its first 8 bytes as a big-endian integer, zero-padded
/// when the key is shorter. Monotone (a < b implies head(a) <= head(b)),
/// so heads that differ order their keys; equal heads leave it to the
/// full keys. An 8-byte key's head is the integer EncodeKeyBE wrote.
inline uint64_t DecodeKeyBE(std::string_view s) {
  uint64_t v = 0;
  if (!s.empty()) std::memcpy(&v, s.data(), s.size() < 8 ? s.size() : 8);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Reverses the bit order of a 64-bit word (bit 0 <-> bit 63).
inline uint64_t ReverseBits64(uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  return __builtin_bswap64(x);
}

/// Reverses the bit order inside each byte, keeping byte order. Turns an
/// LSB-first bit stream into the big-endian MSB-first byte layout used by
/// string keys: stream bit t lands in byte t/8 at in-byte MSB offset t%8.
inline uint64_t ReverseBitsInBytes64(uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  return x;
}

/// Length of the longest common prefix (in bits) of two 64-bit keys, viewing
/// each as a 64-bit big-endian bit string. Returns 64 when a == b.
inline uint32_t LcpBits64(uint64_t a, uint64_t b) {
  uint64_t x = a ^ b;
  return x == 0 ? 64u : static_cast<uint32_t>(std::countl_zero(x));
}

/// The l-bit prefix of `key` (its top l bits), right-aligned.
/// PrefixBits64(k, 0) == 0 and PrefixBits64(k, 64) == k.
inline uint64_t PrefixBits64(uint64_t key, uint32_t l) {
  return l == 0 ? 0 : key >> (64 - l);
}

/// Number of distinct l-bit prefixes covering the inclusive range [lo, hi].
/// This is |Q_l| from the CPFPR model (Section 3.1 of the paper).
inline uint64_t PrefixCountInRange64(uint64_t lo, uint64_t hi, uint32_t l) {
  return PrefixBits64(hi, l) - PrefixBits64(lo, l) + 1;
}

/// Smallest key having the given l-bit prefix.
inline uint64_t PrefixRangeLo64(uint64_t prefix, uint32_t l) {
  return l == 0 ? 0 : prefix << (64 - l);
}

/// Largest key having the given l-bit prefix.
inline uint64_t PrefixRangeHi64(uint64_t prefix, uint32_t l) {
  if (l == 0) return ~uint64_t{0};
  return (prefix << (64 - l)) | (l == 64 ? 0 : (~uint64_t{0} >> l));
}

}  // namespace proteus

#endif  // PROTEUS_UTIL_BITS_H_
