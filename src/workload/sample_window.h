// A scalar signature of the live query-range distribution, maintained as
// an exponentially-decayed average so the sample queue can tell "the
// workload's range shape moved" apart from noise.
//
// The per-query signature is the bit length of the common prefix of the
// query's encoded lo and hi bounds. It is order-encoding agnostic: for
// 8-byte big-endian integer keys a range of width ~2^w shares ~64 - w
// leading bits, and for raw string keys a correlated lookup shares a long
// byte prefix. Narrow/correlated workloads score high, wide uniform scans
// score low, so a shift between the two moves the EWMA by many bits —
// the drift detector (src/lsm/drift.h) compares the value at filter
// design time against the live value.

#ifndef PROTEUS_WORKLOAD_SAMPLE_WINDOW_H_
#define PROTEUS_WORKLOAD_SAMPLE_WINDOW_H_

#include <cstdint>
#include <string_view>

namespace proteus {

/// Bit length of the common prefix of two byte strings. A shared prefix
/// of the shorter operand counts its full bits (the strings diverge at
/// the length difference, contributing no further shared bits).
inline uint32_t CommonPrefixBits(std::string_view a, std::string_view b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  uint32_t bits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t x = static_cast<uint8_t>(a[i]) ^ static_cast<uint8_t>(b[i]);
    if (x == 0) {
      bits += 8;
      continue;
    }
    for (int bit = 7; bit >= 0; --bit) {
      if ((x >> bit) & 1) break;
      ++bits;
    }
    break;
  }
  return bits;
}

/// EWMA over per-query signatures.
class QuerySignature {
 public:
  /// Weight kept on history per observation (0.99 ~ a sliding window of
  /// ~100 queries).
  static constexpr double kDecay = 0.99;

  void Observe(std::string_view lo, std::string_view hi) {
    const double s = static_cast<double>(CommonPrefixBits(lo, hi));
    value_ = count_ == 0 ? s : kDecay * value_ + (1.0 - kDecay) * s;
    ++count_;
  }

  /// The decayed mean signature in bits; negative before any observation.
  double value() const { return count_ == 0 ? -1.0 : value_; }

 private:
  double value_ = 0.0;
  uint64_t count_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_WORKLOAD_SAMPLE_WINDOW_H_
