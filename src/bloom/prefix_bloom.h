// Prefix Bloom filters (Section 2.1): a Bloom filter populated with the
// l-bit prefixes of the key set. A range [lo, hi] is answered by probing
// every l-bit prefix region overlapping the range; the filter returns
// negative only if all probes are negative.
//
// Multi-prefix walks go through ProbeRange, which hashes one prefix ahead
// and prefetches its cache line so the memory access of probe i+1 overlaps
// the compute of probe i. (Deriving the (h1, h2) pair of prefix p+1 from
// p's pair was measured instead and rejected: Murmur3/CLHASH mix all input
// bits, so consecutive prefixes share no hash state to reuse — pipelining
// is what actually pays.)
//
// PrefixBloom handles 64-bit integer keys; StrPrefixBloom handles byte
// strings under the trailing-NUL padding convention of Section 7.1.

#ifndef PROTEUS_BLOOM_PREFIX_BLOOM_H_
#define PROTEUS_BLOOM_PREFIX_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "util/bits.h"
#include "util/bitstring.h"

namespace proteus {

class PrefixBloom {
 public:
  PrefixBloom() = default;

  /// Builds a filter of `n_bits` bits over the `prefix_len`-bit prefixes of
  /// `sorted_keys` (duplicated prefixes are inserted once).
  PrefixBloom(const std::vector<uint64_t>& sorted_keys, uint64_t n_bits,
              uint32_t prefix_len);

  /// Probes the single l-bit prefix that `prefix_value` denotes
  /// (right-aligned, as produced by PrefixBits64).
  bool ProbePrefix(uint64_t prefix_value) const;

  /// Hashes `prefix_value` and pulls in the cache line its probe will
  /// touch first — the cross-query analogue of ProbeRange's hash-ahead,
  /// called by batch executors one query before they probe it.
  void PrefetchPrefix(uint64_t prefix_value) const;

  /// Probes every prefix value in [first, last] (inclusive), hashing and
  /// prefetching one prefix ahead; true on the first positive.
  bool ProbeRange(uint64_t first, uint64_t last) const;

  /// Split-phase probing for callers that interleave OTHER work between
  /// consecutive prefixes (the 2PBF coarse walk doubts each positive at
  /// the fine filter): HashPrefix computes the salted (h1, h2) pair,
  /// PrefetchHash pulls in the cache line probe h1 touches first, and
  /// ProbeHash resolves the probe — so the caller can hash and prefetch
  /// prefix p+1 before resolving p, same arrangement as ProbeRange.
  void HashPrefix(uint64_t prefix_value, uint64_t* h1, uint64_t* h2) const;
  void PrefetchHash(uint64_t h1) const { bf_.PrefetchHash(h1); }
  bool ProbeHash(uint64_t h1, uint64_t h2) const {
    return bf_.MayContainHash(h1, h2);
  }

  /// Hashes `n` right-aligned l-bit prefix values in stack-sized chunks
  /// and batch-probes them: out[i] = ProbePrefix(prefix_values[i]).
  void MultiProbePrefix(const uint64_t* prefix_values, size_t n,
                        uint8_t* out) const;

  /// True if any l-bit prefix overlapping [lo, hi] probes positive.
  /// Probing short-circuits on the first positive. If the number of
  /// overlapping prefixes exceeds `probe_limit`, conservatively returns
  /// true (never a false negative).
  bool MayContain(uint64_t lo, uint64_t hi,
                  uint64_t probe_limit = kDefaultProbeLimit) const;

  /// Batch MayContain: narrow queries' prefixes (usually one or two per
  /// query) are flattened into one value array with an owner index per
  /// entry and resolved through the multi-query kernel; queries spanning
  /// kFlattenLimit or more prefixes keep the scalar short-circuiting
  /// walk (and its probe-limit guard). Used by 1PBF directly and by 2PBF
  /// for its degenerate no-coarse-filter configuration.
  void MultiMayContain(const uint64_t* lo, const uint64_t* hi, size_t n,
                       uint8_t* out) const;

  /// Queries at least this wide bypass batch flattening.
  static constexpr uint64_t kFlattenLimit = 16;

  uint32_t prefix_len() const { return prefix_len_; }
  uint64_t n_items() const { return n_items_; }
  uint64_t SizeBits() const { return bf_.SizeBits(); }
  const BloomFilter& bloom() const { return bf_; }

  static constexpr uint64_t kDefaultProbeLimit = uint64_t{1} << 26;

  /// Serialization: prefix length + item count + the Bloom filter.
  void AppendTo(std::string* out) const;
  static bool ParseFrom(std::string_view* in, PrefixBloom* out);

 private:
  BloomFilter bf_;
  uint32_t prefix_len_ = 0;
  uint64_t n_items_ = 0;
};

class StrPrefixBloom {
 public:
  StrPrefixBloom() = default;

  StrPrefixBloom(const std::vector<std::string>& sorted_keys, uint64_t n_bits,
                 uint32_t prefix_len);

  /// Probes one prefix given as a padded ceil(l/8)-byte buffer (the output
  /// format of StrPrefix / StrPrefixBytes).
  bool ProbePrefix(std::string_view padded_prefix) const;

  /// See PrefixBloom::PrefetchPrefix.
  void PrefetchPrefix(std::string_view padded_prefix) const;

  /// Probes every prefix from `first` through `last` (both padded
  /// ceil(l/8)-byte values, first <= last) in successor order, hashing and
  /// prefetching one prefix ahead; true on the first positive.
  bool ProbeRange(std::string_view first, std::string_view last) const;

  bool MayContain(std::string_view lo, std::string_view hi,
                  uint64_t probe_limit = kDefaultProbeLimit) const;

  uint32_t prefix_len() const { return prefix_len_; }
  uint64_t n_items() const { return n_items_; }
  uint64_t SizeBits() const { return bf_.SizeBits(); }
  const BloomFilter& bloom() const { return bf_; }

  static constexpr uint64_t kDefaultProbeLimit = uint64_t{1} << 22;

  void AppendTo(std::string* out) const;
  static bool ParseFrom(std::string_view* in, StrPrefixBloom* out);

 private:
  BloomFilter bf_;
  uint32_t prefix_len_ = 0;
  uint64_t n_items_ = 0;
};

/// Number of unique `l`-bit prefixes among sorted integer keys — |K_l| in
/// the paper's notation. O(n) via successive LCPs.
uint64_t CountUniquePrefixes(const std::vector<uint64_t>& sorted_keys,
                             uint32_t l);

/// |K_l| for every l in [0, 64] at once (index l of the result).
std::vector<uint64_t> CountUniquePrefixesAll(
    const std::vector<uint64_t>& sorted_keys);

/// |K_l| for every l in [0, max_bits] over sorted string keys.
std::vector<uint64_t> StrCountUniquePrefixesAll(
    const std::vector<std::string>& sorted_keys, uint32_t max_bits);

}  // namespace proteus

#endif  // PROTEUS_BLOOM_PREFIX_BLOOM_H_
