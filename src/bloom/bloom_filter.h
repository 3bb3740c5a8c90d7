// A standard Bloom filter (Bloom 1970), the probabilistic building block
// of 1PBF, 2PBF, Proteus, and Rosetta.
//
// Hashing follows the paper's setup (Section 4.3): MurmurHash3 for integer
// keys, CLHASH-style hashing for strings, with k = ceil(m/n * ln 2) hash
// functions capped at 32 (footnote 2). Every item hashes to a pair
// (h1, h2); the probe layout decides how the k probes derive from it.
//
// Two probe layouts share the class:
//  * standard — probe i sets bit (h1 + i*h2) mod m of the whole array
//    (Kirsch–Mitzenmacher double hashing, which preserves the asymptotic
//    FPR of Eq. 6): the textbook FPR, but k random cache lines per query.
//  * blocked (Putze et al., register-blocked at cache-line granularity) —
//    h1 picks one 512-bit block by multiply-shift, and probe i sets the
//    bit named by the i-th 9-bit field of h2 inside it (seven fields per
//    word; the word is re-mixed with xorshift64 after every seventh
//    probe). One memory access per query, paid for with a slightly
//    higher FPR because block loads are uneven. The positions are
//    independent, so TheoreticalFprBlocked's Poisson-block model prices
//    that premium as the filter actually pays it.
// The layout is chosen at construction and serialized: unblocked filters
// keep the original wire format bit-for-bit, blocked filters stamp a
// layout version into the header's high bits.

#ifndef PROTEUS_BLOOM_BLOOM_FILTER_H_
#define PROTEUS_BLOOM_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hash/clhash.h"
#include "hash/murmur3.h"

namespace proteus {

/// Which Bloom probe layout a filter (or an FPR model) assumes.
enum class BloomProbeMode : uint32_t {
  kStandard = 0,  // k probes spread over the whole array
  kBlocked = 1,   // k probes confined to one 512-bit block
};

class BloomFilter {
 public:
  /// Maximum number of hash functions (paper footnote 2).
  static constexpr uint32_t kMaxHashes = 32;
  /// Cache-line block width for the blocked layout.
  static constexpr uint64_t kBlockBits = 512;

  BloomFilter() = default;

  /// A filter of `n_bits` bits using `n_hashes` hash functions. Blocked
  /// filters round n_bits up to a whole number of 512-bit blocks.
  BloomFilter(uint64_t n_bits, uint32_t n_hashes, bool blocked = false);

  /// k = ceil(m/n * ln 2), clamped to [1, kMaxHashes].
  static uint32_t OptimalHashes(uint64_t m_bits, uint64_t n_items);

  /// Theoretical FPR of Eq. 6: (1 - e^{-ln 2})^k with k as above.
  static double TheoreticalFpr(uint64_t m_bits, uint64_t n_items);

  /// Theoretical FPR of the blocked layout: the Eq. 6 form evaluated per
  /// block and averaged over the Poisson-distributed block load
  /// (Putze, Sanders & Singler 2007).
  static double TheoreticalFprBlocked(uint64_t m_bits, uint64_t n_items);

  /// Eq. 6 under the given probe layout.
  static double TheoreticalFpr(uint64_t m_bits, uint64_t n_items,
                               BloomProbeMode mode) {
    return mode == BloomProbeMode::kBlocked
               ? TheoreticalFprBlocked(m_bits, n_items)
               : TheoreticalFpr(m_bits, n_items);
  }

  // --- Generic probe API over a pre-hashed (h1, h2) pair. ---
  void InsertHash(uint64_t h1, uint64_t h2);
  bool MayContainHash(uint64_t h1, uint64_t h2) const;

  /// Batch probe: out[i] = MayContainHash(h1[i], h2[i]) != 0 for i < n.
  /// Blocked filters dispatch to an AVX2 gather kernel that resolves 8
  /// queries per instruction stream (see util/simd.h for the switchery);
  /// the standard layout and non-AVX2 machines take a pipelined scalar
  /// loop that prefetches one query ahead. Both paths return identical
  /// bits for identical inputs.
  void MultiContainHash(const uint64_t* h1, const uint64_t* h2, size_t n,
                        uint8_t* out) const;

  /// Issues a prefetch for the cache line the probe for h1 will touch
  /// first. Cheap enough to call speculatively one probe ahead.
  void PrefetchHash(uint64_t h1) const {
    if (words_.empty()) return;
    if (blocked_) {
      __builtin_prefetch(words_.data() + BlockIndex(h1) * 8);
    } else {
      // First probe's line only; later probes are data-dependent anyway.
      __builtin_prefetch(words_.data() + ((h1 % n_bits_) >> 6));
    }
  }

  // --- Integer items (hashed with MurmurHash3). ---
  /// The (h1, h2) pair InsertInt/MayContainInt probe with — exposed so
  /// batch paths can hash one item ahead and PrefetchHash it.
  static void HashInt(uint64_t item, uint64_t* h1, uint64_t* h2) {
    *h1 = Murmur3Int64(item, 0x5D336E36A3C9BF71ull);
    *h2 = Murmur3Int64(item, 0xA5A9FFDE6D3D34C1ull);
  }
  void InsertInt(uint64_t item) {
    uint64_t h1, h2;
    HashInt(item, &h1, &h2);
    InsertHash(h1, h2);
  }
  bool MayContainInt(uint64_t item) const {
    uint64_t h1, h2;
    HashInt(item, &h1, &h2);
    return MayContainHash(h1, h2);
  }

  // --- Byte-string items (hashed with the CLHASH-style hash). ---
  static void HashBytes(std::string_view s, uint64_t* h1, uint64_t* h2) {
    *h1 = ClHash64(s, 0x5D336E36A3C9BF71ull);
    *h2 = ClHash64(s, 0xA5A9FFDE6D3D34C1ull);
  }
  void InsertBytes(std::string_view s) {
    uint64_t h1, h2;
    HashBytes(s, &h1, &h2);
    InsertHash(h1, h2);
  }
  bool MayContainBytes(std::string_view s) const {
    uint64_t h1, h2;
    HashBytes(s, &h1, &h2);
    return MayContainHash(h1, h2);
  }

  uint64_t n_bits() const { return n_bits_; }
  uint32_t n_hashes() const { return n_hashes_; }
  bool blocked() const { return blocked_; }
  bool empty() const { return n_bits_ == 0; }

  /// Total memory in bits (bit array; metadata is O(1)).
  uint64_t SizeBits() const { return words_.size() * 64; }

  /// Serialization for SST filter blocks. Unblocked filters emit the
  /// legacy format unchanged; blocked filters stamp kBlockedFormat into
  /// the unused high half of the hash-count header word.
  void AppendTo(std::string* out) const;
  static bool ParseFrom(std::string_view* in, BloomFilter* out);

 private:
  /// Wire-format tag in the high 32 bits of header word 1. Unblocked
  /// blobs (n_hashes <= 32 stored as a u64) always read 0 there. Tag 1
  /// was the retired arithmetic-progression blocked layout; ParseFrom
  /// rejects it rather than misreading it.
  static constexpr uint32_t kBlockedFormat = 2;

  uint64_t BitIndex(uint64_t h1, uint64_t h2, uint32_t i) const {
    return (h1 + i * h2) % n_bits_;
  }
  /// Multiply-shift range reduction of h1 onto [0, n_blocks).
  uint64_t BlockIndex(uint64_t h1) const {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(h1) * (words_.size() / 8)) >> 64);
  }

  uint64_t n_bits_ = 0;
  uint32_t n_hashes_ = 0;
  bool blocked_ = false;
  std::vector<uint64_t> words_;
};

}  // namespace proteus

#endif  // PROTEUS_BLOOM_BLOOM_FILTER_H_
