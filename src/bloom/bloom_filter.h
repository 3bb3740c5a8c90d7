// A cache-line-blocked Bloom filter (Putze, Sanders & Singler 2007), the
// probabilistic building block of 1PBF, 2PBF, Proteus, and Rosetta.
//
// Hashing follows the paper's setup (Section 4.3): MurmurHash3 for integer
// keys, CLHASH-style hashing for strings, with k = ceil(m/n * ln 2) hash
// functions capped at 32 (footnote 2). Every item hashes to a pair
// (h1, h2): h1 picks one 512-bit block by multiply-shift, and probe i sets
// the bit named by the i-th 9-bit field of h2 inside it (seven fields per
// word; the word is re-mixed with xorshift64 after every seventh probe).
// One memory access per query, paid for with a slightly higher FPR than
// the textbook Eq. 6 because block loads are uneven. The positions are
// independent, so TheoreticalFpr's Poisson-block model prices that
// premium as the filter actually pays it.
//
// This is the only layout. The textbook (h1 + i*h2) mod m layout buys a
// lower FPR (21-25% lower on perfbench's seek_cold) with k cache misses per
// probe, and lost every read-time metric to this one on seek_cold and
// multiseek_warm; it was retired, and its blobs no longer parse.

#ifndef PROTEUS_BLOOM_BLOOM_FILTER_H_
#define PROTEUS_BLOOM_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hash/clhash.h"
#include "hash/murmur3.h"

namespace proteus {

class BloomFilter {
 public:
  /// Maximum number of hash functions (paper footnote 2).
  static constexpr uint32_t kMaxHashes = 32;
  /// Cache-line block width.
  static constexpr uint64_t kBlockBits = 512;

  BloomFilter() = default;

  /// A filter of `n_bits` bits, rounded up to a whole number of 512-bit
  /// blocks, using `n_hashes` hash functions.
  BloomFilter(uint64_t n_bits, uint32_t n_hashes);

  /// k = ceil(m/n * ln 2), clamped to [1, kMaxHashes].
  static uint32_t OptimalHashes(uint64_t m_bits, uint64_t n_items);

  /// Theoretical FPR with k as above: the Eq. 6 form evaluated per block
  /// and averaged over the Poisson-distributed block load (Putze, Sanders
  /// & Singler 2007).
  static double TheoreticalFpr(uint64_t m_bits, uint64_t n_items);

  // --- Generic probe API over a pre-hashed (h1, h2) pair. ---
  void InsertHash(uint64_t h1, uint64_t h2);
  bool MayContainHash(uint64_t h1, uint64_t h2) const;

  /// Batch probe: out[i] = MayContainHash(h1[i], h2[i]) != 0 for i < n.
  /// Dispatches to an AVX2 gather kernel that resolves 8 queries per
  /// instruction stream (see util/simd.h for the switchery); non-AVX2
  /// machines take a pipelined scalar loop that prefetches one query
  /// ahead. Both paths return identical bits for identical inputs.
  void MultiContainHash(const uint64_t* h1, const uint64_t* h2, size_t n,
                        uint8_t* out) const;

  /// Issues a prefetch for the one cache line the probe for h1 touches.
  /// Cheap enough to call speculatively one probe ahead.
  void PrefetchHash(uint64_t h1) const {
    if (words_.empty()) return;
    __builtin_prefetch(words_.data() + BlockIndex(h1) * 8);
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
  bool empty() const { return n_bits_ == 0; }

  /// Total memory in bits (bit array; metadata is O(1)).
  uint64_t SizeBits() const { return words_.size() * 64; }

  /// Serialization for SST filter blocks: a header (n_bits, then the
  /// layout tag in the high half of the hash-count word) and the bit
  /// array. A non-empty filter stamps kBlockedFormat; the empty
  /// (default-constructed) filter writes tag 0 and no bits.
  void AppendTo(std::string* out) const;
  static bool ParseFrom(std::string_view* in, BloomFilter* out);

 private:
  /// Wire-format tag in the high 32 bits of header word 1. Tag 0 was the
  /// retired standard layout and tag 1 the retired arithmetic-progression
  /// blocked layout; ParseFrom rejects a non-empty filter under either
  /// rather than misreading it.
  static constexpr uint32_t kBlockedFormat = 2;

  /// Multiply-shift range reduction of h1 onto [0, n_blocks).
  uint64_t BlockIndex(uint64_t h1) const {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(h1) * (words_.size() / 8)) >> 64);
  }

  uint64_t n_bits_ = 0;
  uint32_t n_hashes_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace proteus

#endif  // PROTEUS_BLOOM_BLOOM_FILTER_H_
