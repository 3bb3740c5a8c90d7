#include "bloom/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/simd.h"

#if PROTEUS_HAVE_AVX2_KERNELS
#include <immintrin.h>
#endif

namespace proteus {

namespace {

// Probe positions. Probe i reads a 9-bit field of h2 as
// its bit inside the 512-bit block: seven fields fit in a 64-bit word,
// and after every seventh probe the word is re-mixed with one xorshift64
// step (Marsaglia 2003) for the next seven. The positions are thus
// independent draws, which is what TheoreticalFpr's Poisson-block
// model assumes; an arithmetic progression h2 + i*step makes two keys
// in one block collide on many probes at once and overshoots the model
// by 1.4x at 12 bits per key and by 2.8x at 16. The AVX2 kernel below
// walks the identical sequence.
constexpr uint32_t kFieldBits = 9;  // log2(kBlockBits)
constexpr uint32_t kFieldsPerWord = 64 / kFieldBits;
static_assert(BloomFilter::kBlockBits == uint64_t{1} << kFieldBits);

inline uint64_t Remix(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// The in-block bit positions one (h1, h2) pair probes, in order.
class ProbePositions {
 public:
  explicit ProbePositions(uint64_t h2) : word_(h2), pos_(h2) {}

  uint64_t bit() const { return pos_ & (BloomFilter::kBlockBits - 1); }

  void Next() {
    if (++field_ == kFieldsPerWord) {
      field_ = 0;
      pos_ = word_ = Remix(word_);
    } else {
      pos_ >>= kFieldBits;
    }
  }

 private:
  uint64_t word_;  // the current 64-bit word of fields
  uint64_t pos_;   // word_ shifted so the current field is lowest
  uint32_t field_ = 0;
};

}  // namespace

BloomFilter::BloomFilter(uint64_t n_bits, uint32_t n_hashes)
    : n_bits_(std::max<uint64_t>(
          (n_bits + kBlockBits - 1) / kBlockBits * kBlockBits, kBlockBits)),
      n_hashes_(std::clamp<uint32_t>(n_hashes, 1, kMaxHashes)) {
  words_.assign(n_bits_ / 64, 0);
}

uint32_t BloomFilter::OptimalHashes(uint64_t m_bits, uint64_t n_items) {
  if (n_items == 0) return 1;
  double ratio = static_cast<double>(m_bits) / static_cast<double>(n_items);
  uint32_t k = static_cast<uint32_t>(std::ceil(ratio * std::log(2.0)));
  return std::clamp<uint32_t>(k, 1, kMaxHashes);
}

double BloomFilter::TheoreticalFpr(uint64_t m_bits, uint64_t n_items) {
  if (n_items == 0) return 0.0;
  if (m_bits == 0) return 1.0;
  // The CPFPR design sweeps evaluate thousands of configs but only ~65
  // distinct (m, n) pairs per side; a small direct-mapped memo keeps the
  // O(lambda) Poisson sum below off the selection hot loop.
  struct Memo {
    uint64_t m = 0, n = 0;
    double fpr = 0.0;
  };
  thread_local Memo memo[64];
  Memo& slot = memo[(m_bits * 0x9E3779B97F4A7C15ull ^ n_items) & 63];
  if (slot.m == m_bits && slot.n == n_items) return slot.fpr;
  const uint32_t k = OptimalHashes(m_bits, n_items);
  const double b = static_cast<double>(kBlockBits);
  // A block receives Poisson(lambda)-many items, lambda = B * n / m; a
  // block holding j items false-positives like a j-item, B-bit filter.
  const double lambda =
      b * static_cast<double>(n_items) / static_cast<double>(m_bits);
  double fpr = 1.0;
  // Past ~8 items per block bit the blocks are saturated and the FPR is 1
  // to beyond double precision; cut off before the O(lambda) sum so even
  // starvation-level budgets evaluate in O(1).
  if (lambda <= 8.0 * b) {
    // Truncate the Poisson tail well past the mean; terms decay
    // factorially.
    const uint64_t j_max =
        static_cast<uint64_t>(lambda + 12.0 * std::sqrt(lambda) + 48.0);
    double log_p = -lambda;  // log Poisson(0)
    fpr = 0.0;
    for (uint64_t j = 0;; ++j) {
      const double weight = std::exp(log_p);
      if (j > 0) {
        const double fill = 1.0 - std::exp(-static_cast<double>(k) *
                                           static_cast<double>(j) / b);
        fpr += weight * std::pow(fill, static_cast<double>(k));
      }
      if (j >= j_max) break;
      log_p += std::log(lambda) - std::log(static_cast<double>(j + 1));
    }
    fpr = std::min(fpr, 1.0);
  }
  slot = {m_bits, n_items, fpr};
  return fpr;
}

void BloomFilter::InsertHash(uint64_t h1, uint64_t h2) {
  if (words_.empty()) return;  // default-constructed: nothing to set
  uint64_t* block = words_.data() + BlockIndex(h1) * 8;
  ProbePositions pos(h2);
  for (uint32_t i = 0; i < n_hashes_; ++i, pos.Next()) {
    const uint64_t bit = pos.bit();
    block[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
}

bool BloomFilter::MayContainHash(uint64_t h1, uint64_t h2) const {
  // Conservative answer for a default-constructed (empty) filter; also
  // keeps a corrupt blob that smuggled an empty filter into a probed slot
  // from reading a block that is not there.
  if (words_.empty()) return true;
  const uint64_t* block = words_.data() + BlockIndex(h1) * 8;
  ProbePositions pos(h2);
  for (uint32_t i = 0; i < n_hashes_; ++i, pos.Next()) {
    const uint64_t bit = pos.bit();
    if (((block[bit >> 6] >> (bit & 63)) & 1) == 0) return false;
  }
  return true;
}

#if PROTEUS_HAVE_AVX2_KERNELS
namespace {

/// Remix() on four lanes: shifts and xors only, so AVX2 has it exactly.
__attribute__((target("avx2"))) inline __m256i Remix256(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_slli_epi64(x, 13));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 7));
  return _mm256_xor_si256(x, _mm256_slli_epi64(x, 17));
}

/// AVX2 batch probe: 8 queries per iteration as two interleaved 4-lane
/// streams, so eight independent gathers are in flight while each probe's
/// shift/test resolves. Per probe round each lane
/// takes bit = pos & 511 inside its own 512-bit block, exactly as
/// ProbePositions does (pos shifts down one 9-bit field per probe, and
/// every seventh probe re-mixes the word), gathers the containing word,
/// and ANDs the tested bit into an accumulator; one testz pair
/// early-exits the probe loop once all 8 lanes have failed.
/// Block selection is the same multiply-shift as the scalar path, done
/// with scalar 128-bit multiplies (AVX2 has no 64x64 high-half multiply;
/// the gathers dominate regardless). Returns how many queries were
/// resolved — always a multiple of 8; the caller finishes the tail.
__attribute__((target("avx2"))) size_t MultiContainAvx2(
    const uint64_t* words, uint64_t n_blocks, uint32_t n_hashes,
    const uint64_t* h1, const uint64_t* h2, size_t n, uint8_t* out) {
  const long long* base = reinterpret_cast<const long long*>(words);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i block_mask = _mm256_set1_epi64x(BloomFilter::kBlockBits - 1);
  const __m256i shift_mask = _mm256_set1_epi64x(63);
  const auto block_word = [&](size_t q) {
    return static_cast<long long>(
        static_cast<uint64_t>(
            (static_cast<unsigned __int128>(h1[q]) * n_blocks) >> 64) *
        8);
  };
  // Split each chunk into a prefetch phase and a probe phase: every
  // block a chunk will touch is exactly one cache line, so issuing all
  // the prefetches first puts up to kChunk lines in flight before the
  // first gather needs one — far more latency overlap than the scalar
  // loop's one-query lookahead, and the chunk is small enough that the
  // early lines are still resident when their group probes.
  constexpr size_t kChunk = 256;
  alignas(32) long long bases[kChunk];
  size_t i = 0;
  while (i + 8 <= n) {
    const size_t m = std::min(n - i, kChunk) & ~size_t{7};
    for (size_t q = 0; q < m; ++q) {
      bases[q] = block_word(i + q);
      __builtin_prefetch(words + bases[q]);
    }
    for (size_t g = 0; g + 8 <= m; g += 8, i += 8) {
    const __m256i base_a =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(bases + g));
    const __m256i base_b =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(bases + g + 4));
    __m256i pos_a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h2 + i));
    __m256i pos_b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h2 + i + 4));
    __m256i fields_a = pos_a;
    __m256i fields_b = pos_b;
    __m256i acc_a = one;
    __m256i acc_b = one;
    uint32_t field = 0;
    for (uint32_t p = 0; p < n_hashes; ++p) {
      const __m256i bit_a = _mm256_and_si256(pos_a, block_mask);
      const __m256i bit_b = _mm256_and_si256(pos_b, block_mask);
      const __m256i idx_a =
          _mm256_add_epi64(base_a, _mm256_srli_epi64(bit_a, 6));
      const __m256i idx_b =
          _mm256_add_epi64(base_b, _mm256_srli_epi64(bit_b, 6));
      const __m256i word_a = _mm256_i64gather_epi64(base, idx_a, 8);
      const __m256i word_b = _mm256_i64gather_epi64(base, idx_b, 8);
      acc_a = _mm256_and_si256(
          acc_a, _mm256_srlv_epi64(word_a, _mm256_and_si256(bit_a,
                                                            shift_mask)));
      acc_b = _mm256_and_si256(
          acc_b, _mm256_srlv_epi64(word_b, _mm256_and_si256(bit_b,
                                                            shift_mask)));
      if (++field == kFieldsPerWord) {
        field = 0;
        pos_a = fields_a = Remix256(fields_a);
        pos_b = fields_b = Remix256(fields_b);
      } else {
        pos_a = _mm256_srli_epi64(pos_a, kFieldBits);
        pos_b = _mm256_srli_epi64(pos_b, kFieldBits);
      }
      // Only bit 0 of each accumulator lane carries the verdict; stop
      // probing once it is clear in all 8 lanes.
      if (_mm256_testz_si256(acc_a, one) && _mm256_testz_si256(acc_b, one)) {
        break;
      }
    }
    alignas(32) uint64_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_and_si256(acc_a, one));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4),
                       _mm256_and_si256(acc_b, one));
    for (int j = 0; j < 8; ++j) out[i + j] = static_cast<uint8_t>(lanes[j]);
    }
  }
  return i;
}

}  // namespace
#endif  // PROTEUS_HAVE_AVX2_KERNELS

void BloomFilter::MultiContainHash(const uint64_t* h1, const uint64_t* h2,
                                   size_t n, uint8_t* out) const {
  if (n == 0) return;
  if (words_.empty()) {
    std::memset(out, 1, n);  // conservative, matching MayContainHash
    return;
  }
  size_t i = 0;
#if PROTEUS_HAVE_AVX2_KERNELS
  if (SimdAvx2Enabled()) {
    i = MultiContainAvx2(words_.data(), words_.size() / 8, n_hashes_, h1,
                         h2, n, out);
  }
#endif
  // Scalar fallback and tail: the whole batch's hashes are in hand, so
  // prefetch one query ahead while the current probe's loads resolve.
  for (; i < n; ++i) {
    if (i + 1 < n) PrefetchHash(h1[i + 1]);
    out[i] = MayContainHash(h1[i], h2[i]) ? 1 : 0;
  }
}

void BloomFilter::AppendTo(std::string* out) const {
  // The empty filter keeps tag 0, so the blobs of a pure-trie Proteus or a
  // 2PBF without a coarse filter are unchanged from the standard-layout era.
  const uint64_t format = words_.empty() ? 0 : uint64_t{kBlockedFormat} << 32;
  uint64_t header[2] = {n_bits_, format | n_hashes_};
  out->append(reinterpret_cast<const char*>(header), sizeof(header));
  out->append(reinterpret_cast<const char*>(words_.data()),
              words_.size() * sizeof(uint64_t));
}

bool BloomFilter::ParseFrom(std::string_view* in, BloomFilter* out) {
  if (in->size() < 16) return false;
  uint64_t header[2];
  std::memcpy(header, in->data(), sizeof(header));
  const uint64_t n_bits = header[0];
  const uint32_t format = static_cast<uint32_t>(header[1] >> 32);
  const uint32_t n_hashes = static_cast<uint32_t>(header[1]);
  // Only the empty filter (tag 0, no bits) and the blocked layout (tag 2,
  // a whole number of blocks) parse. A non-empty tag 0 is the retired
  // standard layout and tag 1 the retired arithmetic-progression blocked
  // layout: read with today's positions either would answer false
  // negatives, so they are rejected like a future tag, and the Db
  // rebuilds such an SST's filter from the file's keys.
  if (n_bits == 0) {
    if (format != 0) return false;
  } else if (format != kBlockedFormat || n_bits % kBlockBits != 0) {
    return false;
  }
  const uint64_t n_words = n_bits / 64;
  if (in->size() < 16 + n_words * 8) return false;
  out->n_bits_ = n_bits;
  out->n_hashes_ = n_hashes;
  out->words_.resize(n_words);
  if (n_words > 0) {
    std::memcpy(out->words_.data(), in->data() + 16, n_words * 8);
  }
  in->remove_prefix(16 + n_words * 8);
  return true;
}

}  // namespace proteus
