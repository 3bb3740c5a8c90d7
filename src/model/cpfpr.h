// The Contextual Prefix FPR (CPFPR) model — Section 3 and Algorithm 1 of
// the paper. Given a sorted key set and a sample of empty range queries,
// the model predicts the expected FPR of every configuration of three
// Protean Range Filters:
//
//   1PBF    — one prefix Bloom filter with prefix length l       (Eq. 1)
//   2PBF    — two prefix Bloom filters with lengths l1 < l2      (Eq. 4)
//   Proteus — uniform-depth trie (l1) + prefix Bloom filter (l2) (Eq. 5)
//
// and selects the configuration minimizing expected FPR under a memory
// budget.
//
// Implementation notes (deviations from the paper's pseudocode):
//  * Probabilities use the exact complement form 1 - (1 - p)^n rather than
//    the pseudocode's linear approximation.
//  * Eq. 4's binomial sum telescopes to the closed form
//    [(1-p1) + p1 (1-p2)^{2^{l2-l1}}]^{n_mid}, which we use directly — no
//    overflow, so no need for the paper's 2^15 range-size cap.
//  * Query prefix counts are binned into exponentially sized bins
//    (Section 4.3, "Calculate Configuration FPRs"); exact unbinned
//    evaluation is also provided for the binning ablation.
//  * Each Bloom filter's FPR is that of the cache-line-blocked layout every
//    filter is built with (BloomFpr), which sits mildly above the paper's
//    Eq. 6; the selected design stays calibrated only if the model prices
//    what the filter actually pays.

#ifndef PROTEUS_MODEL_CPFPR_H_
#define PROTEUS_MODEL_CPFPR_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/query.h"
#include "model/key_stats.h"
#include "model/trie_memory.h"

namespace proteus {

/// A chosen Proteus configuration. trie_depth == 0 means no trie (pure
/// prefix Bloom filter); bf_prefix_len == 0 means no Bloom filter (pure
/// trie). Both zero only if the model saw no viable design.
struct ProteusDesign {
  uint32_t trie_depth = 0;
  uint32_t bf_prefix_len = 0;
  double expected_fpr = 1.0;
  uint64_t trie_size_bits = 0;  // modeled size at trie_depth
};

struct OnePbfDesign {
  uint32_t prefix_len = 64;
  double expected_fpr = 1.0;
};

struct TwoPbfDesign {
  uint32_t l1 = 0;       // 0 means the second filter alone was best
  uint32_t l2 = 64;
  double frac1 = 0.5;    // fraction of memory given to the l1 filter
  double expected_fpr = 1.0;
};

class CpfprModel {
 public:
  /// FPR sentinel returned for configurations that exceed the memory
  /// budget (the grey region of Figure 4c).
  static constexpr double kInfeasible = 2.0;

  /// Gathers the 1PBF and Proteus statistics from the key set and empty
  /// sample queries (Section 4.3: Count Key Prefixes / Calculate Trie
  /// Memory / Count Query Prefixes). The 2PBF statistics are gathered on
  /// the first 2PBF evaluation, from the retained sample records. Keys must
  /// be sorted and unique; sample queries must be empty (no key inside
  /// [lo, hi]).
  CpfprModel(const std::vector<uint64_t>& sorted_keys,
             const std::vector<RangeQuery>& empty_samples);

  // --- Expected FPR of explicit configurations (Figure 4 matrices). ---

  /// Proteus (Eq. 5). trie_depth == 0 -> pure BF; bf_len == 0 -> pure trie.
  double ProteusFpr(uint32_t trie_depth, uint32_t bf_len,
                    uint64_t mem_bits) const;

  /// 1PBF (Eq. 1).
  double OnePbfFpr(uint32_t prefix_len, uint64_t mem_bits) const;

  /// 2PBF (Eq. 4, closed form). frac1 = share of memory for the l1 filter.
  double TwoPbfFpr(uint32_t l1, uint32_t l2, double frac1,
                   uint64_t mem_bits) const;

  // --- Unbinned (exact-expectation) variants, for the binning ablation. --

  double ProteusFprExact(uint32_t trie_depth, uint32_t bf_len,
                         uint64_t mem_bits) const;
  double OnePbfFprExact(uint32_t prefix_len, uint64_t mem_bits) const;

  // --- Algorithm 1: configuration selection. ---

  ProteusDesign SelectProteus(uint64_t mem_bits) const;
  OnePbfDesign SelectOnePbf(uint64_t mem_bits) const;
  /// Tests the paper's three memory allocations (40/60, 50/50, 60/40).
  TwoPbfDesign SelectTwoPbf(uint64_t mem_bits) const;

  const TrieMemoryModel& trie_model() const { return trie_model_; }
  uint64_t n_samples() const { return n_samples_; }

  /// Bloom filter FPR for m bits holding n items: Eq. 6 (with the k <= 32
  /// clamp evaluated through the general formula) per 512-bit block,
  /// averaged over the block load (BloomFilter::TheoreticalFpr).
  static double BloomFpr(uint64_t m_bits, uint64_t n_items);

 private:
  struct Bin {
    uint64_t count = 0;
    double sum = 0;  // sum of region counts, for the in-bin average
  };
  // Per (l1, l2, bin) accumulator for 2PBF end regions. Middle regions use
  // (count, sum); ends are split by whether the end prefix is shared with
  // the key set (true positive at the first filter) or not.
  struct TwoBin {
    uint64_t count = 0;
    double sum_mid = 0;
    double sum_l_ink = 0, sum_l_noink = 0;
    double sum_r_ink = 0, sum_r_noink = 0;
    uint32_t cnt_l_ink = 0, cnt_l_noink = 0;
    uint32_t cnt_r_ink = 0, cnt_r_noink = 0;
  };
  struct QueryRecord {
    uint64_t lo, hi;
    uint32_t left_lcp, right_lcp;  // LCP with nearest key below/above
    uint32_t lcp() const { return left_lcp > right_lcp ? left_lcp : right_lcp; }
  };

  static uint32_t BinIndex(uint64_t regions);  // 0 for 0, else 1+floor(log2)

  // Number of Bloom probes Proteus issues for this query at (l1, l2):
  // I2|L| + I3|R| of Eq. 5 (with the |Q_l1| == 1 convention). Valid when
  // l1 <= lcp < l2.
  static uint64_t ProteusRegions(const QueryRecord& q, uint32_t l1,
                                 uint32_t l2);

  double EndFactor(double p1, double p2, const TwoBin& bin) const;

  // two_bins_, gathered from records_ on first use. Safe for concurrent
  // const callers.
  const std::vector<TwoBin>& TwoBins() const;
  // Adds one sample query's Eq. 4 statistics to `two_bins`.
  static void GatherTwoPbf(const QueryRecord& rec,
                           std::vector<TwoBin>* two_bins);

  KeyStats key_stats_;
  TrieMemoryModel trie_model_;
  uint64_t n_samples_ = 0;

  // lcp_ge_[l] = number of sample queries with lcp(Q, K) >= l.
  std::vector<uint64_t> lcp_ge_;

  // one_bins_[l * kBins + b]: |Q_l| bins for queries with lcp < l.
  std::vector<Bin> one_bins_;

  // proteus_bins_[(l1 * 65 + l2) * kBins + b]: Eq. 5 region-count bins for
  // queries with l1 <= lcp < l2.
  std::vector<Bin> proteus_bins_;

  // two_bins_[(l1 * 65 + l2) * kBins + b]: Eq. 4 accumulators for queries
  // with lcp < l2 (bin keyed by middle-region count). Only the 2PBF family
  // reads them, so they are filled lazily through TwoBins().
  mutable std::once_flag two_bins_once_;
  mutable std::vector<TwoBin> two_bins_;

  // Per-sample records, for the exact evaluation paths and the deferred
  // 2PBF gather.
  std::vector<QueryRecord> records_;

  static constexpr uint32_t kBins = 66;
};

}  // namespace proteus

#endif  // PROTEUS_MODEL_CPFPR_H_
