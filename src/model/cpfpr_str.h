// CPFPR model for variable-length (string) keys — Section 7.1.
//
// The key space is mapped onto a fixed-length space by trailing-NUL
// padding, and the total order becomes lexicographic; the model itself is
// unchanged. What changes is scale: with keys of k bits there are O(k^2)
// designs, so — following Section 7.2 — the model evaluates a coarse grid:
// up to `trie_grid` trie depths across the feasible range and
// `bloom_grid` uniformly spaced Bloom prefix lengths (the paper uses 128).
//
// Per-sample statistics are reduced to 64-bit windows anchored at each
// grid trie depth, making each (l1, l2) configuration O(1) per sample.

#ifndef PROTEUS_MODEL_CPFPR_STR_H_
#define PROTEUS_MODEL_CPFPR_STR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "model/cpfpr.h"
#include "model/key_stats.h"
#include "model/trie_memory.h"

namespace proteus {

struct StrCpfprOptions {
  uint32_t bloom_grid = 128;  // Bloom prefix lengths evaluated
  uint32_t trie_grid = 64;    // trie depths evaluated
};

class StrCpfprModel {
 public:
  using Options = StrCpfprOptions;

  /// Keys sorted lexicographically; `samples` must be empty queries whose
  /// bounds are padded-key strings. `max_bits` is the maximum key length
  /// in bits.
  StrCpfprModel(const std::vector<std::string>& sorted_keys,
                const std::vector<StrRangeQuery>& samples, uint32_t max_bits,
                StrCpfprOptions options = StrCpfprOptions());

  /// Expected FPR of a (trie depth, Bloom prefix length) configuration.
  /// Both lengths are snapped to the evaluation grid.
  double ProteusFpr(uint32_t trie_depth, uint32_t bf_len,
                    uint64_t mem_bits) const;

  ProteusDesign SelectProteus(uint64_t mem_bits) const;

  uint32_t max_bits() const { return max_bits_; }
  const TrieMemoryModel& trie_model() const { return trie_model_; }
  const std::vector<uint32_t>& trie_grid() const { return trie_grid_; }
  const std::vector<uint32_t>& bloom_grid() const { return bloom_grid_; }

 private:
  struct Record {
    uint32_t lcp;    // max LCP of the query bounds with the key set
    uint32_t lcp_lr; // LCP of lo and hi with each other
    uint32_t left_lcp, right_lcp;
    // 64-bit windows of lo/hi starting at bit lcp_lr (for |Q_l|) and at
    // each grid trie depth (for |L| / |R|).
    uint64_t q_lo_win, q_hi_win;
    std::vector<uint64_t> lo_win, hi_win;  // indexed by trie-grid position
  };

  /// Number of Bloom probes for this record at (grid index g1, length l2).
  uint64_t Regions(const Record& r, size_t g1, uint32_t l1,
                   uint32_t l2) const;

  uint64_t QCount(const Record& r, uint32_t l2) const;

  size_t GridIndex(uint32_t trie_depth) const;

  uint32_t max_bits_;
  Options options_;
  KeyStats key_stats_;
  TrieMemoryModel trie_model_;
  std::vector<uint32_t> trie_grid_;   // ascending candidate trie depths
  std::vector<uint32_t> bloom_grid_;  // ascending candidate Bloom lengths
  std::vector<Record> records_;
};

}  // namespace proteus

#endif  // PROTEUS_MODEL_CPFPR_STR_H_
