#include "model/cpfpr_str.h"

#include <algorithm>
#include <cmath>

#include "bloom/prefix_bloom.h"
#include "util/bitstring.h"

namespace proteus {
namespace {

constexpr uint64_t kSaturated = uint64_t{1} << 62;

/// 64-bit window of `s` starting at bit `from` (MSB-first, zero padded).
uint64_t BitWindow(std::string_view s, uint64_t from) {
  uint64_t v = 0;
  for (uint32_t j = 0; j < 64; ++j) {
    v = (v << 1) | (StrGetBit(s, from + j) ? 1 : 0);
  }
  return v;
}

double PowOneMinus(double p, double n) {
  if (n <= 0 || p <= 0) return 1.0;
  if (p >= 1) return 0.0;
  return std::exp(n * std::log1p(-p));
}

}  // namespace

StrCpfprModel::StrCpfprModel(const std::vector<std::string>& sorted_keys,
                             const std::vector<StrRangeQuery>& samples,
                             uint32_t max_bits, StrCpfprOptions options)
    : max_bits_(max_bits), options_(options) {
  key_stats_ = KeyStats::FromSortedStrings(sorted_keys, max_bits);
  trie_model_ = TrieMemoryModel(key_stats_);

  // Trie-depth grid: spread over the full depth range (feasibility at a
  // given budget is checked at evaluation time). Always include 0.
  trie_grid_.push_back(0);
  uint32_t trie_stride =
      std::max<uint32_t>(1, max_bits / std::max<uint32_t>(1, options.trie_grid));
  for (uint32_t d = trie_stride; d <= max_bits; d += trie_stride) {
    trie_grid_.push_back(d);
  }
  if (trie_grid_.back() != max_bits) trie_grid_.push_back(max_bits);

  uint32_t bloom_stride =
      std::max<uint32_t>(1, max_bits / std::max<uint32_t>(1, options.bloom_grid));
  for (uint32_t l = bloom_stride; l <= max_bits; l += bloom_stride) {
    bloom_grid_.push_back(l);
  }
  if (bloom_grid_.back() != max_bits) bloom_grid_.push_back(max_bits);

  records_.reserve(samples.size());
  for (const StrRangeQuery& q : samples) {
    Record r;
    auto succ =
        std::lower_bound(sorted_keys.begin(), sorted_keys.end(), q.lo);
    r.left_lcp = 0;
    r.right_lcp = 0;
    if (succ != sorted_keys.begin()) {
      r.left_lcp =
          static_cast<uint32_t>(StrLcpBits(*(succ - 1), q.lo, max_bits));
    }
    if (succ != sorted_keys.end()) {
      r.right_lcp =
          static_cast<uint32_t>(StrLcpBits(*succ, q.hi, max_bits));
    }
    r.lcp = std::max(r.left_lcp, r.right_lcp);
    r.lcp_lr = static_cast<uint32_t>(StrLcpBits(q.lo, q.hi, max_bits));
    r.q_lo_win = BitWindow(q.lo, r.lcp_lr);
    r.q_hi_win = BitWindow(q.hi, r.lcp_lr);
    r.lo_win.reserve(trie_grid_.size());
    r.hi_win.reserve(trie_grid_.size());
    for (uint32_t d : trie_grid_) {
      r.lo_win.push_back(BitWindow(q.lo, d));
      r.hi_win.push_back(BitWindow(q.hi, d));
    }
    records_.push_back(std::move(r));
  }
}

size_t StrCpfprModel::GridIndex(uint32_t trie_depth) const {
  auto it = std::lower_bound(trie_grid_.begin(), trie_grid_.end(), trie_depth);
  if (it == trie_grid_.end()) return trie_grid_.size() - 1;
  return static_cast<size_t>(it - trie_grid_.begin());
}

uint64_t StrCpfprModel::QCount(const Record& r, uint32_t l2) const {
  if (l2 <= r.lcp_lr) return 1;
  uint32_t w = l2 - r.lcp_lr;
  if (w > 62) return kSaturated;
  return (r.q_hi_win >> (64 - w)) - (r.q_lo_win >> (64 - w)) + 1;
}

uint64_t StrCpfprModel::Regions(const Record& r, size_t g1, uint32_t l1,
                                uint32_t l2) const {
  if (l1 <= r.lcp_lr) {
    // Single l1 region covers the whole query (paper's |Q_l1| == 1 case).
    return QCount(r, l2);
  }
  uint64_t regions = 0;
  uint32_t w = l2 - l1;
  if (w > 62) return kSaturated;
  if (r.left_lcp >= l1) {
    // |L| = 2^{l2-l1} - value(bits l1..l2 of lo).
    regions += (uint64_t{1} << w) - (r.lo_win[g1] >> (64 - w));
  }
  if (r.right_lcp >= l1) {
    regions += (r.hi_win[g1] >> (64 - w)) + 1;
  }
  return regions;
}

double StrCpfprModel::ProteusFpr(uint32_t trie_depth, uint32_t bf_len,
                                 uint64_t mem_bits) const {
  if (records_.empty()) return 1.0;
  uint64_t trie_bits = 0;
  if (trie_depth > 0) {
    trie_bits = trie_model_.TrieSizeBits(trie_depth);
    if (trie_bits > mem_bits) return CpfprModel::kInfeasible;
  }
  if (bf_len == 0) {
    if (trie_depth == 0) return 1.0;
    double fp = 0;
    for (const Record& r : records_) fp += r.lcp >= trie_depth ? 1.0 : 0.0;
    return fp / static_cast<double>(records_.size());
  }
  if (bf_len <= trie_depth || bf_len > max_bits_) {
    return CpfprModel::kInfeasible;
  }
  const size_t g1 = GridIndex(trie_depth);
  const uint32_t l1 = trie_depth == 0 ? 0 : trie_grid_[g1];
  double p = CpfprModel::BloomFpr(mem_bits - trie_bits,
                                  key_stats_.k_counts[bf_len]);
  double fp = 0;
  for (const Record& r : records_) {
    if (l1 > 0 && r.lcp < l1) continue;  // resolved in the trie
    if (r.lcp >= bf_len) {
      fp += 1.0;
      continue;
    }
    uint64_t regions = l1 == 0 ? QCount(r, bf_len)
                               : Regions(r, g1, l1, bf_len);
    fp += 1.0 - PowOneMinus(p, static_cast<double>(regions));
  }
  return fp / static_cast<double>(records_.size());
}

ProteusDesign StrCpfprModel::SelectProteus(uint64_t mem_bits) const {
  ProteusDesign best;
  best.expected_fpr = 1.0;
  for (uint32_t l1 : trie_grid_) {
    if (l1 > 0 && trie_model_.TrieSizeBits(l1) > mem_bits) break;
    double trie_only = ProteusFpr(l1, 0, mem_bits);
    if (trie_only <= best.expected_fpr) {
      best = {l1, 0, trie_only, l1 > 0 ? trie_model_.TrieSizeBits(l1) : 0};
    }
    for (uint32_t l2 : bloom_grid_) {
      if (l2 <= l1) continue;
      double fpr = ProteusFpr(l1, l2, mem_bits);
      if (fpr <= best.expected_fpr) {
        best = {l1, l2, fpr, l1 > 0 ? trie_model_.TrieSizeBits(l1) : 0};
      }
    }
  }
  return best;
}

}  // namespace proteus
