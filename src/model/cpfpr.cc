#include "model/cpfpr.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "bloom/bloom_filter.h"
#include "util/bits.h"

namespace proteus {

namespace {

/// (1 - p)^n for potentially astronomically large n, computed stably.
double PowOneMinus(double p, double n) {
  if (n <= 0) return 1.0;
  if (p <= 0) return 1.0;
  if (p >= 1) return 0.0;
  return std::exp(n * std::log1p(-p));
}

}  // namespace

double CpfprModel::BloomFpr(uint64_t m_bits, uint64_t n_items) {
  return BloomFilter::TheoreticalFpr(m_bits, n_items);
}

uint32_t CpfprModel::BinIndex(uint64_t regions) {
  if (regions == 0) return 0;
  return static_cast<uint32_t>(64 - std::countl_zero(regions));  // 1+floor(log2)
}

uint64_t CpfprModel::ProteusRegions(const QueryRecord& q, uint32_t l1,
                                    uint32_t l2) {
  if (PrefixCountInRange64(q.lo, q.hi, l1) == 1) {
    // Single l1 region covering the whole query: the paper's I2 = 1, I3 = 0
    // convention; all of Q_l2 is probed.
    return PrefixCountInRange64(q.lo, q.hi, l2);
  }
  uint64_t regions = 0;
  if (q.left_lcp >= l1) {
    uint64_t region_hi = PrefixRangeHi64(PrefixBits64(q.lo, l1), l1);
    regions += PrefixCountInRange64(q.lo, std::min(q.hi, region_hi), l2);
  }
  if (q.right_lcp >= l1) {
    uint64_t region_lo = PrefixRangeLo64(PrefixBits64(q.hi, l1), l1);
    regions += PrefixCountInRange64(std::max(q.lo, region_lo), q.hi, l2);
  }
  return regions;
}

CpfprModel::CpfprModel(const std::vector<uint64_t>& sorted_keys,
                       const std::vector<RangeQuery>& empty_samples) {
  key_stats_ = KeyStats::FromSortedInts(sorted_keys);
  trie_model_ = TrieMemoryModel(key_stats_);
  n_samples_ = empty_samples.size();

  one_bins_.assign(65 * kBins, Bin{});
  proteus_bins_.assign(static_cast<size_t>(65) * 65 * kBins, Bin{});
  records_.reserve(empty_samples.size());
  std::vector<uint64_t> lcp_hist(65, 0);

  // Per-query |Q_l| and its bin offset within a (l1, *) row of
  // proteus_bins_, for l in (lcp, 64].
  double q_regions[65] = {};
  size_t q_offset[65] = {};

  for (const RangeQuery& query : empty_samples) {
    // The query is empty, so the first key >= lo is also the first key > hi.
    auto succ = std::lower_bound(sorted_keys.begin(), sorted_keys.end(),
                                 query.lo);
    QueryRecord rec{query.lo, query.hi, 0, 0};
    if (succ != sorted_keys.begin()) {
      rec.left_lcp = LcpBits64(*(succ - 1), query.lo);
    }
    if (succ != sorted_keys.end()) {
      rec.right_lcp = LcpBits64(*succ, query.hi);
    }
    const uint32_t lcp = rec.lcp();
    lcp_hist[lcp]++;

    // 1PBF (Eq. 1): for prefix lengths that can distinguish Q from K, the
    // query issues |Q_l| probabilistic probes.
    for (uint32_t l = lcp + 1; l <= 64; ++l) {
      uint64_t regions = PrefixCountInRange64(query.lo, query.hi, l);
      uint32_t b = BinIndex(regions);
      Bin& bin = one_bins_[l * kBins + b];
      bin.count++;
      bin.sum += static_cast<double>(regions);
      q_regions[l] = static_cast<double>(regions);
      q_offset[l] = static_cast<size_t>(l) * kBins + b;
    }

    // Proteus (Eq. 5): probabilistic only when l1 <= lcp < l2. While the
    // whole query lies under one l1 prefix (l1 <= LCP(lo, hi)), the trie
    // leaves a single region and all of Q_l2 is probed, whatever l1 is.
    const uint32_t single_l1 = std::min(lcp, LcpBits64(query.lo, query.hi));
    for (uint32_t l1 = 1; l1 <= single_l1; ++l1) {
      Bin* row = &proteus_bins_[static_cast<size_t>(l1) * 65 * kBins];
      for (uint32_t l2 = lcp + 1; l2 <= 64; ++l2) {
        Bin& bin = row[q_offset[l2]];
        bin.count++;
        bin.sum += q_regions[l2];
      }
    }
    for (uint32_t l1 = single_l1 + 1; l1 <= lcp; ++l1) {
      for (uint32_t l2 = lcp + 1; l2 <= 64; ++l2) {
        uint64_t regions = ProteusRegions(rec, l1, l2);
        Bin& bin =
            proteus_bins_[(static_cast<size_t>(l1) * 65 + l2) * kBins +
                          BinIndex(regions)];
        bin.count++;
        bin.sum += static_cast<double>(regions);
      }
    }

    records_.push_back(rec);
  }

  lcp_ge_.assign(66, 0);
  uint64_t acc = 0;
  for (int l = 64; l >= 0; --l) {
    acc += lcp_hist[l];
    lcp_ge_[l] = acc;
  }
  lcp_ge_[65] = 0;
}

const std::vector<CpfprModel::TwoBin>& CpfprModel::TwoBins() const {
  std::call_once(two_bins_once_, [this] {
    two_bins_.assign(static_cast<size_t>(65) * 65 * kBins, TwoBin{});
    for (const QueryRecord& rec : records_) GatherTwoPbf(rec, &two_bins_);
  });
  return two_bins_;
}

void CpfprModel::GatherTwoPbf(const QueryRecord& rec,
                              std::vector<TwoBin>* two_bins) {
  // 2PBF (Eq. 4): every l1 contributes; l2 <= lcp is a guaranteed FP and
  // is excluded (counted through lcp_ge_).
  const uint32_t lcp = rec.lcp();
  for (uint32_t l1 = 1; l1 <= 63; ++l1) {
    uint64_t q_l1 = PrefixCountInRange64(rec.lo, rec.hi, l1);
    bool i0, i1;
    uint64_t n_mid;
    bool single = q_l1 == 1;
    if (single) {
      i0 = true;
      i1 = false;
      n_mid = 0;
    } else {
      uint64_t mask = l1 == 64 ? 0 : (~uint64_t{0} >> l1);
      i0 = (rec.lo & mask) != 0;
      i1 = (rec.hi & mask) != mask;
      n_mid = q_l1 - (i0 ? 1 : 0) - (i1 ? 1 : 0);
    }
    bool ink_l = rec.left_lcp >= l1 || (single && lcp >= l1);
    bool ink_r = rec.right_lcp >= l1;
    uint64_t region_hi =
        single ? rec.hi
               : std::min(rec.hi,
                          PrefixRangeHi64(PrefixBits64(rec.lo, l1), l1));
    uint64_t region_lo =
        std::max(rec.lo, PrefixRangeLo64(PrefixBits64(rec.hi, l1), l1));
    for (uint32_t l2 = std::max(l1 + 1, lcp + 1); l2 <= 64; ++l2) {
      TwoBin& bin = (*two_bins)[(static_cast<size_t>(l1) * 65 + l2) * kBins +
                                BinIndex(n_mid)];
      bin.count++;
      bin.sum_mid += static_cast<double>(n_mid);
      if (i0) {
        double l_regions =
            static_cast<double>(PrefixCountInRange64(rec.lo, region_hi, l2));
        if (ink_l) {
          bin.cnt_l_ink++;
          bin.sum_l_ink += l_regions;
        } else {
          bin.cnt_l_noink++;
          bin.sum_l_noink += l_regions;
        }
      }
      if (i1) {
        double r_regions =
            static_cast<double>(PrefixCountInRange64(region_lo, rec.hi, l2));
        if (ink_r) {
          bin.cnt_r_ink++;
          bin.sum_r_ink += r_regions;
        } else {
          bin.cnt_r_noink++;
          bin.sum_r_noink += r_regions;
        }
      }
    }
  }
}

double CpfprModel::OnePbfFpr(uint32_t prefix_len, uint64_t mem_bits) const {
  if (n_samples_ == 0 || prefix_len == 0 || prefix_len > 64) return 1.0;
  double p = BloomFpr(mem_bits, key_stats_.k_counts[prefix_len]);
  double fp = static_cast<double>(lcp_ge_[prefix_len]);
  const Bin* bins = &one_bins_[prefix_len * kBins];
  for (uint32_t b = 0; b < kBins; ++b) {
    if (bins[b].count == 0) continue;
    double avg = bins[b].sum / static_cast<double>(bins[b].count);
    fp += static_cast<double>(bins[b].count) * (1.0 - PowOneMinus(p, avg));
  }
  return fp / static_cast<double>(n_samples_);
}

double CpfprModel::ProteusFpr(uint32_t trie_depth, uint32_t bf_len,
                              uint64_t mem_bits) const {
  if (n_samples_ == 0) return 1.0;
  uint64_t trie_bits = 0;
  if (trie_depth > 0) {
    trie_bits = trie_model_.TrieSizeBits(trie_depth);
    if (trie_bits > mem_bits) return kInfeasible;
  }
  if (bf_len == 0) {
    // Pure trie: FPR is the fraction of queries the trie cannot resolve.
    if (trie_depth == 0) return 1.0;
    return static_cast<double>(lcp_ge_[trie_depth]) /
           static_cast<double>(n_samples_);
  }
  if (bf_len <= trie_depth || bf_len > 64) return kInfeasible;
  if (trie_depth == 0) return OnePbfFpr(bf_len, mem_bits);

  uint64_t bf_mem = mem_bits - trie_bits;
  double p = BloomFpr(bf_mem, key_stats_.k_counts[bf_len]);
  double fp = static_cast<double>(lcp_ge_[bf_len]);  // lcp >= l2: always FP
  const Bin* bins =
      &proteus_bins_[(static_cast<size_t>(trie_depth) * 65 + bf_len) * kBins];
  for (uint32_t b = 0; b < kBins; ++b) {
    if (bins[b].count == 0) continue;
    double avg = bins[b].sum / static_cast<double>(bins[b].count);
    fp += static_cast<double>(bins[b].count) * (1.0 - PowOneMinus(p, avg));
  }
  return fp / static_cast<double>(n_samples_);
}

double CpfprModel::EndFactor(double p1, double p2, const TwoBin& bin) const {
  // Average multiplicative survival factor contributed by the left and
  // right end regions across the bin's queries.
  double n = static_cast<double>(bin.count);
  auto side = [&](uint32_t cnt_ink, double sum_ink, uint32_t cnt_noink,
                  double sum_noink) {
    double contained = n - cnt_ink - cnt_noink;  // I0/I1 == 0: no end region
    double f = contained;  // factor 1 each
    if (cnt_ink > 0) {
      double avg = sum_ink / cnt_ink;
      f += cnt_ink * PowOneMinus(p2, avg);
    }
    if (cnt_noink > 0) {
      double avg = sum_noink / cnt_noink;
      f += cnt_noink * ((1.0 - p1) + p1 * PowOneMinus(p2, avg));
    }
    return f / n;
  };
  return side(bin.cnt_l_ink, bin.sum_l_ink, bin.cnt_l_noink, bin.sum_l_noink) *
         side(bin.cnt_r_ink, bin.sum_r_ink, bin.cnt_r_noink, bin.sum_r_noink);
}

double CpfprModel::TwoPbfFpr(uint32_t l1, uint32_t l2, double frac1,
                             uint64_t mem_bits) const {
  if (n_samples_ == 0 || l2 == 0 || l2 > 64) return 1.0;
  if (l1 == 0) {
    return OnePbfFpr(l2, mem_bits);  // degenerate: single filter
  }
  if (l1 >= l2) return kInfeasible;
  uint64_t m1 = static_cast<uint64_t>(static_cast<double>(mem_bits) * frac1);
  uint64_t m2 = mem_bits - m1;
  double p1 = BloomFpr(m1, key_stats_.k_counts[l1]);
  double p2 = BloomFpr(m2, key_stats_.k_counts[l2]);
  // Middle regions: fully contained l1 regions, each triggering 2^{l2-l1}
  // second-filter probes when the first filter false-positives. Eq. 4's
  // binomial sum in closed form.
  double probes_per_mid = std::pow(2.0, static_cast<double>(l2 - l1));
  double mid = (1.0 - p1) + p1 * PowOneMinus(p2, probes_per_mid);
  double ln_mid = mid > 0 ? std::log(mid) : -1e300;

  double fp = static_cast<double>(lcp_ge_[l2]);
  const TwoBin* bins =
      &TwoBins()[(static_cast<size_t>(l1) * 65 + l2) * kBins];
  for (uint32_t b = 0; b < kBins; ++b) {
    const TwoBin& bin = bins[b];
    if (bin.count == 0) continue;
    double avg_mid = bin.sum_mid / static_cast<double>(bin.count);
    double p_neg_mid = avg_mid > 0 ? std::exp(avg_mid * ln_mid) : 1.0;
    double p_neg = p_neg_mid * EndFactor(p1, p2, bin);
    fp += static_cast<double>(bin.count) * (1.0 - p_neg);
  }
  return fp / static_cast<double>(n_samples_);
}

double CpfprModel::OnePbfFprExact(uint32_t prefix_len,
                                  uint64_t mem_bits) const {
  if (n_samples_ == 0 || prefix_len == 0 || prefix_len > 64) return 1.0;
  double p = BloomFpr(mem_bits, key_stats_.k_counts[prefix_len]);
  double fp = 0;
  for (const QueryRecord& rec : records_) {
    if (rec.lcp() >= prefix_len) {
      fp += 1.0;
    } else {
      double regions = static_cast<double>(
          PrefixCountInRange64(rec.lo, rec.hi, prefix_len));
      fp += 1.0 - PowOneMinus(p, regions);
    }
  }
  return fp / static_cast<double>(n_samples_);
}

double CpfprModel::ProteusFprExact(uint32_t trie_depth, uint32_t bf_len,
                                   uint64_t mem_bits) const {
  if (n_samples_ == 0) return 1.0;
  uint64_t trie_bits = 0;
  if (trie_depth > 0) {
    trie_bits = trie_model_.TrieSizeBits(trie_depth);
    if (trie_bits > mem_bits) return kInfeasible;
  }
  if (bf_len == 0) {
    if (trie_depth == 0) return 1.0;
    return static_cast<double>(lcp_ge_[trie_depth]) /
           static_cast<double>(n_samples_);
  }
  if (bf_len <= trie_depth || bf_len > 64) return kInfeasible;
  if (trie_depth == 0) return OnePbfFprExact(bf_len, mem_bits);
  double p = BloomFpr(mem_bits - trie_bits, key_stats_.k_counts[bf_len]);
  double fp = 0;
  for (const QueryRecord& rec : records_) {
    uint32_t lcp = rec.lcp();
    if (lcp < trie_depth) continue;  // resolved in the trie
    if (lcp >= bf_len) {
      fp += 1.0;
      continue;
    }
    double regions =
        static_cast<double>(ProteusRegions(rec, trie_depth, bf_len));
    fp += 1.0 - PowOneMinus(p, regions);
  }
  return fp / static_cast<double>(n_samples_);
}

ProteusDesign CpfprModel::SelectProteus(uint64_t mem_bits) const {
  ProteusDesign best;
  best.expected_fpr = 1.0;
  best.trie_depth = 0;
  best.bf_prefix_len = 0;
  for (uint32_t l1 = 0; l1 <= 64; ++l1) {
    if (l1 > 0 && trie_model_.TrieSizeBits(l1) > mem_bits) break;
    double trie_only = ProteusFpr(l1, 0, mem_bits);
    if (trie_only <= best.expected_fpr) {
      best = {l1, 0, trie_only,
              l1 > 0 ? trie_model_.TrieSizeBits(l1) : 0};
    }
    for (uint32_t l2 = l1 + 1; l2 <= 64; ++l2) {
      double fpr = ProteusFpr(l1, l2, mem_bits);
      if (fpr <= best.expected_fpr) {
        best = {l1, l2, fpr, l1 > 0 ? trie_model_.TrieSizeBits(l1) : 0};
      }
    }
  }
  return best;
}

OnePbfDesign CpfprModel::SelectOnePbf(uint64_t mem_bits) const {
  OnePbfDesign best;
  best.expected_fpr = 1.0;
  best.prefix_len = 64;
  for (uint32_t l = 1; l <= 64; ++l) {
    double fpr = OnePbfFpr(l, mem_bits);
    if (fpr <= best.expected_fpr) best = {l, fpr};
  }
  return best;
}

TwoPbfDesign CpfprModel::SelectTwoPbf(uint64_t mem_bits) const {
  TwoPbfDesign best;
  best.expected_fpr = 1.0;
  best.l1 = 0;
  best.l2 = 64;
  // Single-filter degenerate candidates first.
  for (uint32_t l2 = 1; l2 <= 64; ++l2) {
    double fpr = OnePbfFpr(l2, mem_bits);
    if (fpr <= best.expected_fpr) best = {0, l2, 0.0, fpr};
  }
  for (double frac : {0.4, 0.5, 0.6}) {
    for (uint32_t l1 = 1; l1 <= 63; ++l1) {
      for (uint32_t l2 = l1 + 1; l2 <= 64; ++l2) {
        double fpr = TwoPbfFpr(l1, l2, frac, mem_bits);
        if (fpr <= best.expected_fpr) best = {l1, l2, frac, fpr};
      }
    }
  }
  return best;
}

}  // namespace proteus
