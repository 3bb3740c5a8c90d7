// Tests for the CPFPR model: expected-vs-observed FPR agreement for forced
// configurations (the Figure 4 property), selection sanity across
// workloads, binned-vs-exact consistency, and a bitwise differential
// against a straightforward reference gather.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/filter_builder.h"
#include "core/one_pbf.h"
#include "core/proteus.h"
#include "core/two_pbf.h"
#include "model/cpfpr.h"
#include "util/bits.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

constexpr size_t kKeys = 20000;
constexpr size_t kSamples = 4000;
constexpr size_t kEval = 8000;
constexpr double kBpk = 12.0;

struct Workload {
  std::vector<uint64_t> keys;
  std::vector<RangeQuery> samples;  // for the model
  std::vector<RangeQuery> eval;     // held-out empty queries
};

Workload MakeWorkload(Dataset dataset, const QuerySpec& spec, uint64_t seed) {
  Workload w;
  w.keys = GenerateKeys(dataset, kKeys, seed);
  w.samples = GenerateQueries(w.keys, spec, kSamples, seed * 3 + 1);
  w.eval = GenerateQueries(w.keys, spec, kEval, seed * 7 + 2);
  return w;
}

template <typename Filter>
double ObservedFpr(const Filter& filter, const std::vector<RangeQuery>& qs) {
  size_t fp = 0;
  for (const auto& q : qs) {
    if (filter.MayContain(q.lo, q.hi)) ++fp;
  }
  return static_cast<double>(fp) / static_cast<double>(qs.size());
}

// Expected and observed FPR must agree within a tolerance that accounts for
// sampling noise and binning (Figure 4 shows near-perfect agreement at
// paper scale).
void ExpectClose(double expected, double observed, const char* what) {
  EXPECT_NEAR(expected, observed, 0.05 + 0.25 * expected)
      << what << ": expected=" << expected << " observed=" << observed;
}

TEST(CpfprModel, OnePbfAccuracyAcrossPrefixLengths) {
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 7;
  Workload w = MakeWorkload(Dataset::kUniform, spec, 101);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  for (uint32_t l : {30u, 40u, 50u, 56u, 60u, 64u}) {
    auto filter = OnePbfFilter::BuildWithConfig(w.keys, l, kBpk);
    double expected = model.OnePbfFpr(l, mem);
    double observed = ObservedFpr(*filter, w.eval);
    ExpectClose(expected, observed, ("1PBF l=" + std::to_string(l)).c_str());
  }
}

TEST(CpfprModel, OnePbfCaptures64MinusLogRmaxThreshold) {
  // Figure 4a: observed FPR rises sharply once prefix length passes
  // 64 - log2(RMAX).
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 11;
  Workload w = MakeWorkload(Dataset::kUniform, spec, 102);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  double fpr_below = model.OnePbfFpr(50, mem);   // below 64-11=53
  double fpr_above = model.OnePbfFpr(62, mem);   // above the threshold
  EXPECT_LT(fpr_below, 0.1);
  EXPECT_GT(fpr_above, fpr_below + 0.1);
}

TEST(CpfprModel, ProteusAccuracyOnSplitWorkload) {
  // The Figure 4c setting: Normal keys, split queries (short correlated +
  // long uniform).
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 19;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  Workload w = MakeWorkload(Dataset::kNormal, spec, 103);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  struct Case {
    uint32_t l1, l2;
  };
  for (Case c : {Case{0, 40}, Case{0, 60}, Case{20, 60}, Case{24, 58},
                 Case{30, 62}}) {
    double expected = model.ProteusFpr(c.l1, c.l2, mem);
    if (expected > 1.0) continue;  // infeasible at this budget
    auto filter = ProteusFilter::BuildWithConfig(
        w.keys, ProteusFilter::Config{c.l1, c.l2}, kBpk);
    double observed = ObservedFpr(*filter, w.eval);
    ExpectClose(expected, observed,
                ("Proteus " + std::to_string(c.l1) + "/" +
                 std::to_string(c.l2)).c_str());
  }
}

TEST(CpfprModel, TwoPbfAccuracy) {
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 15;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  Workload w = MakeWorkload(Dataset::kNormal, spec, 104);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  struct Case {
    uint32_t l1, l2;
  };
  for (Case c : {Case{30, 60}, Case{40, 58}, Case{50, 64}}) {
    double expected = model.TwoPbfFpr(c.l1, c.l2, 0.5, mem);
    auto filter = TwoPbfFilter::BuildWithConfig(
        w.keys, TwoPbfFilter::Config{c.l1, c.l2, 0.5}, kBpk);
    double observed = ObservedFpr(*filter, w.eval);
    ExpectClose(expected, observed,
                ("2PBF " + std::to_string(c.l1) + "/" + std::to_string(c.l2))
                    .c_str());
  }
}

TEST(CpfprModel, BinnedMatchesExact) {
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 16;  // wide spread of |Q_l|
  Workload w = MakeWorkload(Dataset::kUniform, spec, 105);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  for (uint32_t l : {40u, 48u, 56u, 64u}) {
    double binned = model.OnePbfFpr(l, mem);
    double exact = model.OnePbfFprExact(l, mem);
    EXPECT_NEAR(binned, exact, 0.02 + 0.1 * exact) << "1PBF l=" << l;
  }
  for (uint32_t l1 : {16u, 24u}) {
    for (uint32_t l2 : {56u, 64u}) {
      double binned = model.ProteusFpr(l1, l2, mem);
      double exact = model.ProteusFprExact(l1, l2, mem);
      if (binned > 1.0 || exact > 1.0) continue;
      EXPECT_NEAR(binned, exact, 0.02 + 0.1 * exact)
          << "Proteus " << l1 << "/" << l2;
    }
  }
}

TEST(CpfprModel, SelectionBeatsFixedDesignsOnSamples) {
  // The selected design's expected FPR must be minimal over the design
  // space (it is chosen by exhaustive search) and must hold up out of
  // sample.
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 19;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  Workload w = MakeWorkload(Dataset::kNormal, spec, 106);
  CpfprModel model(w.keys, w.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  ProteusDesign design = model.SelectProteus(mem);
  for (uint32_t l1 : {0u, 8u, 16u, 24u, 32u}) {
    for (uint32_t l2 : {0u, 40u, 56u, 64u}) {
      double fpr = model.ProteusFpr(l1, l2, mem);
      if (fpr > 1.0) continue;
      EXPECT_GE(fpr + 1e-12, design.expected_fpr)
          << "config " << l1 << "/" << l2 << " beats the selected design";
    }
  }
  // The FilterBuilder gathers an identical model from the same keys and
  // samples; the materialized filter must realize the selected design.
  FilterBuilder builder(w.keys);
  builder.Sample(w.samples);
  auto filter = ProteusFilter::BuildFromSpec(FilterSpec("proteus"), builder,
                                             nullptr);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->config().trie_depth, design.trie_depth);
  EXPECT_EQ(filter->config().bf_prefix_len, design.bf_prefix_len);
  double observed = ObservedFpr(*filter, w.eval);
  ExpectClose(design.expected_fpr, observed, "selected design");
}

TEST(CpfprModel, CorrelatedWorkloadPrefersDeepStructure) {
  // Small correlated queries need long prefixes; uniform large ranges need
  // short ones. The chosen designs must reflect that (Section 5.2).
  QuerySpec corr;
  corr.dist = QueryDist::kCorrelated;
  corr.range_max = uint64_t{1} << 3;
  corr.corr_degree = uint64_t{1} << 10;
  Workload wc = MakeWorkload(Dataset::kUniform, corr, 107);
  CpfprModel mc(wc.keys, wc.samples);
  uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
  OnePbfDesign dc = mc.SelectOnePbf(mem);

  QuerySpec uni;
  uni.dist = QueryDist::kUniform;
  uni.range_max = uint64_t{1} << 19;
  Workload wu = MakeWorkload(Dataset::kUniform, uni, 108);
  CpfprModel mu(wu.keys, wu.samples);
  OnePbfDesign du = mu.SelectOnePbf(mem);

  EXPECT_GT(dc.prefix_len, du.prefix_len)
      << "correlated=" << dc.prefix_len << " uniform=" << du.prefix_len;
  // Correlated queries land within corr_degree of a key: distinguishing
  // them needs prefixes beyond 64 - log2(corr_degree) = 54.
  EXPECT_GE(dc.prefix_len, 54u);
  // Large uniform ranges want few probes: at most ~2 regions per query.
  EXPECT_LE(du.prefix_len, 64u - 19u + 2u);
}

TEST(CpfprModel, ProteusSelectionNeverWorseThanOnePbf) {
  // Proteus's design space strictly contains 1PBF's (Section 5.1).
  for (uint64_t seed : {201u, 202u, 203u}) {
    QuerySpec spec;
    spec.dist = seed % 2 == 0 ? QueryDist::kUniform : QueryDist::kSplit;
    spec.range_max = uint64_t{1} << 15;
    spec.split_corr_range_max = uint64_t{1} << 4;
    Workload w = MakeWorkload(Dataset::kNormal, spec, seed);
    CpfprModel model(w.keys, w.samples);
    uint64_t mem = static_cast<uint64_t>(kBpk * kKeys);
    EXPECT_LE(model.SelectProteus(mem).expected_fpr,
              model.SelectOnePbf(mem).expected_fpr + 1e-12);
  }
}

TEST(CpfprModel, InfeasibleConfigsFlagged) {
  auto keys = GenerateKeys(Dataset::kUniform, 5000, 9);
  QuerySpec spec;
  auto samples = GenerateQueries(keys, spec, 500, 10);
  CpfprModel model(keys, samples);
  // A 64-deep trie cannot fit in 2 bits per key.
  EXPECT_EQ(model.ProteusFpr(64, 0, keys.size() * 2), CpfprModel::kInfeasible);
}

// --- Reference model -------------------------------------------------------
//
// The CPFPR gather written the plain way: every Proteus (l1, l2) region
// count comes from the general Eq. 5 rule, and the 2PBF statistics are
// gathered eagerly in the same pass. Bins are filled in query order, so
// CpfprModel must reproduce every FPR bit for bit.
class ReferenceModel {
 public:
  ReferenceModel(const std::vector<uint64_t>& keys,
                 const std::vector<RangeQuery>& samples)
      : stats_(KeyStats::FromSortedInts(keys)),
        trie_(stats_),
        n_(samples.size()),
        lcp_ge_(66, 0),
        one_(65 * kBins),
        proteus_(65 * 65 * kBins),
        two_(65 * 65 * kBins) {
    for (const RangeQuery& q : samples) {
      auto succ = std::lower_bound(keys.begin(), keys.end(), q.lo);
      Record r{q.lo, q.hi, 0, 0};
      if (succ != keys.begin()) r.left_lcp = LcpBits64(*(succ - 1), q.lo);
      if (succ != keys.end()) r.right_lcp = LcpBits64(*succ, q.hi);
      const uint32_t lcp = std::max(r.left_lcp, r.right_lcp);
      for (uint32_t l = 0; l <= lcp; ++l) lcp_ge_[l]++;
      for (uint32_t l = lcp + 1; l <= 64; ++l) {
        Add(&one_[l * kBins], PrefixCountInRange64(q.lo, q.hi, l));
      }
      for (uint32_t l1 = 1; l1 <= lcp; ++l1) {
        for (uint32_t l2 = lcp + 1; l2 <= 64; ++l2) {
          Add(&proteus_[(l1 * 65 + l2) * kBins], Regions(r, l1, l2));
        }
      }
      GatherTwo(r, lcp);
    }
  }

  double OnePbfFpr(uint32_t l, uint64_t mem) const {
    if (n_ == 0 || l == 0 || l > 64) return 1.0;
    double p = CpfprModel::BloomFpr(mem, stats_.k_counts[l]);
    return Sum(&one_[l * kBins], lcp_ge_[l], p);
  }

  double ProteusFpr(uint32_t l1, uint32_t l2, uint64_t mem) const {
    if (n_ == 0) return 1.0;
    uint64_t trie_bits = 0;
    if (l1 > 0) {
      trie_bits = trie_.TrieSizeBits(l1);
      if (trie_bits > mem) return CpfprModel::kInfeasible;
    }
    if (l2 == 0) {
      return l1 == 0 ? 1.0
                     : static_cast<double>(lcp_ge_[l1]) /
                           static_cast<double>(n_);
    }
    if (l2 <= l1 || l2 > 64) return CpfprModel::kInfeasible;
    if (l1 == 0) return OnePbfFpr(l2, mem);
    double p = CpfprModel::BloomFpr(mem - trie_bits, stats_.k_counts[l2]);
    return Sum(&proteus_[(l1 * 65 + l2) * kBins], lcp_ge_[l2], p);
  }

  double TwoPbfFpr(uint32_t l1, uint32_t l2, double frac1, uint64_t mem) const {
    if (n_ == 0 || l2 == 0 || l2 > 64) return 1.0;
    if (l1 == 0) return OnePbfFpr(l2, mem);
    if (l1 >= l2) return CpfprModel::kInfeasible;
    uint64_t m1 = static_cast<uint64_t>(static_cast<double>(mem) * frac1);
    double p1 = CpfprModel::BloomFpr(m1, stats_.k_counts[l1]);
    double p2 = CpfprModel::BloomFpr(mem - m1, stats_.k_counts[l2]);
    double mid = (1.0 - p1) +
                 p1 * PowOneMinus(p2, std::pow(2.0, static_cast<double>(
                                                        l2 - l1)));
    double ln_mid = mid > 0 ? std::log(mid) : -1e300;
    double fp = static_cast<double>(lcp_ge_[l2]);
    for (uint32_t b = 0; b < kBins; ++b) {
      const TwoBin& bin = two_[(l1 * 65 + l2) * kBins + b];
      if (bin.count == 0) continue;
      double n = static_cast<double>(bin.count);
      double avg_mid = bin.sum_mid / n;
      double p_neg_mid = avg_mid > 0 ? std::exp(avg_mid * ln_mid) : 1.0;
      auto side = [&](uint32_t ci, double si, uint32_t cn, double sn) {
        double f = n - ci - cn;
        if (ci > 0) f += ci * PowOneMinus(p2, si / ci);
        if (cn > 0) f += cn * ((1.0 - p1) + p1 * PowOneMinus(p2, sn / cn));
        return f / n;
      };
      double p_neg =
          p_neg_mid *
          (side(bin.cnt_l_ink, bin.sum_l_ink, bin.cnt_l_noink,
                bin.sum_l_noink) *
           side(bin.cnt_r_ink, bin.sum_r_ink, bin.cnt_r_noink,
                bin.sum_r_noink));
      fp += n * (1.0 - p_neg);
    }
    return fp / static_cast<double>(n_);
  }

 private:
  static constexpr uint32_t kBins = 66;
  struct Bin {
    uint64_t count = 0;
    double sum = 0;
  };
  struct TwoBin {
    uint64_t count = 0;
    double sum_mid = 0;
    double sum_l_ink = 0, sum_l_noink = 0;
    double sum_r_ink = 0, sum_r_noink = 0;
    uint32_t cnt_l_ink = 0, cnt_l_noink = 0;
    uint32_t cnt_r_ink = 0, cnt_r_noink = 0;
  };
  struct Record {
    uint64_t lo, hi;
    uint32_t left_lcp, right_lcp;
  };

  static uint32_t BinIndex(uint64_t regions) {
    return regions == 0 ? 0 : 64 - std::countl_zero(regions);
  }
  static double PowOneMinus(double p, double n) {
    if (n <= 0 || p <= 0) return 1.0;
    if (p >= 1) return 0.0;
    return std::exp(n * std::log1p(-p));
  }
  // Eq. 5's probe count at (l1, l2), valid when l1 <= lcp < l2.
  static uint64_t Regions(const Record& q, uint32_t l1, uint32_t l2) {
    if (PrefixCountInRange64(q.lo, q.hi, l1) == 1) {
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
  // Adds `regions` to the bin it falls in, within the row starting at `row`.
  static void Add(Bin* row, uint64_t regions) {
    Bin& bin = row[BinIndex(regions)];
    bin.count++;
    bin.sum += static_cast<double>(regions);
  }

  void GatherTwo(const Record& r, uint32_t lcp) {
    for (uint32_t l1 = 1; l1 <= 63; ++l1) {
      bool single = PrefixCountInRange64(r.lo, r.hi, l1) == 1;
      uint64_t mask = ~uint64_t{0} >> l1;
      bool i0 = single || (r.lo & mask) != 0;
      bool i1 = !single && (r.hi & mask) != mask;
      uint64_t n_mid = single ? 0
                              : PrefixCountInRange64(r.lo, r.hi, l1) -
                                    (i0 ? 1 : 0) - (i1 ? 1 : 0);
      bool ink_l = r.left_lcp >= l1 || (single && lcp >= l1);
      bool ink_r = r.right_lcp >= l1;
      uint64_t region_hi =
          single ? r.hi
                 : std::min(r.hi, PrefixRangeHi64(PrefixBits64(r.lo, l1), l1));
      uint64_t region_lo =
          std::max(r.lo, PrefixRangeLo64(PrefixBits64(r.hi, l1), l1));
      for (uint32_t l2 = std::max(l1 + 1, lcp + 1); l2 <= 64; ++l2) {
        TwoBin& bin = two_[(l1 * 65 + l2) * kBins + BinIndex(n_mid)];
        bin.count++;
        bin.sum_mid += static_cast<double>(n_mid);
        if (i0) {
          double regions = static_cast<double>(
              PrefixCountInRange64(r.lo, region_hi, l2));
          (ink_l ? bin.cnt_l_ink : bin.cnt_l_noink)++;
          (ink_l ? bin.sum_l_ink : bin.sum_l_noink) += regions;
        }
        if (i1) {
          double regions = static_cast<double>(
              PrefixCountInRange64(region_lo, r.hi, l2));
          (ink_r ? bin.cnt_r_ink : bin.cnt_r_noink)++;
          (ink_r ? bin.sum_r_ink : bin.sum_r_noink) += regions;
        }
      }
    }
  }

  double Sum(const Bin* bins, uint64_t always_fp, double p) const {
    double fp = static_cast<double>(always_fp);
    for (uint32_t b = 0; b < kBins; ++b) {
      if (bins[b].count == 0) continue;
      double avg = bins[b].sum / static_cast<double>(bins[b].count);
      fp += static_cast<double>(bins[b].count) * (1.0 - PowOneMinus(p, avg));
    }
    return fp / static_cast<double>(n_);
  }

  KeyStats stats_;
  TrieMemoryModel trie_;
  uint64_t n_;
  std::vector<uint64_t> lcp_ge_;  // queries with lcp >= l
  std::vector<Bin> one_, proteus_;
  std::vector<TwoBin> two_;
};

// Compares every (l1, l2) evaluation of the three families bitwise.
void ExpectBitwiseEqualToReference(const std::vector<uint64_t>& keys,
                                   const std::vector<RangeQuery>& samples) {
  CpfprModel model(keys, samples);
  ReferenceModel ref(keys, samples);
  size_t checked = 0, mismatches = 0;
  std::string first;
  auto check = [&](const char* what, uint32_t l1, uint32_t l2, double got,
                   double want) {
    ++checked;
    if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want)) return;
    if (mismatches++ == 0) {
      first = std::string(what) + " " + std::to_string(l1) + "/" +
              std::to_string(l2) + ": got " + std::to_string(got) +
              " want " + std::to_string(want);
    }
  };
  for (double bpk : {8.0, 14.0, 20.0}) {
    uint64_t mem =
        static_cast<uint64_t>(bpk * static_cast<double>(keys.size()));
    for (uint32_t l1 = 0; l1 <= 64; ++l1) {
      for (uint32_t l2 = 0; l2 <= 64; ++l2) {
        check("Proteus", l1, l2, model.ProteusFpr(l1, l2, mem),
              ref.ProteusFpr(l1, l2, mem));
        check("2PBF", l1, l2, model.TwoPbfFpr(l1, l2, 0.4, mem),
              ref.TwoPbfFpr(l1, l2, 0.4, mem));
      }
      check("1PBF", 0, l1, model.OnePbfFpr(l1, mem), ref.OnePbfFpr(l1, mem));
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << "; first: " << first;
}

TEST(CpfprModel, BitwiseEqualToReferenceOnCorrelatedQueries) {
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 12;
  for (Dataset ds : {Dataset::kUniform, Dataset::kNormal}) {
    auto keys = GenerateKeys(ds, 5000, 301);
    ExpectBitwiseEqualToReference(keys,
                                  GenerateQueries(keys, spec, 600, 302));
  }
}

TEST(CpfprModel, BitwiseEqualToReferenceOnWideSplitQueries) {
  // Wide uniform ranges often straddle an l1 boundary while sharing a long
  // prefix with a neighbouring key: l1 > LCP(lo, hi) for some l1 <= lcp,
  // the region-count path that cannot reuse |Q_l2|.
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 40;
  spec.split_corr_range_max = uint64_t{1} << 6;
  for (Dataset ds : {Dataset::kUniform, Dataset::kNormal}) {
    auto keys = GenerateKeys(ds, 5000, 303);
    auto samples = GenerateQueries(keys, spec, 600, 304);
    size_t straddling = 0;
    for (const RangeQuery& q : samples) {
      auto succ = std::lower_bound(keys.begin(), keys.end(), q.lo);
      uint32_t lcp = 0;
      if (succ != keys.begin()) lcp = LcpBits64(*(succ - 1), q.lo);
      if (succ != keys.end()) lcp = std::max(lcp, LcpBits64(*succ, q.hi));
      if (lcp > LcpBits64(q.lo, q.hi)) ++straddling;
    }
    ASSERT_GT(straddling, 0u) << "workload never leaves the one-region path";
    ExpectBitwiseEqualToReference(keys, samples);
  }
}

TEST(CpfprModel, DeferredTwoPbfGatherIsRaceFree) {
  // The 2PBF statistics are gathered on the first 2PBF evaluation; two
  // threads racing to it on one const model must both see the same
  // statistics as a single-threaded model.
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 15;
  auto keys = GenerateKeys(Dataset::kNormal, 5000, 305);
  auto samples = GenerateQueries(keys, spec, 600, 306);
  uint64_t mem = static_cast<uint64_t>(kBpk * keys.size());

  const CpfprModel serial(keys, samples);
  TwoPbfDesign want_design = serial.SelectTwoPbf(mem);
  double want_fpr = serial.TwoPbfFpr(40, 58, 0.5, mem);

  const CpfprModel shared(keys, samples);
  TwoPbfDesign got_design;
  double got_fpr = 0;
  std::thread a([&] { got_design = shared.SelectTwoPbf(mem); });
  std::thread b([&] { got_fpr = shared.TwoPbfFpr(40, 58, 0.5, mem); });
  a.join();
  b.join();
  EXPECT_EQ(got_design.l1, want_design.l1);
  EXPECT_EQ(got_design.l2, want_design.l2);
  EXPECT_EQ(got_design.frac1, want_design.frac1);
  EXPECT_EQ(got_design.expected_fpr, want_design.expected_fpr);
  EXPECT_EQ(got_fpr, want_fpr);
}

TEST(CpfprModel, BloomFprPricesTheBlockedLayout) {
  // The model prices the layout every filter is built with. At 10 bits
  // per item, k = 7, Eq. 6 over the whole array gives
  // p = (1 - e^{-7/10})^7 ~ 0.00819; uneven block loads cost more.
  const double p = CpfprModel::BloomFpr(10000, 1000);
  EXPECT_EQ(p, BloomFilter::TheoreticalFpr(10000, 1000));
  EXPECT_GT(p, 0.00819);
  EXPECT_LT(p, 2 * 0.00819);
  EXPECT_EQ(CpfprModel::BloomFpr(0, 10), 1.0);
  EXPECT_EQ(CpfprModel::BloomFpr(100, 0), 0.0);
}

}  // namespace
}  // namespace proteus
