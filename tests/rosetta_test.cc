// Tests for the Rosetta baseline: no false negatives, doubting semantics,
// self-configuration behavior, and the probe-amplification property the
// paper leans on in Section 6.3.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rosetta/rosetta.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

class RosettaNoFnTest : public ::testing::TestWithParam<Dataset> {};

TEST_P(RosettaNoFnTest, NoFalseNegatives) {
  auto keys = GenerateKeys(GetParam(), 4000, 61);
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 10;
  auto samples = GenerateQueries(keys, spec, 800, 62);
  auto filter = RosettaFilter::BuildSelfConfigured(keys, samples, 14.0);
  Rng rng(63);
  for (int i = 0; i < 1500; ++i) {
    uint64_t k = keys[rng.NextBelow(keys.size())];
    ASSERT_TRUE(filter->MayContain(k, k));
    uint64_t w = rng.NextBelow(uint64_t{1} << 9);
    uint64_t lo = k >= w ? k - w : 0;
    uint64_t hi = k <= ~uint64_t{0} - w ? k + w : ~uint64_t{0};
    ASSERT_TRUE(filter->MayContain(lo, hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RosettaNoFnTest,
                         ::testing::Values(Dataset::kUniform, Dataset::kNormal,
                                           Dataset::kBooks,
                                           Dataset::kFacebook),
                         [](const auto& info) {
                           return DatasetName(info.param);
                         });

TEST(Rosetta, PointQueriesMatchBloomBehavior) {
  // With point-query samples, Rosetta uses only the leaf level and behaves
  // like a full-key Bloom filter.
  auto keys = GenerateKeys(Dataset::kUniform, 20000, 64);
  QuerySpec spec;
  spec.range_max = 0;
  auto samples = GenerateQueries(keys, spec, 2000, 65);
  auto filter = RosettaFilter::BuildSelfConfigured(keys, samples, 12.0);
  EXPECT_EQ(filter->min_level(), 64u);
  auto probes = GenerateQueries(keys, spec, 20000, 66);
  int fp = 0;
  for (const auto& q : probes) fp += filter->MayContain(q.lo, q.hi);
  double fpr = static_cast<double>(fp) / probes.size();
  // ~12 BPK Bloom: sub-1% FPR.
  EXPECT_LT(fpr, 0.02) << fpr;
}

TEST(Rosetta, SmallCorrelatedRangesWellFiltered) {
  auto keys = GenerateKeys(Dataset::kUniform, 20000, 67);
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 4;
  spec.corr_degree = uint64_t{1} << 10;
  auto samples = GenerateQueries(keys, spec, 2000, 68);
  auto filter = RosettaFilter::BuildSelfConfigured(keys, samples, 14.0);
  auto eval = GenerateQueries(keys, spec, 10000, 69);
  int fp = 0;
  for (const auto& q : eval) fp += filter->MayContain(q.lo, q.hi);
  double fpr = static_cast<double>(fp) / eval.size();
  EXPECT_LT(fpr, 0.15) << fpr;
}

TEST(Rosetta, LargeRangesDegradeAndAmplifyProbes) {
  auto keys = GenerateKeys(Dataset::kUniform, 20000, 70);
  QuerySpec small;
  small.range_max = uint64_t{1} << 4;
  QuerySpec large;
  large.range_max = uint64_t{1} << 16;
  auto s_small = GenerateQueries(keys, small, 1000, 71);
  auto s_large = GenerateQueries(keys, large, 1000, 72);
  auto f_small = RosettaFilter::BuildSelfConfigured(keys, s_small, 12.0);
  auto f_large = RosettaFilter::BuildSelfConfigured(keys, s_large, 12.0);

  auto eval_large = GenerateQueries(keys, large, 2000, 73);
  uint64_t probes_large = 0;
  for (const auto& q : eval_large) {
    f_large->MayContain(q.lo, q.hi);
    probes_large += f_large->last_probe_count();
  }
  auto eval_small = GenerateQueries(keys, small, 2000, 74);
  uint64_t probes_small = 0;
  for (const auto& q : eval_small) {
    f_small->MayContain(q.lo, q.hi);
    probes_small += f_small->last_probe_count();
  }
  // The paper's Section 6.3 point: large ranges cost Rosetta many Bloom
  // probes per query.
  EXPECT_GT(probes_large, probes_small * 2);
}

TEST(Rosetta, SelfConfigurationPicksDeepLevels) {
  auto keys = GenerateKeys(Dataset::kUniform, 10000, 75);
  QuerySpec spec;
  spec.range_max = uint64_t{1} << 8;
  auto samples = GenerateQueries(keys, spec, 1000, 76);
  auto filter = RosettaFilter::BuildSelfConfigured(keys, samples, 12.0);
  // Sampled range sizes reach 2^8 + 1, so 9 levels are needed: 55..64.
  EXPECT_EQ(filter->min_level(), 55u);
}

TEST(Rosetta, ForcedConfigRespectsBudget) {
  auto keys = GenerateKeys(Dataset::kNormal, 10000, 77);
  RosettaFilter::Config config;
  config.min_level = 56;
  config.level_weights.assign(9, 1.0);
  auto filter = RosettaFilter::BuildWithConfig(keys, config, 12.0);
  EXPECT_LE(filter->SizeBits(), static_cast<uint64_t>(12.0 * keys.size() * 1.05));
  Rng rng(78);
  for (int i = 0; i < 500; ++i) {
    uint64_t k = keys[rng.NextBelow(keys.size())];
    ASSERT_TRUE(filter->MayContain(k, k));
  }
}

TEST(Rosetta, EmptyRangeFarFromKeysNegative) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 2000; ++i) {
    keys.push_back((uint64_t{0xAB} << 56) | (i * 99991));
  }
  QuerySpec spec;
  spec.range_max = uint64_t{1} << 6;
  auto samples = GenerateQueries(keys, spec, 500, 79);
  auto filter = RosettaFilter::BuildSelfConfigured(keys, samples, 14.0);
  int fp = 0;
  for (uint64_t q = 0; q < 300; ++q) {
    uint64_t base = (uint64_t{0x10} << 56) + q * 100000;
    fp += filter->MayContain(base, base + 30);
  }
  // Rosetta probes every leaf value of the range when upper levels are
  // starved (the bottom-heavy allocation), so the FPR floor here is about
  // range_size * leaf Bloom FPR ~ 31 * 0.002 ~ 6%.
  EXPECT_LT(fp, 45);
}

}  // namespace
}  // namespace proteus
