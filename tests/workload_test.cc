// Tests for the dataset and query generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/random.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

// Reference generators: the datasets' draw sequence, deduplicated one
// draw at a time through a std::set. GenerateKeys and
// GenerateKeysAndQueryPoints must return exactly these sets.
struct ReferenceDraws {
  ReferenceDraws(Dataset d, uint64_t seed)
      : dataset(d), rng(seed ^ 0xDA7A5E7Bu) {}

  uint64_t Draw() {
    switch (dataset) {
      case Dataset::kUniform:
        return rng.Next();
      case Dataset::kNormal: {
        double v = 9.223372036854776e18 +
                   rng.NextGaussian() * 1.8446744073709552e17;
        if (v < 0) v = 0;
        if (v >= 1.8446744073709552e19) v = 1.8446744073709552e19 - 1;
        return static_cast<uint64_t>(v);
      }
      case Dataset::kBooks: {
        double v = rng.NextLogNormal(std::log(1e12), 2.5);
        if (v >= 1.8446744073709552e19) v = 1.8446744073709552e19 - 1;
        return static_cast<uint64_t>(v);
      }
      case Dataset::kFacebook:
        facebook += 1 + rng.NextBelow(16);
        return facebook;
    }
    return 0;
  }

  Dataset dataset;
  Rng rng;
  uint64_t facebook = uint64_t{1} << 40;
};

TEST(Datasets, DistinctDrawsMatchASetReference) {
  const size_t n = 20000, n_extra = 5000;
  for (Dataset d : {Dataset::kUniform, Dataset::kNormal, Dataset::kBooks,
                    Dataset::kFacebook}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      ReferenceDraws ref(d, seed);
      std::set<uint64_t> keys;
      while (keys.size() < n) keys.insert(ref.Draw());
      EXPECT_EQ(GenerateKeys(d, n, seed),
                std::vector<uint64_t>(keys.begin(), keys.end()))
          << DatasetName(d) << " seed " << seed;

      std::vector<uint64_t> got_keys, got_points;
      GenerateKeysAndQueryPoints(d, n, n_extra, seed, &got_keys, &got_points);
      if (d == Dataset::kFacebook) {
        // One dense run split between the two outputs: disjoint, and
        // together every one of the n + n_extra draws.
        std::set<uint64_t> all(got_keys.begin(), got_keys.end());
        all.insert(got_points.begin(), got_points.end());
        EXPECT_EQ(got_keys.size(), n);
        EXPECT_EQ(got_points.size(), n_extra);
        EXPECT_EQ(all.size(), n + n_extra);
        continue;
      }
      std::set<uint64_t> extra;
      while (extra.size() < n_extra) {
        const uint64_t v = ref.Draw();
        if (!keys.count(v)) extra.insert(v);
      }
      EXPECT_EQ(got_keys, std::vector<uint64_t>(keys.begin(), keys.end()))
          << DatasetName(d) << " seed " << seed;
      EXPECT_EQ(got_points, std::vector<uint64_t>(extra.begin(), extra.end()))
          << DatasetName(d) << " seed " << seed;
    }
  }
}

TEST(Datasets, SortedUniqueAndDeterministic) {
  for (Dataset d : {Dataset::kUniform, Dataset::kNormal, Dataset::kBooks,
                    Dataset::kFacebook}) {
    auto a = GenerateKeys(d, 5000, 7);
    auto b = GenerateKeys(d, 5000, 7);
    EXPECT_EQ(a, b) << DatasetName(d);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end())) << DatasetName(d);
    EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end())
        << DatasetName(d);
    EXPECT_EQ(a.size(), 5000u) << DatasetName(d);
    auto c = GenerateKeys(d, 5000, 8);
    EXPECT_NE(a, c) << DatasetName(d);
  }
}

TEST(Datasets, NormalIsCentered) {
  auto keys = GenerateKeys(Dataset::kNormal, 20000, 1);
  double mid = 9.223372036854776e18;
  size_t near_mid = 0;
  for (uint64_t k : keys) {
    // Within 4 sd = 0.04 * 2^64 of the mean.
    if (std::abs(static_cast<double>(k) - mid) < 7.4e17) ++near_mid;
  }
  EXPECT_GT(near_mid, keys.size() * 99 / 100);
}

TEST(Datasets, FacebookIsDense) {
  auto keys = GenerateKeys(Dataset::kFacebook, 10000, 2);
  uint64_t span = keys.back() - keys.front();
  EXPECT_LT(span, 10000ull * 17);  // max gap 16
  EXPECT_GE(span, 10000ull);       // min gap 1
}

TEST(Datasets, BooksIsSkewedLow) {
  auto keys = GenerateKeys(Dataset::kBooks, 20000, 3);
  // Median far below the midpoint of the key space.
  uint64_t median = keys[keys.size() / 2];
  EXPECT_LT(median, uint64_t{1} << 50);
  // But a heavy tail exists.
  EXPECT_GT(keys.back(), uint64_t{1} << 54);
}

TEST(Datasets, ValuePayloadCompressibleHalf) {
  std::string v = MakeValuePayload(12345, 512);
  ASSERT_EQ(v.size(), 512u);
  for (size_t i = 0; i < 256; ++i) ASSERT_EQ(v[i], '\0');
  size_t nonzero = 0;
  for (size_t i = 256; i < 512; ++i) {
    if (v[i] != '\0') ++nonzero;
  }
  EXPECT_GT(nonzero, 200u);  // random half
  EXPECT_EQ(MakeValuePayload(12345, 512), v);  // deterministic
}

class QueryGenTest : public ::testing::TestWithParam<QueryDist> {};

TEST_P(QueryGenTest, EmptyAndWellFormed) {
  auto keys = GenerateKeys(Dataset::kNormal, 10000, 4);
  std::vector<uint64_t> real_points;
  std::vector<uint64_t> keys2;
  GenerateKeysAndQueryPoints(Dataset::kNormal, 10000, 2000, 4, &keys2,
                             &real_points);
  QuerySpec spec;
  spec.dist = GetParam();
  spec.range_max = uint64_t{1} << 12;
  spec.corr_degree = uint64_t{1} << 10;
  QueryGenStats stats;
  auto queries = GenerateQueries(keys, spec, 3000, 5, real_points, &stats);
  ASSERT_EQ(queries.size(), 3000u);
  for (const auto& q : queries) {
    ASSERT_LE(q.lo, q.hi);
    ASSERT_TRUE(RangeIsEmpty(keys, q.lo, q.hi))
        << "[" << q.lo << "," << q.hi << "]";
    ASSERT_LE(q.hi - q.lo, spec.range_max);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDists, QueryGenTest,
                         ::testing::Values(QueryDist::kUniform,
                                           QueryDist::kCorrelated,
                                           QueryDist::kSplit,
                                           QueryDist::kReal),
                         [](const auto& info) {
                           return QueryDistName(info.param);
                         });

TEST(QueryGen, CorrelatedQueriesLandNearKeys) {
  auto keys = GenerateKeys(Dataset::kUniform, 10000, 6);
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 4;
  spec.corr_degree = uint64_t{1} << 10;
  auto queries = GenerateQueries(keys, spec, 2000, 7);
  for (const auto& q : queries) {
    auto it = std::lower_bound(keys.begin(), keys.end(), q.lo);
    ASSERT_NE(it, keys.begin());
    uint64_t pred = *(it - 1);
    ASSERT_LE(q.lo - pred, spec.corr_degree);
  }
}

TEST(QueryGen, PointQueries) {
  auto keys = GenerateKeys(Dataset::kUniform, 5000, 8);
  QuerySpec spec;
  spec.range_max = 0;
  auto queries = GenerateQueries(keys, spec, 1000, 9);
  for (const auto& q : queries) EXPECT_EQ(q.lo, q.hi);
}

TEST(QueryGen, MixedPointFraction) {
  auto keys = GenerateKeys(Dataset::kUniform, 5000, 10);
  QuerySpec spec;
  spec.range_max = uint64_t{1} << 10;
  spec.point_fraction = 0.5;
  auto queries = GenerateQueries(keys, spec, 4000, 11);
  size_t points = 0;
  for (const auto& q : queries) {
    if (q.lo == q.hi) ++points;
  }
  EXPECT_GT(points, 1700u);
  EXPECT_LT(points, 2300u);
}

TEST(QueryGen, NonEmptyAllowedWhenRequested) {
  auto keys = GenerateKeys(Dataset::kFacebook, 10000, 12);
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 8;
  spec.require_empty = false;
  auto queries = GenerateQueries(keys, spec, 500, 13);
  EXPECT_EQ(queries.size(), 500u);
}

TEST(QueryGen, DenseDataCorrelatedStillEmpty) {
  // Facebook-like density (gaps ~8) with correlated queries: the clamp
  // path must still deliver empty ranges.
  auto keys = GenerateKeys(Dataset::kFacebook, 20000, 14);
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 6;
  spec.corr_degree = uint64_t{1} << 6;
  QueryGenStats stats;
  auto queries = GenerateQueries(keys, spec, 1000, 15, {}, &stats);
  for (const auto& q : queries) {
    ASSERT_TRUE(RangeIsEmpty(keys, q.lo, q.hi));
  }
}

}  // namespace
}  // namespace proteus
