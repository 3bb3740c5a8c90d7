// Tests for BloomFilter and the prefix Bloom filters: no false negatives,
// FPR close to the blocked layout's model, serialization round-trip,
// range probing semantics, and |K_l| prefix counting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/prefix_bloom.h"
#include "util/bits.h"
#include "util/random.h"

namespace proteus {
namespace {

std::vector<uint64_t> RandomSortedKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::set<uint64_t> s;
  while (s.size() < n) s.insert(rng.Next());
  return {s.begin(), s.end()};
}

TEST(BloomFilter, NoFalseNegativesInt) {
  auto keys = RandomSortedKeys(5000, 1);
  BloomFilter bf(keys.size() * 10, BloomFilter::OptimalHashes(keys.size() * 10,
                                                              keys.size()));
  EXPECT_EQ(bf.n_bits() % BloomFilter::kBlockBits, 0u);
  for (uint64_t k : keys) bf.InsertInt(k);
  for (uint64_t k : keys) EXPECT_TRUE(bf.MayContainInt(k));
}

TEST(BloomFilter, FprMatchesTheory) {
  // The self-design prices every filter with TheoreticalFpr, so the filter
  // must deliver that FPR, not merely its order of magnitude: an in-block
  // layout whose probe positions are not independent passes at low bpk
  // and overshoots by 1.4x at 12 bpk and 2.7x at 16.
  auto keys = RandomSortedKeys(100000, 12);
  struct Point {
    uint64_t bpk;
    double tolerance;  // relative to TheoreticalFpr
  };
  // The model's per-block Bloom term is the large-filter approximation,
  // which runs a few percent low once a block holds few items with many
  // probes each; 20 bpk (k = 14) gets the wider bound for that reason.
  for (Point point : {Point{4, 0.10}, Point{8, 0.10}, Point{12, 0.10},
                      Point{14, 0.10}, Point{16, 0.10}, Point{20, 0.15}}) {
    const uint64_t m = keys.size() * point.bpk;
    const uint32_t k = BloomFilter::OptimalHashes(m, keys.size());
    BloomFilter bf(m, k);
    for (uint64_t key : keys) bf.InsertInt(key);
    const double modeled = BloomFilter::TheoreticalFpr(m, keys.size());
    // Eq. 6 over the whole array: the floor that uneven block loads lift
    // the blocked FPR above.
    const double eq6 = std::pow(
        1.0 - std::exp(-static_cast<double>(k * keys.size()) /
                       static_cast<double>(m)),
        static_cast<double>(k));
    // Enough probes for ~2000 expected false positives: a 2.2% relative
    // standard error, well inside the bound.
    const uint64_t probes =
        std::max<uint64_t>(200000, static_cast<uint64_t>(2000 / modeled));
    // Uniform 64-bit queries: all ~14M of them miss the 1e5 keys except
    // with probability ~1e-7, so every hit is a false positive.
    Rng rng(13);
    uint64_t fp = 0;
    for (uint64_t i = 0; i < probes; ++i) {
      if (bf.MayContainInt(rng.Next())) ++fp;
    }
    const double observed = static_cast<double>(fp) / probes;
    // The blocked layout pays a real FPR premium over Eq. 6, and the
    // Poisson-mixture model must price it accurately.
    EXPECT_GT(modeled, eq6) << "bpk=" << point.bpk;
    EXPECT_NEAR(observed / modeled, 1.0, point.tolerance)
        << "bpk=" << point.bpk << " observed=" << observed
        << " modeled=" << modeled << " false positives=" << fp;
  }
}

TEST(BloomFilter, StringItems) {
  BloomFilter bf(4096, 4);
  std::vector<std::string> items = {"alpha", "beta", "gamma", std::string("a\0b", 3)};
  for (const auto& s : items) bf.InsertBytes(s);
  for (const auto& s : items) EXPECT_TRUE(bf.MayContainBytes(s));
}

TEST(BloomFilter, SerializationRoundTrip) {
  auto keys = RandomSortedKeys(1000, 4);
  BloomFilter bf(8192, 5);
  for (uint64_t k : keys) bf.InsertInt(k);
  std::string blob;
  bf.AppendTo(&blob);
  std::string_view view = blob;
  BloomFilter parsed;
  ASSERT_TRUE(BloomFilter::ParseFrom(&view, &parsed));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(parsed.n_bits(), bf.n_bits());
  EXPECT_EQ(parsed.n_hashes(), bf.n_hashes());
  for (uint64_t k : keys) EXPECT_TRUE(parsed.MayContainInt(k));
  Rng rng(15);
  for (int i = 0; i < 2000; ++i) {
    uint64_t q = rng.Next();
    EXPECT_EQ(parsed.MayContainInt(q), bf.MayContainInt(q));
  }
}

TEST(BloomFilter, ParseRejectsTruncated) {
  BloomFilter bf(8192, 5);
  std::string blob;
  bf.AppendTo(&blob);
  for (size_t cut : {0ul, 8ul, 15ul, blob.size() - 1}) {
    std::string_view view(blob.data(), cut);
    BloomFilter parsed;
    EXPECT_FALSE(BloomFilter::ParseFrom(&view, &parsed)) << cut;
  }
}

TEST(BloomFilter, OptimalHashesCap) {
  EXPECT_EQ(BloomFilter::OptimalHashes(1 << 20, 10), 32u);  // capped
  EXPECT_EQ(BloomFilter::OptimalHashes(1000, 1000), 1u);
  EXPECT_EQ(BloomFilter::OptimalHashes(10000, 1000), 7u);  // ceil(10*ln2)=7
}

TEST(PrefixBloom, ProbeRangeMatchesPerPrefixProbes) {
  auto keys = RandomSortedKeys(3000, 17);
  PrefixBloom pb(keys, keys.size() * 12, 52);
  Rng rng(18);
  for (int i = 0; i < 3000; ++i) {
    uint64_t first = rng.Next() >> 12;
    uint64_t last = first + rng.NextBelow(40);
    bool expected = false;
    for (uint64_t p = first; p <= last && !expected; ++p) {
      expected = pb.ProbePrefix(p);
    }
    ASSERT_EQ(pb.ProbeRange(first, last), expected)
        << "[" << first << "," << last << "]";
  }
}

TEST(PrefixBloom, NoFalseNegativesOnCoveringRanges) {
  auto keys = RandomSortedKeys(2000, 5);
  for (uint32_t l : {8u, 16u, 24u, 40u, 64u}) {
    PrefixBloom pb(keys, keys.size() * 12, l);
    for (uint64_t k : keys) {
      // Any range containing k must return positive.
      EXPECT_TRUE(pb.MayContain(k, k)) << "l=" << l;
      uint64_t lo = k == 0 ? 0 : k - 1;
      uint64_t hi = k == ~uint64_t{0} ? k : k + 1;
      EXPECT_TRUE(pb.MayContain(lo, hi)) << "l=" << l;
    }
  }
}

TEST(PrefixBloom, ShortPrefixCoarseness) {
  // With an 8-bit prefix, any query inside an occupied 2^56-sized region is
  // an (expected) positive even if far from the key.
  std::vector<uint64_t> keys = {uint64_t{0xAB} << 56};
  PrefixBloom pb(keys, 1 << 12, 8);
  EXPECT_TRUE(pb.MayContain((uint64_t{0xAB} << 56) + 12345,
                            (uint64_t{0xAB} << 56) + 99999));
  // A query in an unoccupied region is almost surely negative at this size.
  int positives = 0;
  for (uint64_t p = 0; p < 200; ++p) {
    uint64_t base = (p % 2 == 0 ? uint64_t{0x10} : uint64_t{0x20}) << 56;
    if (pb.MayContain(base + p * 1000, base + p * 1000 + 10)) ++positives;
  }
  EXPECT_LT(positives, 10);
}

TEST(PrefixBloom, ProbeLimitConservative) {
  std::vector<uint64_t> keys = {1, 2, 3};
  PrefixBloom pb(keys, 4096, 64);
  // A full-key-space query would need 2^64 probes; must return true.
  EXPECT_TRUE(pb.MayContain(0, ~uint64_t{0}, /*probe_limit=*/1024));
}

TEST(StrPrefixBloom, NoFalseNegatives) {
  std::vector<std::string> keys = {"apple",  "apricot", "banana",
                                   "cherry", "damson",  "elderberry"};
  std::sort(keys.begin(), keys.end());
  for (uint32_t l : {8u, 12u, 24u, 48u}) {
    StrPrefixBloom pb(keys, 1 << 14, l);
    for (const auto& k : keys) {
      EXPECT_TRUE(pb.MayContain(k, k)) << "l=" << l << " key=" << k;
      EXPECT_TRUE(pb.MayContain("a", "zzzz")) << "l=" << l;
    }
  }
}

TEST(StrPrefixBloom, PaddingSemantics) {
  // "ab" and "ab\0\0" are indistinguishable under padding (Section 7.1).
  std::vector<std::string> keys = {"ab"};
  StrPrefixBloom pb(keys, 1 << 12, 32);
  std::string padded("ab\0\0", 4);
  EXPECT_TRUE(pb.MayContain(padded, padded));
}

TEST(CountUniquePrefixes, MatchesBruteForce) {
  auto keys = RandomSortedKeys(300, 6);
  auto all = CountUniquePrefixesAll(keys);
  for (uint32_t l = 0; l <= 64; l += 3) {
    std::set<uint64_t> uniq;
    for (uint64_t k : keys) uniq.insert(PrefixBits64(k, l));
    EXPECT_EQ(all[l], uniq.size()) << "l=" << l;
    EXPECT_EQ(CountUniquePrefixes(keys, l), uniq.size()) << "l=" << l;
  }
}

TEST(CountUniquePrefixes, ClusteredKeys) {
  // 256 keys sharing a 48-bit prefix: |K_l| == 1 for l <= 48.
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 256; ++i) {
    keys.push_back((uint64_t{0xABCD} << 48) | i);
  }
  auto all = CountUniquePrefixesAll(keys);
  for (uint32_t l = 1; l <= 48; ++l) EXPECT_EQ(all[l], 1u) << l;
  EXPECT_EQ(all[56], 1u);
  EXPECT_EQ(all[64], 256u);
}

TEST(StrCountUniquePrefixes, MatchesBruteForce) {
  std::vector<std::string> keys = {"aa", "ab", "abc", "b", "ba", "cc"};
  std::sort(keys.begin(), keys.end());
  auto all = StrCountUniquePrefixesAll(keys, 40);
  for (uint32_t l = 1; l <= 40; l += 7) {
    std::set<std::string> uniq;
    for (const auto& k : keys) uniq.insert(StrPrefix(k, l));
    EXPECT_EQ(all[l], uniq.size()) << "l=" << l;
  }
}

}  // namespace
}  // namespace proteus
