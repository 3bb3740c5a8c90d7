// Tests for the SuRF baseline.
//
// For fixed-length integer keys the filter's conservative semantics have an
// exact executable specification: every pruned leaf covers the key interval
// [prefix·00…, prefix·FF…] (narrowed by real-suffix bits), and
// MayContain(lo, hi) must hold iff some leaf interval intersects [lo, hi].
// We verify the full navigation logic against that spec on randomized key
// sets, plus hand-built cases for variable-length strings (terminators,
// prefix keys, suffix disambiguation).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "surf/surf.h"
#include "util/bits.h"
#include "util/random.h"
#include "workload/datasets.h"

namespace proteus {
namespace {

std::vector<uint64_t> RandomSortedKeys(size_t n, uint64_t seed,
                                       uint64_t span = ~uint64_t{0}) {
  Rng rng(seed);
  std::set<uint64_t> s;
  while (s.size() < n) s.insert(span == ~uint64_t{0} ? rng.Next()
                                                     : rng.NextBelow(span));
  return {s.begin(), s.end()};
}

// Reference spec: leaf intervals for integer keys under SuRF pruning.
std::vector<std::pair<uint64_t, uint64_t>> LeafIntervals(
    const std::vector<uint64_t>& keys, uint32_t real_suffix_bits) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const size_t n = keys.size();
  auto byte_lcp = [](uint64_t a, uint64_t b) {
    uint32_t bits = LcpBits64(a, b);
    return bits / 8;  // whole shared bytes
  };
  for (size_t i = 0; i < n; ++i) {
    size_t l1 = i > 0 ? byte_lcp(keys[i - 1], keys[i]) : 0;
    size_t l2 = i + 1 < n ? byte_lcp(keys[i], keys[i + 1]) : 0;
    size_t prune_bytes = std::min<size_t>(std::max(l1, l2) + 1, 8);
    uint32_t known = static_cast<uint32_t>(
        std::min<uint64_t>(prune_bytes * 8 + real_suffix_bits, 64));
    uint64_t mask = known == 64 ? ~uint64_t{0} : ~(~uint64_t{0} >> known);
    uint64_t lo = keys[i] & mask;
    uint64_t hi = lo | ~mask;
    out.push_back({lo, hi});
  }
  return out;
}

bool SpecMayContain(const std::vector<std::pair<uint64_t, uint64_t>>& leaves,
                    uint64_t lo, uint64_t hi) {
  for (const auto& [a, b] : leaves) {
    if (a <= hi && b >= lo) return true;
  }
  return false;
}

class SurfSpecTest
    : public ::testing::TestWithParam<std::tuple<Dataset, uint32_t>> {};

TEST_P(SurfSpecTest, MatchesIntervalSpec) {
  auto [dataset, suffix_bits] = GetParam();
  auto keys = GenerateKeys(dataset, 600, 51);
  Surf::Options options;
  options.suffix_mode =
      suffix_bits == 0 ? SurfSuffixMode::kNone : SurfSuffixMode::kReal;
  options.suffix_bits = suffix_bits;
  auto filter = SurfIntFilter::Build(keys, options);
  auto leaves = LeafIntervals(keys, suffix_bits);

  Rng rng(suffix_bits * 7 + 3);
  for (int i = 0; i < 4000; ++i) {
    uint64_t a, b;
    switch (rng.NextBelow(3)) {
      case 0:  // uniform ranges
        a = rng.Next();
        b = a + rng.NextBelow(uint64_t{1} << 40);
        break;
      case 1: {  // near-key ranges (exercise suffix disambiguation)
        uint64_t k = keys[rng.NextBelow(keys.size())];
        int64_t d = static_cast<int64_t>(rng.NextBelow(1 << 12)) - (1 << 11);
        a = k + static_cast<uint64_t>(d);
        b = a + rng.NextBelow(1 << 10);
        break;
      }
      default:  // point queries
        a = rng.NextBelow(2) ? rng.Next() : keys[rng.NextBelow(keys.size())];
        b = a;
    }
    if (b < a) continue;
    ASSERT_EQ(filter->MayContain(a, b), SpecMayContain(leaves, a, b))
        << DatasetName(dataset) << " r=" << suffix_bits << " [" << a << ","
        << b << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SurfSpecTest,
    ::testing::Combine(::testing::Values(Dataset::kUniform, Dataset::kNormal,
                                         Dataset::kFacebook),
                       ::testing::Values(0u, 2u, 4u, 8u)),
    [](const auto& info) {
      return std::string(DatasetName(std::get<0>(info.param))) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Surf, NoFalseNegativesPointLookups) {
  auto keys = GenerateKeys(Dataset::kUniform, 3000, 52);
  for (auto mode : {SurfSuffixMode::kNone, SurfSuffixMode::kReal,
                    SurfSuffixMode::kHash}) {
    Surf::Options options;
    options.suffix_mode = mode;
    options.suffix_bits = mode == SurfSuffixMode::kNone ? 0 : 8;
    auto filter = SurfIntFilter::Build(keys, options);
    for (uint64_t k : keys) {
      ASSERT_TRUE(filter->MayContain(k, k)) << filter->Name();
    }
  }
}

TEST(Surf, HashSuffixCutsPointFpr) {
  auto keys = GenerateKeys(Dataset::kUniform, 20000, 53);
  Surf::Options base;
  auto f_base = SurfIntFilter::Build(keys, base);
  Surf::Options hash;
  hash.suffix_mode = SurfSuffixMode::kHash;
  hash.suffix_bits = 8;
  auto f_hash = SurfIntFilter::Build(keys, hash);

  Rng rng(54);
  int fp_base = 0, fp_hash = 0, probes = 20000;
  for (int i = 0; i < probes; ++i) {
    // Points adjacent to keys: adversarial for SuRF-Base.
    uint64_t q = keys[rng.NextBelow(keys.size())] + 1 + rng.NextBelow(16);
    if (std::binary_search(keys.begin(), keys.end(), q)) continue;
    fp_base += f_base->MayContain(q, q);
    fp_hash += f_hash->MayContain(q, q);
  }
  EXPECT_LT(fp_hash, fp_base / 10)
      << "hash suffixes should cut adversarial point FPR ~256x";
}

TEST(Surf, RealSuffixHelpsRangesHashDoesNot) {
  // Dense key band (span 2^32): pruned prefixes reach ~6 bytes, so 8 real
  // suffix bits cover the bits where a key+2^10..2^12 query diverges from
  // its nearest key. Hash suffixes cannot be used for ranges (Section 2.2),
  // so their range FPR stays at SuRF-Base levels.
  auto keys = RandomSortedKeys(20000, 55, uint64_t{1} << 32);
  Surf::Options real;
  real.suffix_mode = SurfSuffixMode::kReal;
  real.suffix_bits = 8;
  auto f_real = SurfIntFilter::Build(keys, real);
  Surf::Options hash;
  hash.suffix_mode = SurfSuffixMode::kHash;
  hash.suffix_bits = 8;
  auto f_hash = SurfIntFilter::Build(keys, hash);

  Rng rng(56);
  int fp_real = 0, fp_hash = 0, total = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t q = keys[rng.NextBelow(keys.size())] +
                 (uint64_t{1} << 10) + rng.NextBelow(1 << 12);
    uint64_t hi = q + 4;
    auto it = std::lower_bound(keys.begin(), keys.end(), q);
    if (it != keys.end() && *it <= hi) continue;  // non-empty
    ++total;
    fp_real += f_real->MayContain(q, hi);
    fp_hash += f_hash->MayContain(q, hi);
  }
  ASSERT_GT(total, 1000);
  EXPECT_LT(fp_real * 2, fp_hash)
      << "real=" << fp_real << " hash=" << fp_hash << " total=" << total;
}

TEST(Surf, SizeIsCompact) {
  // SuRF-Base on random 64-bit integers lands around 10-14 bits per key
  // (Section 5.2 observes an 11-12 BPK minimum).
  auto keys = GenerateKeys(Dataset::kUniform, 50000, 57);
  auto filter = SurfIntFilter::Build(keys, Surf::Options{});
  double bpk = filter->Bpk(keys.size());
  EXPECT_GT(bpk, 6.0) << bpk;
  EXPECT_LT(bpk, 16.0) << bpk;
}

TEST(Surf, DenseRatioControlsEncoding) {
  auto keys = GenerateKeys(Dataset::kUniform, 20000, 58);
  Surf::Options all_sparse;
  all_sparse.dense_ratio = 0;  // dense never wins
  auto f_sparse = SurfIntFilter::Build(keys, all_sparse);
  EXPECT_EQ(f_sparse->surf().n_dense_nodes(), 0u);
  Surf::Options some_dense;
  some_dense.dense_ratio = 64;
  auto f_dense = SurfIntFilter::Build(keys, some_dense);
  EXPECT_GT(f_dense->surf().n_dense_nodes(), 0u);
  // Both encodings answer identically.
  Rng rng(59);
  for (int i = 0; i < 3000; ++i) {
    uint64_t a = rng.Next();
    uint64_t b = a + rng.NextBelow(1 << 20);
    if (b < a) continue;
    ASSERT_EQ(f_sparse->MayContain(a, b), f_dense->MayContain(a, b));
  }
}

// ---------------------------------------------------------------------------
// Variable-length string keys
// ---------------------------------------------------------------------------

TEST(SurfStr, PrefixKeysAndTerminators) {
  std::vector<std::string> keys = {"a", "ab", "abc", "abd", "b", "ba"};
  std::sort(keys.begin(), keys.end());
  auto filter = SurfStrFilter::Build(keys, Surf::Options{});
  for (const auto& k : keys) {
    EXPECT_TRUE(filter->MayContain(k, k)) << k;
  }
  EXPECT_TRUE(filter->surf().Lookup("ab"));
  EXPECT_TRUE(filter->MayContain("aa", "ab"));   // contains "ab"
  EXPECT_TRUE(filter->MayContain("abb", "abz")); // contains "abc", "abd"
  EXPECT_FALSE(filter->MayContain("c", "z"));    // nothing beyond "ba"
}

TEST(SurfStr, RangeSemanticsOnWords) {
  std::vector<std::string> keys = {"apple", "apricot", "banana",
                                   "cherry", "damson", "fig"};
  std::sort(keys.begin(), keys.end());
  Surf::Options options;
  options.suffix_mode = SurfSuffixMode::kReal;
  options.suffix_bits = 8;
  auto filter = SurfStrFilter::Build(keys, options);
  for (const auto& k : keys) EXPECT_TRUE(filter->MayContain(k, k)) << k;
  EXPECT_TRUE(filter->MayContain("az", "bz"));   // banana inside
  EXPECT_FALSE(filter->MayContain("g", "zzz"));  // beyond all keys
  EXPECT_FALSE(filter->MayContain("A", "Z"));    // before all keys
  // Queries adjacent to a pruned region: conservative positives allowed,
  // but a range clearly between "banana" and "cherry" prefixes should be
  // negative with real suffixes.
  EXPECT_FALSE(filter->MayContain("bx", "by"));
}

TEST(SurfStr, LongSharedPrefixes) {
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("www.site" + std::to_string(1000 + i) + ".org");
  }
  std::sort(keys.begin(), keys.end());
  auto filter = SurfStrFilter::Build(keys, Surf::Options{});
  for (const auto& k : keys) EXPECT_TRUE(filter->MayContain(k, k));
  EXPECT_FALSE(filter->MayContain("www.zzz", "www.zzzz"));
}

TEST(SurfStr, EmptyFilter) {
  Surf surf;
  surf.Build({}, Surf::Options{});
  EXPECT_FALSE(surf.MayContain("a", "b"));
  EXPECT_FALSE(surf.Lookup("a"));
}

TEST(SurfStr, SingleKey) {
  Surf surf;
  surf.Build({"hello"}, Surf::Options{});
  EXPECT_TRUE(surf.MayContain("hello", "hello"));
  EXPECT_TRUE(surf.MayContain("h", "i"));  // pruned to 1 byte: whole 'h' range
  EXPECT_FALSE(surf.MayContain("i", "z"));
}

TEST(SurfStr, RandomizedNoFalseNegatives) {
  Rng rng(60);
  std::set<std::string> key_set;
  while (key_set.size() < 800) {
    size_t len = 1 + rng.NextBelow(10);
    std::string s;
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(5)));
    }
    key_set.insert(std::move(s));
  }
  std::vector<std::string> keys(key_set.begin(), key_set.end());
  for (auto mode : {SurfSuffixMode::kNone, SurfSuffixMode::kReal,
                    SurfSuffixMode::kHash}) {
    Surf::Options options;
    options.suffix_mode = mode;
    options.suffix_bits = mode == SurfSuffixMode::kNone ? 0 : 6;
    auto filter = SurfStrFilter::Build(keys, options);
    for (const auto& k : keys) {
      ASSERT_TRUE(filter->MayContain(k, k)) << k;
    }
    // Ranges straddling consecutive keys must be positive.
    for (size_t i = 0; i + 1 < keys.size(); i += 13) {
      ASSERT_TRUE(filter->MayContain(keys[i], keys[i + 1]));
    }
  }
}

TEST(Surf, EncodeDecodeKeyBE) {
  for (uint64_t k : {0ull, 1ull, 0xFFull << 56, ~0ull, 0x0123456789ABCDEFull}) {
    EXPECT_EQ(DecodeKeyBE(EncodeKeyBE(k)), k);
  }
  // Order preservation.
  EXPECT_LT(EncodeKeyBE(5), EncodeKeyBE(uint64_t{1} << 40));

  // Any other length: the first 8 bytes, zero-padded when shorter.
  EXPECT_EQ(DecodeKeyBE(""), 0u);
  const std::string bytes("\x01\x23\x45\x67\x89\xAB\xCD\xEF\xFF\x00\x11\x22",
                          12);
  for (size_t len = 1; len <= 12; ++len) {
    const uint64_t want = len >= 8 ? 0x0123456789ABCDEFull
                                   : 0x0123456789ABCDEFull &
                                         ~(~uint64_t{0} >> (8 * len));
    EXPECT_EQ(DecodeKeyBE(bytes.substr(0, len)), want) << "length " << len;
  }

  // Monotone: a < b implies head(a) <= head(b). Over a sorted set of
  // random byte strings of length 0-12 (bytes from a small alphabet, so
  // many share prefixes and heads), heads never step down.
  Rng rng(11);
  const char alphabet[] = {'\0', '\x01', '\x7f', '\x80', '\xfe', '\xff'};
  std::set<std::string> keys;
  for (int i = 0; i < 20000; ++i) {
    std::string key;
    const size_t len = rng.NextBelow(13);
    for (size_t b = 0; b < len; ++b) {
      key.push_back(rng.NextBelow(2) == 0
                        ? alphabet[rng.NextBelow(sizeof(alphabet))]
                        : static_cast<char>(rng.NextBelow(256)));
    }
    keys.insert(key);
  }
  uint64_t prev = 0;
  for (const std::string& key : keys) {
    const uint64_t head = DecodeKeyBE(key);
    ASSERT_LE(prev, head) << "key of length " << key.size();
    prev = head;
  }
}

}  // namespace
}  // namespace proteus
