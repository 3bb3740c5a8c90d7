// Differential tests for the SIMD batch-probe engine: every AVX2 kernel
// must agree bit-for-bit with its scalar fallback and with the per-query
// reference path, across batch sizes that are not lane multiples (n = 0,
// 1, 7, 9, 65, ...) and across every filter family's MultiMayContain.
// Also pins the serialized format: batching is query-side only, so filter
// blobs must round-trip bit-identically.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/bloom_range.h"
#include "core/filter.h"
#include "core/one_pbf.h"
#include "core/proteus.h"
#include "core/proteus_str.h"
#include "core/two_pbf.h"
#include "rosetta/rosetta.h"
#include "trie/bit_trie.h"
#include "util/bit_vector.h"
#include "util/random.h"
#include "util/rank_select.h"
#include "util/simd.h"
#include "workload/string_gen.h"

namespace proteus {
namespace {

/// Scoped force-scalar override; restores the previous mode on exit.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : prev_(SetForceScalar(on)) {}
  ~ScopedForceScalar() { SetForceScalar(prev_); }

 private:
  bool prev_;
};

const std::vector<size_t> kBatchSizes = {0, 1, 7, 8, 9, 63, 64, 65, 200};

TEST(SimdDispatch, ForceScalarSwitchRoundTrips) {
  const bool prev = SetForceScalar(true);
  EXPECT_FALSE(SimdAvx2Enabled());
  EXPECT_TRUE(SetForceScalar(false));  // returns the previous value
  EXPECT_EQ(SimdAvx2Enabled(), CpuHasAvx2());
  SetForceScalar(prev);
}

TEST(BloomMultiContainHash, MatchesScalarAndSingleProbe) {
  // Probes read seven 9-bit fields of h2 and re-mix it after each seventh
  // probe; these k straddle every boundary (none, exactly one word, one
  // field past it, two words, and the 32-probe cap). Half the queries are
  // inserted items, which must never come back negative.
  Rng rng(101);
  for (uint32_t k : {1u, 6u, 7u, 8u, 14u, 15u, 32u}) {
    BloomFilter bf(97013, k);
    ASSERT_EQ(bf.n_hashes(), k);
    std::vector<uint64_t> keys(3000);
    for (uint64_t& key : keys) {
      key = rng.Next();
      bf.InsertInt(key);
    }
    for (size_t n : kBatchSizes) {
      std::vector<uint64_t> h1(n), h2(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t item =
            i % 2 == 0 ? keys[rng.NextBelow(keys.size())] : rng.Next();
        BloomFilter::HashInt(item, &h1[i], &h2[i]);
      }
      std::vector<uint8_t> scalar(n, 9), simd(n, 9);
      {
        ScopedForceScalar fs(true);
        bf.MultiContainHash(h1.data(), h2.data(), n, scalar.data());
      }
      {
        ScopedForceScalar fs(false);
        bf.MultiContainHash(h1.data(), h2.data(), n, simd.data());
      }
      size_t negatives = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint8_t ref = bf.MayContainHash(h1[i], h2[i]) ? 1 : 0;
        ASSERT_EQ(scalar[i], ref) << "k=" << k << " n=" << n << " i=" << i;
        ASSERT_EQ(simd[i], ref) << "k=" << k << " n=" << n << " i=" << i;
        if (i % 2 == 0) {
          ASSERT_EQ(ref, 1) << "false negative: k=" << k << " i=" << i;
        }
        negatives += ref == 0;
      }
      // Absent items must be rejected too, or the agreement above would
      // hold trivially.
      if (n >= 63) {
        EXPECT_GT(negatives, 0u) << "k=" << k;
      }
    }
  }
}

TEST(MultiRank1, MatchesRank1IncludingBoundary) {
  Rng rng(102);
  // Sizes hit: sub-word, exact word multiples (pos == size lands on a
  // word boundary, where the data-word gather must be suppressed), and a
  // multi-block vector.
  for (uint64_t size : {uint64_t{1}, uint64_t{64}, uint64_t{512},
                        uint64_t{1000}, uint64_t{4096}, uint64_t{70001}}) {
    BitVector bv(size);
    for (uint64_t i = 0; i < size; ++i) {
      if (rng.NextBelow(2) != 0) bv.Set(i);
    }
    RankSelect rs(&bv);
    for (size_t n : kBatchSizes) {
      std::vector<uint64_t> pos(n);
      for (size_t i = 0; i < n; ++i) pos[i] = rng.NextBelow(size + 1);
      if (n > 0) pos[0] = size;  // one-past-the-end is a legal rank query
      std::vector<uint64_t> scalar(n), simd(n);
      {
        ScopedForceScalar fs(true);
        rs.MultiRank1(pos.data(), n, scalar.data());
      }
      {
        ScopedForceScalar fs(false);
        rs.MultiRank1(pos.data(), n, simd.data());
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t ref = rs.Rank1(pos[i]);
        ASSERT_EQ(scalar[i], ref) << "size=" << size << " pos=" << pos[i];
        ASSERT_EQ(simd[i], ref) << "size=" << size << " pos=" << pos[i];
      }
    }
  }
}

// Clustered keys and mixed-width ranges so batched walks see genuine trie
// hits, coarse-filter positives, and empty regions.
std::vector<uint64_t> TestKeys(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(30000);
  for (int i = 0; i < 30000; ++i) {
    keys.push_back((rng.Next() % 1500000) << 8 | rng.NextBelow(256));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void TestQueries(uint64_t seed, size_t n, std::vector<uint64_t>* lo,
                 std::vector<uint64_t>* hi) {
  Rng rng(seed);
  lo->resize(n);
  hi->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t l = rng.Next() % (uint64_t{1500000} << 8);
    uint64_t span = (i % 7 == 0) ? rng.Next() % 100000 : rng.NextBelow(256);
    if (i % 31 == 0) {  // occasional far-out / enormous range
      l = rng.Next();
      span = rng.Next() % 100000;
    }
    (*lo)[i] = l;
    (*hi)[i] = l + span < l ? ~uint64_t{0} : l + span;
  }
}

void ExpectBatchMatchesSingle(const RangeFilter& filter,
                              const std::vector<uint64_t>& lo,
                              const std::vector<uint64_t>& hi) {
  for (size_t n : kBatchSizes) {
    ASSERT_LE(n, lo.size());
    std::vector<uint8_t> scalar(n, 9), simd(n, 9);
    {
      ScopedForceScalar fs(true);
      filter.MultiMayContain(lo.data(), hi.data(), n, scalar.data());
    }
    {
      ScopedForceScalar fs(false);
      filter.MultiMayContain(lo.data(), hi.data(), n, simd.data());
    }
    for (size_t i = 0; i < n; ++i) {
      const uint8_t ref = filter.MayContain(lo[i], hi[i]) ? 1 : 0;
      ASSERT_EQ(scalar[i], ref)
          << filter.Name() << " n=" << n << " i=" << i;
      ASSERT_EQ(simd[i], ref)
          << filter.Name() << " n=" << n << " i=" << i;
    }
  }
}

TEST(MultiMayContain, AllIntFamiliesMatchSingleQuery) {
  auto keys = TestKeys(103);
  std::vector<uint64_t> lo, hi;
  TestQueries(104, 200, &lo, &hi);
  ExpectBatchMatchesSingle(
      *ProteusFilter::BuildWithConfig(keys, {24, 44}, 14.0), lo, hi);
  ExpectBatchMatchesSingle(
      *ProteusFilter::BuildWithConfig(keys, {0, 48}, 14.0), lo, hi);
  ExpectBatchMatchesSingle(
      *ProteusFilter::BuildWithConfig(keys, {20, 0}, 14.0), lo, hi);
  ExpectBatchMatchesSingle(*OnePbfFilter::BuildWithConfig(keys, 48, 14.0), lo,
                           hi);
  ExpectBatchMatchesSingle(
      *TwoPbfFilter::BuildWithConfig(keys, {20, 44, 0.4}, 14.0), lo, hi);
  ExpectBatchMatchesSingle(
      *TwoPbfFilter::BuildWithConfig(keys, {0, 48, 0.5}, 14.0), lo, hi);
  ExpectBatchMatchesSingle(*RosettaFilter::BuildSelfConfigured(keys, {}, 14.0),
                           lo, hi);
  ExpectBatchMatchesSingle(*BloomIntFilter::Build(keys, 14.0), lo, hi);
}

TEST(MultiMayContain, StrBloomMatchesSingleQuery) {
  auto keys = GenerateStrKeys(StrDataset::kUniform, 20000, 12, 105);
  auto filter = BloomStrFilter::Build(keys, 14.0);
  Rng rng(106);
  const size_t total = 200;
  std::vector<std::string> storage(total);
  std::vector<std::string_view> lo(total), hi(total);
  for (size_t i = 0; i < total; ++i) {
    storage[i] = i % 3 == 0 ? keys[rng.Next() % keys.size()]
                            : GenerateStrKeys(StrDataset::kUniform, 1, 12,
                                              rng.Next())[0];
    lo[i] = storage[i];
    hi[i] = storage[i];
  }
  for (size_t n : kBatchSizes) {
    std::vector<uint8_t> scalar(n, 9), simd(n, 9);
    {
      ScopedForceScalar fs(true);
      filter->MultiMayContain(lo.data(), hi.data(), n, scalar.data());
    }
    {
      ScopedForceScalar fs(false);
      filter->MultiMayContain(lo.data(), hi.data(), n, simd.data());
    }
    for (size_t i = 0; i < n; ++i) {
      const uint8_t ref = filter->MayContain(lo[i], hi[i]) ? 1 : 0;
      ASSERT_EQ(scalar[i], ref) << "i=" << i;
      ASSERT_EQ(simd[i], ref) << "i=" << i;
    }
  }
}

TEST(MultiMayContain, StrProteusScalarAndSimdAgree) {
  // ProteusStr has no batch override, but its StrPrefixBloom range walk
  // takes the chunked multi-probe path internally — the two modes must
  // agree query by query.
  auto keys = GenerateStrKeys(StrDataset::kUniform, 20000, 12, 107);
  auto filter = ProteusStrFilter::BuildWithConfig(
      keys, ProteusStrFilter::Config{40, 72, 96}, 14.0);
  Rng rng(108);
  for (int i = 0; i < 300; ++i) {
    std::string l = i % 3 == 0
                        ? keys[rng.Next() % keys.size()]
                        : GenerateStrKeys(StrDataset::kUniform, 1, 12,
                                          rng.Next())[0];
    std::string h;
    if (!StrAddDelta(l, 12, rng.NextBelow(1 << 12), &h)) h = l;
    bool scalar, simd;
    {
      ScopedForceScalar fs(true);
      scalar = filter->MayContain(l, h);
    }
    {
      ScopedForceScalar fs(false);
      simd = filter->MayContain(l, h);
    }
    ASSERT_EQ(scalar, simd) << "i=" << i;
  }
}

TEST(MultiSeekGeq, MatchesSeekGeqAndSupportsNext) {
  auto keys = TestKeys(109);
  for (uint32_t depth : {uint32_t{12}, uint32_t{30}, uint32_t{64}}) {
    BitTrie trie;
    trie.Build(UniquePrefixes(keys, depth), depth);
    Rng rng(110 + depth);
    const uint64_t mask =
        depth == 64 ? ~uint64_t{0} : (uint64_t{1} << depth) - 1;
    for (bool force : {true, false}) {
      ScopedForceScalar fs(force);
      const size_t n = 150;
      std::vector<uint64_t> targets(n);
      for (size_t i = 0; i < n; ++i) targets[i] = rng.Next() & mask;
      targets[0] = 0;
      targets[1] = mask;  // past the largest stored value with high odds
      std::vector<BitTrie::Cursor> cursors;
      cursors.reserve(n);
      for (size_t i = 0; i < n; ++i) cursors.emplace_back(&trie);
      trie.MultiSeekGeq(targets.data(), n, cursors.data());
      for (size_t i = 0; i < n; ++i) {
        BitTrie::Cursor ref(&trie);
        bool ref_ok = ref.SeekGeq(targets[i]);
        ASSERT_EQ(cursors[i].valid(), ref_ok) << "depth=" << depth;
        // The batch-seeked cursor must be a full-fledged cursor: value
        // and several Next() steps agree with the scalar-seeked one.
        for (int step = 0; ref_ok && step < 10; ++step) {
          ASSERT_EQ(cursors[i].value(), ref.value())
              << "depth=" << depth << " step=" << step;
          const bool a = cursors[i].Next();
          ref_ok = ref.Next();
          ASSERT_EQ(a, ref_ok) << "depth=" << depth << " step=" << step;
        }
      }
    }
  }
  // Empty trie: every cursor comes back invalid.
  BitTrie empty;
  empty.Build({}, 16);
  uint64_t t = 3;
  BitTrie::Cursor cur(&empty);
  empty.MultiSeekGeq(&t, 1, &cur);
  EXPECT_FALSE(cur.valid());
}

TEST(SerializedFormat, BlobsRoundTripBitIdentically) {
  // The SIMD engine is query-side only: serialize -> parse -> serialize
  // must reproduce the exact bytes, and the revived filter must answer
  // identically.
  auto keys = TestKeys(111);
  std::vector<uint64_t> lo, hi;
  TestQueries(112, 64, &lo, &hi);
  std::vector<std::unique_ptr<Filter>> filters;
  filters.push_back(ProteusFilter::BuildWithConfig(keys, {24, 44}, 14.0));
  filters.push_back(TwoPbfFilter::BuildWithConfig(keys, {20, 44, 0.4}, 14.0));
  filters.push_back(OnePbfFilter::BuildWithConfig(keys, 48, 14.0));
  filters.push_back(RosettaFilter::BuildSelfConfigured(keys, {}, 14.0));
  filters.push_back(BloomIntFilter::Build(keys, 14.0));
  for (const auto& filter : filters) {
    std::string blob;
    filter->Serialize(&blob);
    std::string error;
    auto revived = Filter::Deserialize(blob, &error);
    ASSERT_NE(revived, nullptr) << filter->Name() << ": " << error;
    std::string blob2;
    revived->Serialize(&blob2);
    EXPECT_EQ(blob, blob2) << filter->Name();
    const auto* rf = dynamic_cast<const RangeFilter*>(revived.get());
    ASSERT_NE(rf, nullptr);
    const auto* orig = dynamic_cast<const RangeFilter*>(filter.get());
    std::vector<uint8_t> got(lo.size());
    rf->MultiMayContain(lo.data(), hi.data(), lo.size(), got.data());
    for (size_t i = 0; i < lo.size(); ++i) {
      ASSERT_EQ(got[i] != 0, orig->MayContain(lo[i], hi[i]))
          << filter->Name() << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace proteus
