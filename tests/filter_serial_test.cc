// Serialization round-trips: every filter family must survive
// Serialize -> Deserialize with bit-identical SizeBits and identical
// MayContain answers over a query sweep, and corrupt blobs must fail
// cleanly instead of crashing.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/filter_builder.h"
#include "core/filter_registry.h"
#include "lsm/filter_policy.h"
#include "surf/surf.h"  // EncodeKeyBE
#include "trie/bit_trie.h"
#include "util/bit_vector.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/queries.h"
#include "workload/string_gen.h"

namespace proteus {
namespace {

// A query sweep mixing point probes on keys, ranges around keys, and
// random (mostly empty) ranges — enough to expose any structural
// difference between the original and the restored filter.
std::vector<RangeQuery> QuerySweep(const std::vector<uint64_t>& keys,
                                   uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<RangeQuery> out;
  out.reserve(3 * n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = keys[rng.NextBelow(keys.size())];
    out.push_back({k, k});
    uint64_t width = uint64_t{1} << rng.NextBelow(16);
    out.push_back({k >= width ? k - width : 0,
                   k <= ~uint64_t{0} - width ? k + width : ~uint64_t{0}});
    uint64_t lo = rng.Next();
    out.push_back({lo, lo + rng.NextBelow(1 << 12)});
  }
  return out;
}

class IntRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IntRoundTripTest, IdenticalSizeAndAnswers) {
  const char* spec = GetParam();
  auto keys = GenerateKeys(Dataset::kNormal, 5000, 61);
  QuerySpec qspec;
  qspec.dist = QueryDist::kCorrelated;
  qspec.range_max = uint64_t{1} << 6;
  auto samples = GenerateQueries(keys, qspec, 800, 62);

  std::string error;
  auto original = FilterBuilder(keys).Sample(samples).Build(spec, &error);
  ASSERT_NE(original, nullptr) << spec << ": " << error;

  std::string blob;
  original->Serialize(&blob);
  auto restored_base = Filter::Deserialize(blob, &error);
  ASSERT_NE(restored_base, nullptr) << spec << ": " << error;
  ASSERT_EQ(restored_base->kind(), Filter::KeyKind::kInt);
  auto* restored = dynamic_cast<RangeFilter*>(restored_base.get());
  ASSERT_NE(restored, nullptr);

  EXPECT_EQ(restored->SizeBits(), original->SizeBits()) << spec;
  EXPECT_EQ(restored->Name(), original->Name()) << spec;
  EXPECT_EQ(restored->FamilyId(), original->FamilyId()) << spec;

  for (const RangeQuery& q : QuerySweep(keys, 63, 1500)) {
    ASSERT_EQ(restored->MayContain(q.lo, q.hi),
              original->MayContain(q.lo, q.hi))
        << spec << " diverged on [" << q.lo << ", " << q.hi << "]";
  }

  // Re-serializing the restored filter must reproduce the blob exactly.
  std::string blob2;
  restored->Serialize(&blob2);
  EXPECT_EQ(blob, blob2) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    AllIntFamilies, IntRoundTripTest,
    ::testing::Values("proteus:bpk=14", "proteus:trie=16,bloom=48",
                      "proteus:bpk=12,trie=20,bloom=0", "onepbf:bpk=12",
                      "twopbf:bpk=12", "twopbf:l1=12,l2=40,frac1=0.4",
                      "rosetta:bpk=14", "surf:mode=base",
                      "surf:mode=real,suffix=8", "surf:mode=hash,suffix=4",
                      "bloom:bpk=12", "onepbf:prefix=56",
                      "twopbf:l1=16,l2=48"));

class StrRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StrRoundTripTest, IdenticalSizeAndAnswers) {
  const char* spec = GetParam();
  auto keys = GenerateStrKeys(StrDataset::kDomains, 3000, 0, 64);
  StrQuerySpec qspec;
  qspec.dist = StrQueryDist::kCorrelated;
  auto samples = GenerateStrQueries(keys, qspec, 400, 65);

  std::string error;
  auto original = StrFilterBuilder(keys).Sample(samples).Build(spec, &error);
  ASSERT_NE(original, nullptr) << spec << ": " << error;

  std::string blob;
  original->Serialize(&blob);
  auto restored_base = Filter::Deserialize(blob, &error);
  ASSERT_NE(restored_base, nullptr) << spec << ": " << error;
  ASSERT_EQ(restored_base->kind(), Filter::KeyKind::kStr);
  auto* restored = dynamic_cast<StrRangeFilter*>(restored_base.get());
  ASSERT_NE(restored, nullptr);

  EXPECT_EQ(restored->SizeBits(), original->SizeBits()) << spec;
  EXPECT_EQ(restored->Name(), original->Name()) << spec;

  Rng rng(66);
  for (size_t i = 0; i < 2000; ++i) {
    const std::string& k = keys[rng.NextBelow(keys.size())];
    std::string hi = k + "zzz";
    ASSERT_EQ(restored->MayContain(k, k), original->MayContain(k, k)) << spec;
    ASSERT_EQ(restored->MayContain(k, hi), original->MayContain(k, hi))
        << spec;
    std::string random(1 + rng.NextBelow(24), '\0');
    for (char& c : random) c = static_cast<char>('a' + rng.NextBelow(26));
    std::string random_hi = random + "5";
    ASSERT_EQ(restored->MayContain(random, random_hi),
              original->MayContain(random, random_hi))
        << spec << " diverged on \"" << random << "\"";
  }

  std::string blob2;
  restored->Serialize(&blob2);
  EXPECT_EQ(blob, blob2) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    AllStrFamilies, StrRoundTripTest,
    ::testing::Values("proteus-str:bpk=14",
                      "proteus-str:trie=40,bloom=80,max_key_bits=2024",
                      "surf-str:mode=base", "surf-str:mode=real,suffix=8",
                      "bloom-str:bpk=12"));

// ---------------------------------------------------------------------------
// Component round-trips
// ---------------------------------------------------------------------------

TEST(BitVectorSerial, RoundTripsAndRejectsTruncation) {
  Rng rng(67);
  for (uint64_t n_bits : {0ull, 1ull, 63ull, 64ull, 65ull, 1000ull}) {
    BitVector bv;
    for (uint64_t i = 0; i < n_bits; ++i) bv.PushBack(rng.NextBelow(2) == 1);
    std::string blob;
    bv.AppendTo(&blob);
    std::string_view view = blob;
    BitVector parsed;
    ASSERT_TRUE(BitVector::ParseFrom(&view, &parsed)) << n_bits;
    EXPECT_TRUE(view.empty());
    EXPECT_TRUE(parsed == bv) << n_bits;
    if (!blob.empty()) {
      std::string_view cut(blob.data(), blob.size() - 1);
      EXPECT_FALSE(BitVector::ParseFrom(&cut, &parsed)) << n_bits;
    }
  }
}

TEST(BitTrieSerial, RoundTripsWithIdenticalSeeks) {
  auto keys = GenerateKeys(Dataset::kUniform, 2000, 68);
  const uint32_t depth = 24;
  BitTrie trie;
  trie.Build(UniquePrefixes(keys, depth), depth);
  std::string blob;
  trie.AppendTo(&blob);
  std::string_view view = blob;
  BitTrie parsed;
  ASSERT_TRUE(BitTrie::ParseFrom(&view, &parsed));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(parsed.SizeBits(), trie.SizeBits());
  EXPECT_EQ(parsed.depth(), trie.depth());
  EXPECT_EQ(parsed.n_values(), trie.n_values());
  Rng rng(69);
  for (size_t i = 0; i < 5000; ++i) {
    uint64_t target = rng.Next() >> (64 - depth);
    uint64_t a, b;
    bool found_a = trie.SeekGeq(target, &a);
    bool found_b = parsed.SeekGeq(target, &b);
    ASSERT_EQ(found_a, found_b);
    if (found_a) {
      ASSERT_EQ(a, b);
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption and the LSM persistence path
// ---------------------------------------------------------------------------

TEST(FilterSerial, CorruptBlobsFailCleanly) {
  auto keys = GenerateKeys(Dataset::kUniform, 1000, 70);
  auto filter = FilterBuilder(keys).Build("proteus:bpk=12");
  ASSERT_NE(filter, nullptr);
  std::string blob;
  filter->Serialize(&blob);

  std::string error;
  // Truncation at every interesting boundary.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{8}, size_t{11},
                     size_t{12}, blob.size() / 2, blob.size() - 1}) {
    EXPECT_EQ(Filter::Deserialize(std::string_view(blob.data(), cut), &error),
              nullptr)
        << cut;
    EXPECT_FALSE(error.empty()) << cut;
  }
  // Bad magic.
  std::string bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_EQ(Filter::Deserialize(bad, &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos);
  // Unsupported version.
  bad = blob;
  bad[4] ^= 0x7F;
  EXPECT_EQ(Filter::Deserialize(bad, &error), nullptr);
  EXPECT_NE(error.find("version"), std::string::npos);
  // Unknown family id.
  bad = blob;
  bad[8] = '\x7F';
  EXPECT_EQ(Filter::Deserialize(bad, &error), nullptr);
  EXPECT_NE(error.find("family"), std::string::npos);
}

TEST(FilterSerial, BlockedBloomCarriesVersionedFormat) {
  BloomFilter bf(8192, 5);
  bf.InsertInt(43);
  std::string blob;
  bf.AppendTo(&blob);
  uint64_t header[2];
  std::memcpy(header, blob.data(), 16);
  EXPECT_EQ(header[1] >> 32, 2u) << "blocked blobs must carry the format tag";

  std::string_view view = blob;
  BloomFilter parsed;
  ASSERT_TRUE(BloomFilter::ParseFrom(&view, &parsed));
  EXPECT_TRUE(parsed.MayContainInt(43));
  EXPECT_FALSE(parsed.MayContainInt(44444));

  // A format tag from the future must be rejected, not misread.
  std::string future = blob;
  future[12] = '\x7F';  // high half of header word 1
  view = future;
  EXPECT_FALSE(BloomFilter::ParseFrom(&view, &parsed));
}

TEST(FilterSerial, RetiredBlockedLayoutIsRejectedNotMisread) {
  // Two retired layouts set bits where today's independent in-block
  // positions do not look, so reading either would answer false
  // negatives; the parser must refuse both instead. Each blob is
  // hand-built the way an old writer laid it out: {n_bits, tag << 32 | k},
  // then the words, here with one key's bits set.
  //  * tag 1, the arithmetic-progression blocked layout: probe i sets bit
  //    (h2 + i * (h1 | 1)) mod 512 of the block h1 picks;
  //  * tag 0, the standard layout: probe i sets bit (h1 + i * h2) mod m.
  const uint64_t n_bits = 4 * BloomFilter::kBlockBits;
  const uint32_t k = 5;
  uint64_t h1 = 0, h2 = 0;
  BloomFilter::HashInt(43, &h1, &h2);
  auto make_blob = [&](uint64_t tag, auto&& bit_of_probe) {
    std::vector<uint64_t> words(n_bits / 64, 0);
    for (uint64_t i = 0; i < k; ++i) {
      const uint64_t bit = bit_of_probe(i);
      words[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    const uint64_t header[2] = {n_bits, tag << 32 | k};
    std::string blob(reinterpret_cast<const char*>(header), sizeof(header));
    blob.append(reinterpret_cast<const char*>(words.data()),
                words.size() * sizeof(uint64_t));
    return blob;
  };
  const uint64_t block =
      static_cast<uint64_t>((static_cast<unsigned __int128>(h1) * 4) >> 64);
  const std::string progression = make_blob(1, [&](uint64_t i) {
    return block * BloomFilter::kBlockBits +
           ((h2 + i * (h1 | 1)) & (BloomFilter::kBlockBits - 1));
  });
  const std::string standard =
      make_blob(0, [&](uint64_t i) { return (h1 + i * h2) % n_bits; });

  for (const std::string& blob : {progression, standard}) {
    std::string_view view = blob;
    BloomFilter parsed;
    EXPECT_FALSE(BloomFilter::ParseFrom(&view, &parsed));

    // The same bytes under the current tag parse (the guard is the tag,
    // not the shape), and then do miss the key: what a misread would have
    // done.
    std::string retagged = blob;
    retagged[12] = '\x02';
    view = retagged;
    ASSERT_TRUE(BloomFilter::ParseFrom(&view, &parsed));
    EXPECT_FALSE(parsed.MayContainInt(43));
  }

  // Tag 0 with no bits is the empty filter (a pure-trie Proteus's, a
  // 2PBF's without a coarse filter), which is still written with the
  // all-zero header it always had: it parses, and answers conservatively.
  std::string empty;
  BloomFilter().AppendTo(&empty);
  EXPECT_EQ(empty, std::string(16, '\0'));
  std::string_view view = empty;
  BloomFilter parsed;
  ASSERT_TRUE(BloomFilter::ParseFrom(&view, &parsed));
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(parsed.empty());
  EXPECT_TRUE(parsed.MayContainInt(43));
}

TEST(FilterSerial, HugeWireCountsAreRejectedNotAllocated) {
  // A corrupted trie depth must not reach levels_.assign (std::bad_alloc
  // would abort the process instead of failing the parse).
  auto keys = GenerateKeys(Dataset::kUniform, 500, 74);
  auto filter = FilterBuilder(keys).Build("proteus:trie=16,bloom=48");
  ASSERT_NE(filter, nullptr);
  std::string blob;
  filter->Serialize(&blob);
  // Payload layout: 12-byte header, config (2x u32), fpr flag+value
  // (u32 + double) — the trie's depth field starts at offset 32.
  std::string bad = blob;
  for (size_t i = 32; i < 36; ++i) bad[i] = '\xFF';
  std::string error;
  EXPECT_EQ(Filter::Deserialize(bad, &error), nullptr);

  // A BitVector bit count that overflows (n_bits + 63) must be rejected,
  // not accepted with an empty word array.
  std::string bv_blob(8, '\xFF');  // n_bits = 2^64 - 1, no words
  std::string_view view = bv_blob;
  BitVector bv;
  EXPECT_FALSE(BitVector::ParseFrom(&view, &bv));
}

TEST(FilterSerial, SstFilterBlocksPersistWithoutRebuilding) {
  // The LSM path: a policy-built SST filter serializes into a block and
  // reloads as an equivalent filter, keys never re-touched.
  auto int_keys = GenerateKeys(Dataset::kNormal, 4000, 71);
  std::vector<std::string> keys;
  for (uint64_t k : int_keys) keys.push_back(EncodeKeyBE(k));
  QuerySpec qspec;
  qspec.range_max = uint64_t{1} << 8;
  auto queries = GenerateQueries(int_keys, qspec, 500, 72);
  std::vector<std::pair<std::string, std::string>> samples;
  for (const auto& q : queries) {
    samples.push_back({EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)});
  }

  for (const char* spec : {"proteus:bpk=14", "surf:mode=real,suffix=4",
                           "rosetta:bpk=12", "bloom-str:bpk=12"}) {
    auto policy = MakeFilterPolicy(spec);
    ASSERT_NE(policy, nullptr) << spec;
    auto built = policy->Build(keys, samples);
    ASSERT_NE(built, nullptr) << spec;

    std::string block;
    built->Serialize(&block);
    Status status;
    auto loaded = DeserializeSstFilter(block, &status);
    ASSERT_NE(loaded, nullptr) << spec << ": " << status.ToString();
    EXPECT_EQ(loaded->SizeBits(), built->SizeBits()) << spec;

    Rng rng(73);
    for (size_t i = 0; i < 1500; ++i) {
      uint64_t lo = rng.Next();
      uint64_t hi = lo + rng.NextBelow(1 << 10);
      std::string slo = EncodeKeyBE(lo), shi = EncodeKeyBE(hi);
      ASSERT_EQ(loaded->MayContain(slo, shi), built->MayContain(slo, shi))
          << spec;
      const std::string& k = keys[rng.NextBelow(keys.size())];
      ASSERT_EQ(loaded->MayContain(k, k), built->MayContain(k, k)) << spec;
    }
  }
}

}  // namespace
}  // namespace proteus
