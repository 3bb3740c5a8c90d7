// The unified filter API: spec-string parsing (including malformed-spec
// error paths), registry lookup and creation for every family, and the
// FilterBuilder Sample() -> Design() -> Build() flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/filter_builder.h"
#include "core/filter_registry.h"
#include "core/filter_spec.h"
#include "core/proteus.h"
#include "core/two_pbf.h"
#include "lsm/filter_policy.h"
#include "workload/datasets.h"
#include "workload/queries.h"
#include "workload/string_gen.h"

namespace proteus {
namespace {

// ---------------------------------------------------------------------------
// FilterSpec parsing
// ---------------------------------------------------------------------------

TEST(FilterSpec, ParsesFamilyOnly) {
  FilterSpec spec;
  ASSERT_TRUE(FilterSpec::Parse("proteus", &spec));
  EXPECT_EQ(spec.family(), "proteus");
  EXPECT_TRUE(spec.params().empty());
  EXPECT_EQ(spec.ToString(), "proteus");
}

TEST(FilterSpec, ParsesParameters) {
  FilterSpec spec;
  ASSERT_TRUE(FilterSpec::Parse("surf:mode=real,suffix=8", &spec));
  EXPECT_EQ(spec.family(), "surf");
  EXPECT_EQ(spec.GetString("mode", ""), "real");
  uint32_t suffix = 0;
  EXPECT_TRUE(spec.GetUint32("suffix", 0, &suffix));
  EXPECT_EQ(suffix, 8u);
  EXPECT_EQ(spec.ToString(), "surf:mode=real,suffix=8");
}

TEST(FilterSpec, TypedGettersReturnDefaultsWhenAbsent) {
  FilterSpec spec;
  ASSERT_TRUE(FilterSpec::Parse("proteus", &spec));
  double bpk = 0;
  EXPECT_TRUE(spec.GetDouble("bpk", 12.5, &bpk));
  EXPECT_DOUBLE_EQ(bpk, 12.5);
  uint32_t trie = 7;
  EXPECT_TRUE(spec.GetUint32("trie", 3, &trie));
  EXPECT_EQ(trie, 3u);
}

TEST(FilterSpec, MalformedSpecsAreRejectedWithMessages) {
  const char* bad[] = {
      "",                    // empty
      ":bpk=12",             // empty family
      "proteus:",            // dangling colon
      "proteus:bpk",         // parameter without '='
      "proteus:=12",         // empty key
      "proteus:bpk=1,bpk=2", // duplicate key
  };
  for (const char* spec_str : bad) {
    FilterSpec spec;
    std::string error;
    EXPECT_FALSE(FilterSpec::Parse(spec_str, &spec, &error)) << spec_str;
    EXPECT_FALSE(error.empty()) << spec_str;
  }
}

TEST(FilterSpec, MalformedValuesFailTypedGetters) {
  FilterSpec spec;
  ASSERT_TRUE(FilterSpec::Parse("proteus:bpk=fast,trie=-4", &spec));
  double bpk;
  std::string error;
  EXPECT_FALSE(spec.GetDouble("bpk", 12, &bpk, &error));
  EXPECT_NE(error.find("bpk=fast"), std::string::npos);
  uint32_t trie;
  EXPECT_FALSE(spec.GetUint32("trie", 0, &trie, &error));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(FilterRegistry, AllBuiltinFamiliesAreRegistered) {
  auto names = FilterRegistry::Global().FamilyNames();
  for (const char* expected :
       {"proteus", "onepbf", "twopbf", "rosetta", "surf", "surf-str",
        "proteus-str", "bloom", "bloom-str"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(FilterRegistry, AliasesResolve) {
  const auto& registry = FilterRegistry::Global();
  EXPECT_EQ(registry.Find("1pbf"), registry.Find("onepbf"));
  EXPECT_EQ(registry.Find("2pbf"), registry.Find("twopbf"));
  EXPECT_EQ(registry.Find("nonexistent"), nullptr);
}

TEST(FilterRegistry, DuplicateRegistrationIsRejected) {
  FilterFamily dup;
  dup.name = "proteus";
  EXPECT_FALSE(FilterRegistry::Global().Register(std::move(dup)));
  FilterFamily dup_id;
  dup_id.name = "proteus-duplicate-id";
  dup_id.family_id = ProteusFilter::kFamilyId;
  EXPECT_FALSE(FilterRegistry::Global().Register(std::move(dup_id)));
}

TEST(FilterRegistry, EveryIntFamilyIsConstructibleFromSpecStrings) {
  auto keys = GenerateKeys(Dataset::kUniform, 4000, 51);
  QuerySpec qspec;
  qspec.range_max = uint64_t{1} << 8;
  auto samples = GenerateQueries(keys, qspec, 500, 52);
  for (const char* spec :
       {"proteus:bpk=12", "onepbf:bpk=12", "twopbf:bpk=12", "rosetta:bpk=12",
        "surf:mode=real,suffix=8", "bloom:bpk=12", "1pbf:bpk=10",
        "proteus:trie=16,bloom=48"}) {
    std::string error;
    auto filter = FilterBuilder(keys).Sample(samples).Build(spec, &error);
    ASSERT_NE(filter, nullptr) << spec << ": " << error;
    EXPECT_GT(filter->SizeBits(), 0u) << spec;
    // Sanity: a range centered on a key is always positive.
    EXPECT_TRUE(filter->MayContain(keys[100], keys[100]));
  }
}

TEST(FilterRegistry, EveryStrFamilyIsConstructibleFromSpecStrings) {
  auto keys = GenerateStrKeys(StrDataset::kDomains, 2000, 0, 53);
  for (const char* spec :
       {"proteus-str:bpk=14", "surf-str:mode=real,suffix=8",
        "bloom-str:bpk=12"}) {
    std::string error;
    auto filter = StrFilterBuilder(keys).Build(spec, &error);
    ASSERT_NE(filter, nullptr) << spec << ": " << error;
    EXPECT_TRUE(filter->MayContain(keys[10], keys[10])) << spec;
  }
}

TEST(FilterRegistry, ProteusStrTrieGridIsExposedInSpecStrings) {
  auto keys = GenerateStrKeys(StrDataset::kDomains, 2000, 0, 57);
  StrQuerySpec qspec;
  auto samples = GenerateStrQueries(keys, qspec, 500, 58);
  // A coarser trie grid is a legal self-design knob: the filter still
  // builds and answers member ranges positively.
  for (const char* spec :
       {"proteus-str:bpk=14,trie_grid=8",
        "proteus-str:bpk=14,stride=4,trie_grid=16"}) {
    std::string error;
    auto filter = StrFilterBuilder(keys).Sample(samples).Build(spec, &error);
    ASSERT_NE(filter, nullptr) << spec << ": " << error;
    EXPECT_GT(filter->SizeBits(), 0u) << spec;
    EXPECT_TRUE(filter->MayContain(keys[10], keys[10])) << spec;
  }
  // Malformed values fail at build time with a message, like every other
  // spec parameter.
  std::string error;
  auto filter = StrFilterBuilder(keys).Sample(samples).Build(
      "proteus-str:bpk=14,trie_grid=coarse", &error);
  EXPECT_EQ(filter, nullptr);
  EXPECT_NE(error.find("not an unsigned integer"), std::string::npos)
      << error;
}

TEST(FilterRegistry, BadSpecsFailWithErrors) {
  auto keys = GenerateKeys(Dataset::kUniform, 500, 54);
  struct Case {
    const char* spec;
    const char* needle;  // substring expected in the error message
  } cases[] = {
      {"nosuchfamily:bpk=1", "unknown filter family"},
      {"proteus:bogus=1", "unknown parameter"},
      {"proteus:bpk=fast", "not a number"},
      {"proteus:bpk=-2", "positive"},
      {"surf:mode=weird", "mode"},
      {"surf:suffix=99", "<= 64"},
      {"twopbf:l1=8,l2=16,frac1=1.5", "frac1"},
      {"onepbf:prefix=65", "[1, 64]"},
      {"proteus:trie=70,bloom=48", "<= 64"},
      {"twopbf:l1=12,l2=80", "l1/l2"},
      {"proteus-str:bpk=12", "no integer-key builder"},
      {"", "empty filter spec"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto filter = FilterBuilder(keys).Build(c.spec, &error);
    EXPECT_EQ(filter, nullptr) << c.spec;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.spec << " -> " << error;
  }
  // String side: an int-only family through StrFilterBuilder.
  std::string error;
  auto filter =
      StrFilterBuilder(GenerateStrKeys(StrDataset::kDomains, 100, 0, 55))
          .Build("proteus:bpk=12", &error);
  EXPECT_EQ(filter, nullptr);
  EXPECT_NE(error.find("no string-key builder"), std::string::npos);
}

TEST(FilterRegistry, ForcedConfigurationsAreHonored) {
  auto keys = GenerateKeys(Dataset::kNormal, 3000, 56);
  auto filter = FilterBuilder(keys).Build("proteus:trie=16,bloom=48");
  ASSERT_NE(filter, nullptr);
  auto* proteus = dynamic_cast<ProteusFilter*>(filter.get());
  ASSERT_NE(proteus, nullptr);
  EXPECT_EQ(proteus->config().trie_depth, 16u);
  EXPECT_EQ(proteus->config().bf_prefix_len, 48u);
  EXPECT_FALSE(proteus->modeled_fpr().has_value());

  auto two = FilterBuilder(keys).Build("2pbf:l1=12,l2=32,frac1=0.3");
  ASSERT_NE(two, nullptr);
  auto* two_pbf = dynamic_cast<TwoPbfFilter*>(two.get());
  ASSERT_NE(two_pbf, nullptr);
  EXPECT_EQ(two_pbf->config().l1, 12u);
  EXPECT_EQ(two_pbf->config().l2, 32u);
  EXPECT_DOUBLE_EQ(two_pbf->config().frac1, 0.3);
}

// ---------------------------------------------------------------------------
// FilterBuilder flow
// ---------------------------------------------------------------------------

TEST(FilterBuilder, ModelIsSharedAcrossFamiliesAndBudgets) {
  auto keys = GenerateKeys(Dataset::kUniform, 8000, 57);
  QuerySpec qspec;
  qspec.dist = QueryDist::kCorrelated;
  qspec.range_max = uint64_t{1} << 6;
  auto samples = GenerateQueries(keys, qspec, 1000, 58);

  FilterBuilder builder(keys);
  builder.Sample(samples);
  const CpfprModel* model = builder.DesignOrNull();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model, builder.DesignOrNull());  // cached, not recomputed

  // A budget sweep through one builder matches fresh per-budget builds.
  for (double bpk : {8.0, 12.0, 16.0}) {
    std::string spec = "proteus:bpk=" + std::to_string(bpk);
    auto swept = builder.Build(spec);
    auto fresh = FilterBuilder(keys).Sample(samples).Build(spec);
    ASSERT_NE(swept, nullptr);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(swept->SizeBits(), fresh->SizeBits()) << spec;
    EXPECT_EQ(swept->Name(), fresh->Name()) << spec;
  }
}

TEST(FilterBuilder, NoSamplesFallsBackToPointFilteringDesigns) {
  auto keys = GenerateKeys(Dataset::kUniform, 2000, 59);
  FilterBuilder builder(keys);
  EXPECT_EQ(builder.DesignOrNull(), nullptr);
  auto filter = builder.Build("proteus:bpk=12");
  ASSERT_NE(filter, nullptr);
  auto* proteus = dynamic_cast<ProteusFilter*>(filter.get());
  ASSERT_NE(proteus, nullptr);
  // No workload signal: full-key prefix Bloom filter.
  EXPECT_EQ(proteus->config().trie_depth, 0u);
  EXPECT_EQ(proteus->config().bf_prefix_len, 64u);
}

// ---------------------------------------------------------------------------
// LSM policy layer
// ---------------------------------------------------------------------------

TEST(MakeFilterPolicy, SpecStringsSelectEveryFamily) {
  for (const char* spec :
       {"none", "bloom-str:bpk=12", "proteus:bpk=14",
        "surf:mode=real,suffix=4", "rosetta:bpk=12",
        "proteus-str:bpk=14,max_key_bits=256,stride=4"}) {
    Status status;
    auto policy = MakeFilterPolicy(spec, &status);
    ASSERT_NE(policy, nullptr) << spec << ": " << status.ToString();
  }
}

TEST(MakeFilterPolicy, BadSpecsFailAtCreationTime) {
  for (const char* spec :
       {"nosuch:bpk=1", "proteus:bpk=fast", "proteus:bogus=3",
        "none:bpk=12", "surf:mode=weird", "", "proteus-str:bogus=1",
        "bloom-str:bpk=fast"}) {
    Status status;
    auto policy = MakeFilterPolicy(spec, &status);
    EXPECT_EQ(policy, nullptr) << spec;
    EXPECT_TRUE(status.IsInvalidArgument()) << spec;
  }
  // Every Bloom filter is cache-line blocked: the key that once chose the
  // layout is unknown to each of the seven Bloom-backed grammars.
  for (const char* spec :
       {"bloom:blocked=1", "bloom-str:blocked=1", "onepbf:blocked=1",
        "twopbf:blocked=1", "proteus:bpk=14,blocked=0",
        "proteus-str:blocked=1", "rosetta:blocked=1"}) {
    Status status;
    EXPECT_EQ(MakeFilterPolicy(spec, &status), nullptr) << spec;
    EXPECT_TRUE(status.IsInvalidArgument()) << spec;
    EXPECT_NE(status.ToString().find("\"blocked\""), std::string::npos)
        << spec << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace proteus
