// Integration tests for the miniLSM engine: differential testing against
// std::map across randomized put/seek/flush/compaction schedules, filter
// integration, compaction shape, and workload-adaptive filter rebuilds.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

DbOptions SmallDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_db_test_" + name;
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 256 << 10;
  options.level_size_multiplier = 4.0;
  return options;
}

TEST(DbTest, DifferentialAgainstMap) {
  auto [db, st] = Db::Create(SmallDbOptions("diff"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::map<std::string, std::string> ref;
  Rng rng(11);
  for (int op = 0; op < 30000; ++op) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(100) < 70) {
      // Values are padded so the workload spans many flushes/compactions.
      std::string value = "v" + std::to_string(op) + std::string(120, 'p');
      ASSERT_TRUE(db->Put(key, value).ok());
      ref[key] = value;
    } else {
      uint64_t span = rng.NextBelow(10000);
      std::string lo = EncodeKeyBE(k > span ? k - span : 0);
      std::string hi = EncodeKeyBE(k + span);
      SeekResult r = db->Seek(lo, hi);
      ASSERT_TRUE(r.status.ok()) << "op " << op << ": " << r.status.ToString();
      auto it = ref.lower_bound(lo);
      bool ref_found = it != ref.end() && it->first <= hi;
      ASSERT_EQ(r.found, ref_found) << "op " << op;
      if (r.found) {
        ASSERT_EQ(r.key, it->first) << "op " << op;
        ASSERT_EQ(r.value, it->second) << "op " << op;
      }
    }
  }
  db->WaitForBackground();
  EXPECT_GT(db->stats().flushes, 5u);
  EXPECT_GT(db->stats().compactions, 0u);
}

TEST(DbTest, OverwritesReturnNewestValue) {
  auto [db, st] = Db::Create(SmallDbOptions("overwrite"));
  ASSERT_TRUE(st.ok());
  std::string key = EncodeKeyBE(42);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(db->Put(key, "round" + std::to_string(round)).ok());
    ASSERT_TRUE(db->Flush().ok());  // spread versions across many SSTs
  }
  SeekResult r = db->Seek(key, key);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "round9");
  ASSERT_TRUE(db->CompactAll().ok());
  r = db->Seek(key, key);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "round9");
}

TEST(DbTest, CompactionShapesLevels) {
  auto [db, st] = Db::Create(SmallDbOptions("levels"));
  ASSERT_TRUE(st.ok());
  Rng rng(12);
  std::string value(256, 'x');
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(rng.Next()), value).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  auto counts = db->LevelFileCounts();
  EXPECT_EQ(counts[0], 0u);  // CompactAll drains L0
  EXPECT_GT(counts[1] + counts[2] + counts[3], 0u);
  // Non-overlapping invariant within levels >= 1 is exercised implicitly:
  // differential seeks above would fail if broken. Sanity-check sizes.
  for (size_t level = 1; level < counts.size(); ++level) {
    if (counts[level] == 0) continue;
    EXPECT_GT(db->TotalSstBytes(), 0u);
  }
}

TEST(DbTest, FiltersCutSstProbes) {
  // Same workload with and without Proteus filters: the filtered DB must
  // probe far fewer SSTs on empty seeks.
  auto keys = GenerateKeys(Dataset::kUniform, 20000, 13);
  QuerySpec spec;
  spec.dist = QueryDist::kUniform;
  spec.range_max = uint64_t{1} << 8;
  auto queries = GenerateQueries(keys, spec, 3000, 14);

  auto run = [&](std::shared_ptr<FilterPolicy> policy, const char* name) {
    auto options = SmallDbOptions(std::string("probes_") + name);
    options.filter_policy = std::move(policy);
    auto [db, st] = Db::Create(options);
    EXPECT_TRUE(st.ok());
    // Seed the queue so flush-time filters know the workload.
    std::vector<std::pair<std::string, std::string>> seed;
    for (size_t i = 0; i < 500; ++i) {
      seed.push_back({EncodeKeyBE(queries[i].lo), EncodeKeyBE(queries[i].hi)});
    }
    db->query_queue().Seed(seed);
    std::string value(64, 'v');
    for (uint64_t k : keys) EXPECT_TRUE(db->Put(EncodeKeyBE(k), value).ok());
    EXPECT_TRUE(db->CompactAll().ok());
    db->ResetStats();
    for (const auto& q : queries) {
      SeekResult r = db->Seek(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi));
      EXPECT_FALSE(r.found);  // queries are empty by construction
    }
    return db->stats();
  };

  DbStats no_filter = run(nullptr, "none");
  DbStats with_filter = run(MakeFilterPolicy("proteus:bpk=14"), "proteus");
  EXPECT_EQ(no_filter.sst_seeks, no_filter.filter_checks);
  EXPECT_LT(with_filter.sst_seeks, no_filter.sst_seeks / 5)
      << "filtered=" << with_filter.sst_seeks
      << " unfiltered=" << no_filter.sst_seeks;
}

TEST(DbTest, NoFalseNegativesThroughFilters) {
  // Seeks for present keys must always find them, whatever the policy.
  auto keys = GenerateKeys(Dataset::kNormal, 5000, 15);
  for (auto make : {+[]() { return MakeFilterPolicy("proteus:bpk=12"); },
                    +[]() { return MakeFilterPolicy("surf:mode=real,suffix=4"); },
                    +[]() { return MakeFilterPolicy("rosetta:bpk=12"); },
                    +[]() { return MakeFilterPolicy("bloom-str:bpk=12"); }}) {
    auto options = SmallDbOptions("nofn");
    options.filter_policy = make();
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    std::string value(32, 'v');
    for (uint64_t k : keys) ASSERT_TRUE(db->Put(EncodeKeyBE(k), value).ok());
    ASSERT_TRUE(db->CompactAll().ok());
    Rng rng(16);
    for (int i = 0; i < 1500; ++i) {
      uint64_t k = keys[rng.NextBelow(keys.size())];
      SeekResult r = db->Seek(EncodeKeyBE(k), EncodeKeyBE(k));
      ASSERT_TRUE(r.found) << "policy lost key " << k;
      ASSERT_EQ(r.key, EncodeKeyBE(k));
    }
  }
}

TEST(DbTest, QueryQueueFeedsFilterConstruction) {
  auto options = SmallDbOptions("queue");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  options.queue_options.sample_rate = 1;  // record every empty query
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  auto keys = GenerateKeys(Dataset::kUniform, 3000, 17);
  std::string value(32, 'v');
  for (uint64_t k : keys) ASSERT_TRUE(db->Put(EncodeKeyBE(k), value).ok());
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 4;
  spec.corr_degree = uint64_t{1} << 8;
  auto queries = GenerateQueries(keys, spec, 2000, 18);
  for (const auto& q : queries) {
    db->Seek(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi));
  }
  EXPECT_GT(db->query_queue().size(), 1000u);
  // A flush now builds filters from the recorded workload.
  ASSERT_TRUE(db->Put(EncodeKeyBE(keys[0]), value).ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GT(db->stats().filter_bits_built, 0u);
}

TEST(DbTest, BlockCacheServesRepeatedReads) {
  auto [db, st] = Db::Create(SmallDbOptions("cache"));
  ASSERT_TRUE(st.ok());
  std::string value(128, 'v');
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(i * 3), value).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  db->cache().ResetStats();
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 200; ++i) {
      db->Seek(EncodeKeyBE(i * 3), EncodeKeyBE(i * 3));
    }
  }
  const auto& stats = db->cache().stats();
  EXPECT_GT(stats.hits, stats.misses)
      << "hits=" << stats.hits << " misses=" << stats.misses;
}

TEST(DbTest, EmptySeekRecordsQueue) {
  auto options = SmallDbOptions("record");
  options.queue_options.sample_rate = 1;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(db->Put(EncodeKeyBE(100), "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_FALSE(
        db->Seek(EncodeKeyBE(200 + i * 10), EncodeKeyBE(205 + i * 10)).found);
  }
  EXPECT_EQ(db->query_queue().size(), 50u);
  EXPECT_EQ(db->stats().empty_seeks, 50u);
}

}  // namespace
}  // namespace proteus
