// The batched query engine: scheduler registry + plan properties,
// randomized MultiSeek ≡ sequential-Seek equivalence (tombstones,
// filters, across reopen), per-batch stats, and the sample-queue feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "engine/scheduler.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

DbOptions SmallDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_engine_test_" + name;
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 256 << 10;
  options.level_size_multiplier = 4.0;
  return options;
}

QueryBatch RandomBatch(Rng& rng, size_t n) {
  QueryBatch batch;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    uint64_t span = rng.NextBelow(8000);
    batch.push_back({EncodeKeyBE(k > span ? k - span : 0),
                     EncodeKeyBE(k + span)});
  }
  return batch;
}

// --- scheduler registry + plan properties ---

TEST(SchedulerTest, RegistryResolvesFamiliesAndAliases) {
  auto& registry = SchedulerRegistry::Global();
  for (const char* spec : {"fifo", "sorted", "key-sorted", "grouped",
                           "per-sst"}) {
    std::string error;
    auto scheduler = registry.Create(spec, &error);
    ASSERT_NE(scheduler, nullptr) << spec << ": " << error;
  }
  std::string error;
  EXPECT_EQ(registry.Create("no-such-scheduler", &error), nullptr);
  EXPECT_NE(error.find("unknown scheduler"), std::string::npos) << error;
  // The builtins take no parameters.
  EXPECT_EQ(registry.Create("sorted:foo=1", &error), nullptr);
}

TEST(SchedulerTest, PlansArePermutations) {
  Rng rng(17);
  QueryBatch batch = RandomBatch(rng, 100);
  ScheduleContext context;
  for (int i = 0; i < 8; ++i) {
    context.file_boundaries.push_back(EncodeKeyBE(i * 600000));
  }
  for (const char* spec : {"fifo", "sorted", "grouped"}) {
    auto scheduler = SchedulerRegistry::Global().Create(spec);
    ASSERT_NE(scheduler, nullptr);
    std::vector<uint32_t> order;
    scheduler->Plan(batch, context, &order);
    ASSERT_EQ(order.size(), batch.size()) << spec;
    std::vector<uint32_t> sorted_order = order;
    std::sort(sorted_order.begin(), sorted_order.end());
    for (uint32_t i = 0; i < sorted_order.size(); ++i) {
      ASSERT_EQ(sorted_order[i], i) << spec << " is not a permutation";
    }
  }
}

TEST(SchedulerTest, FifoKeepsArrivalOrder) {
  Rng rng(18);
  QueryBatch batch = RandomBatch(rng, 50);
  auto scheduler = SchedulerRegistry::Global().Create("fifo");
  std::vector<uint32_t> order;
  scheduler->Plan(batch, ScheduleContext(), &order);
  for (uint32_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, SortedOrdersByLowerBound) {
  Rng rng(19);
  QueryBatch batch = RandomBatch(rng, 200);
  auto scheduler = SchedulerRegistry::Global().Create("sorted");
  std::vector<uint32_t> order;
  scheduler->Plan(batch, ScheduleContext(), &order);
  ASSERT_EQ(order.size(), batch.size());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(batch[order[i - 1]].lo, batch[order[i]].lo);
  }
}

TEST(SchedulerTest, GroupedClustersByFileThenSortsByKey) {
  Rng rng(20);
  QueryBatch batch = RandomBatch(rng, 200);
  ScheduleContext context;
  for (int i = 0; i < 10; ++i) {
    context.file_boundaries.push_back(EncodeKeyBE(i * 500000));
  }
  auto bucket_of = [&](const StrRangeQuery& q) {
    auto it = std::upper_bound(context.file_boundaries.begin(),
                               context.file_boundaries.end(), q.lo);
    return it == context.file_boundaries.begin()
               ? 0
               : static_cast<int>(it - context.file_boundaries.begin()) - 1;
  };
  auto scheduler = SchedulerRegistry::Global().Create("grouped");
  std::vector<uint32_t> order;
  scheduler->Plan(batch, context, &order);
  ASSERT_EQ(order.size(), batch.size());
  for (size_t i = 1; i < order.size(); ++i) {
    const auto& prev = batch[order[i - 1]];
    const auto& cur = batch[order[i]];
    ASSERT_LE(bucket_of(prev), bucket_of(cur)) << "buckets out of order";
    if (bucket_of(prev) == bucket_of(cur)) {
      EXPECT_LE(prev.lo, cur.lo) << "keys out of order within a bucket";
    }
  }
  // Without layout hints, grouped degrades to key order.
  scheduler->Plan(batch, ScheduleContext(), &order);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(batch[order[i - 1]].lo, batch[order[i]].lo);
  }
}

// --- MultiSeek ≡ Seek ---

// Runs random batches against a DB and asserts MultiSeek's results equal
// a sequential Seek loop's, for every builtin scheduler.
void CheckEquivalence(Db& db, Rng& rng, int batches, size_t batch_size) {
  std::vector<std::string> specs = {"fifo", "sorted", "grouped"};
  for (int round = 0; round < batches; ++round) {
    QueryBatch batch = RandomBatch(rng, batch_size);
    std::vector<std::vector<MultiSeekResult>> all(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      auto scheduler = SchedulerRegistry::Global().Create(specs[s]);
      ASSERT_NE(scheduler, nullptr);
      db.MultiSeek(batch, *scheduler, &all[s]);
      ASSERT_EQ(all[s].size(), batch.size());
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      SeekResult seq = db.Seek(batch[i].lo, batch[i].hi);
      for (size_t s = 0; s < specs.size(); ++s) {
        const MultiSeekResult& r = all[s][i];
        ASSERT_EQ(r.found, seq.found)
            << specs[s] << " round " << round << " query " << i;
        ASSERT_EQ(r.status.ok(), seq.status.ok()) << specs[s];
        if (seq.found) {
          ASSERT_EQ(r.key, seq.key) << specs[s] << " query " << i;
          ASSERT_EQ(r.value, seq.value) << specs[s] << " query " << i;
        }
      }
    }
  }
}

void FillRandom(Db& db, Rng& rng, int ops, double delete_frac) {
  for (int op = 0; op < ops; ++op) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(1000) < static_cast<uint64_t>(delete_frac * 1000)) {
      ASSERT_TRUE(db.Delete(key).ok());
    } else {
      std::string value = "v" + std::to_string(op) + std::string(40, 'e');
      ASSERT_TRUE(db.Put(key, value).ok());
    }
    if (op % 2500 == 2499) {
      ASSERT_TRUE(db.Flush().ok());
    }
  }
}

TEST(MultiSeekTest, MatchesSeekWithoutFilters) {
  auto [db, st] = Db::Create(SmallDbOptions("plain"));
  ASSERT_TRUE(st.ok());
  Rng rng(21);
  FillRandom(*db, rng, 12000, 0.2);
  CheckEquivalence(*db, rng, 20, 64);
}

TEST(MultiSeekTest, MatchesSeekWithFilters) {
  auto options = SmallDbOptions("filtered");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(22);
  FillRandom(*db, rng, 12000, 0.2);
  CheckEquivalence(*db, rng, 20, 64);
}

TEST(MultiSeekTest, MatchesSeekAfterCompactionAndReopen) {
  auto options = SmallDbOptions("reopen");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    Rng rng(23);
    FillRandom(*db, rng, 12000, 0.25);
    ASSERT_TRUE(db->CompactAll().ok());
    CheckEquivalence(*db, rng, 10, 64);
  }
  auto [db, status] = Db::Open(options);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Rng rng(24);
  CheckEquivalence(*db, rng, 10, 64);
}

TEST(MultiSeekTest, MatchesSeekAgainstReferenceMap) {
  // Differential check with a model map, so MultiSeek is validated
  // against ground truth and not just against Seek.
  auto options = SmallDbOptions("refmap");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  std::map<std::string, std::string> ref;
  Rng rng(25);
  for (int op = 0; op < 12000; ++op) {
    uint64_t k = rng.NextBelow(4000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(10) < 2) {
      ASSERT_TRUE(db->Delete(key).ok());
      ref.erase(key);
    } else {
      std::string value = "v" + std::to_string(op) + std::string(40, 'm');
      ASSERT_TRUE(db->Put(key, value).ok());
      ref[key] = value;
    }
  }
  auto scheduler = SchedulerRegistry::Global().Create("sorted");
  for (int round = 0; round < 20; ++round) {
    QueryBatch batch = RandomBatch(rng, 64);
    std::vector<MultiSeekResult> results;
    db->MultiSeek(batch, *scheduler, &results);
    for (size_t i = 0; i < batch.size(); ++i) {
      auto it = ref.lower_bound(batch[i].lo);
      bool ref_found = it != ref.end() && it->first <= batch[i].hi;
      ASSERT_EQ(results[i].found, ref_found) << "query " << i;
      if (ref_found) {
        ASSERT_EQ(results[i].key, it->first);
        ASSERT_EQ(results[i].value, it->second);
      }
    }
  }
}

TEST(MultiSeekTest, EmptyAndSingletonBatches) {
  auto [db, st] = Db::Create(SmallDbOptions("edge"));
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(db->Put(EncodeKeyBE(100), "x").ok());
  auto scheduler = SchedulerRegistry::Global().Create("sorted");
  std::vector<MultiSeekResult> results;
  db->MultiSeek({}, *scheduler, &results);
  EXPECT_TRUE(results.empty());
  db->MultiSeek({{EncodeKeyBE(50), EncodeKeyBE(150)}}, *scheduler, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].found);
  EXPECT_EQ(results[0].key, EncodeKeyBE(100));
  EXPECT_EQ(results[0].value, "x");
}

// --- MultiSeek books exactly Seek's costs ---

struct ReadCosts {
  uint64_t filter_checks, filter_negatives, sst_seeks, false_positive_files;
  std::map<uint64_t, std::vector<uint64_t>> per_file;  // checks, probes, fps
};

ReadCosts TakeReadCosts(const Db& db) {
  const DbStats s = db.stats();
  ReadCosts c{s.filter_checks, s.filter_negatives, s.sst_seeks,
              s.false_positive_files, {}};
  for (const auto& info : db.DesignInfo()) {
    c.per_file[info.file_id] = {info.checks, info.probes,
                                info.false_positives};
  }
  return c;
}

// after - before, counter by counter (the file set is fixed).
ReadCosts CostDelta(const ReadCosts& before, const ReadCosts& after) {
  ReadCosts d{after.filter_checks - before.filter_checks,
              after.filter_negatives - before.filter_negatives,
              after.sst_seeks - before.sst_seeks,
              after.false_positive_files - before.false_positive_files,
              {}};
  for (const auto& [id, counts] : after.per_file) {
    const auto& old = before.per_file.at(id);
    d.per_file[id] = {counts[0] - old[0], counts[1] - old[1],
                      counts[2] - old[2]};
  }
  return d;
}

TEST(MultiSeekTest, BooksTheSameCostsAsSeekAcrossTombstoneRuns) {
  // Values in sorted levels and in an older L0 file, tombstone runs in a
  // newer L0 file: the answers walk past deleted keys, and a batch must
  // consult every filter, probe every SST and charge every false
  // positive exactly as often as the same queries issued one by one.
  auto options = SmallDbOptions("parity");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  options.memtable_bytes = 1 << 20;
  options.sst_target_bytes = 32 << 10;
  options.adaptive_redesign = false;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  const uint64_t kKeys = 6000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k * 1000), "base" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  for (uint64_t k = 0; k < kKeys; k += 3) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k * 1000), "l0-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  for (uint64_t k = 0; k < kKeys; ++k) {
    if ((k / 8) % 4 == 0) {
      ASSERT_TRUE(db->Delete(EncodeKeyBE(k * 1000)).ok());
    }
  }
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForBackground();
  size_t l0_files = 0, level_files = 0;
  for (const auto& info : db->DesignInfo()) {
    (info.level == 0 ? l0_files : level_files) += 1;
  }
  ASSERT_EQ(l0_files, 2u) << "the tree must keep both L0 files";
  ASSERT_GT(level_files, 2u);

  Rng rng(27);
  QueryBatch batch = RandomBatch(rng, 96);
  for (uint64_t run = 0; run < kKeys; run += 32 * 7) {
    // Starts on a tombstone run; the answer lies past its end.
    batch.push_back({EncodeKeyBE(run * 1000), EncodeKeyBE((run + 20) * 1000)});
  }

  for (const char* spec : {"fifo", "sorted", "grouped"}) {
    auto scheduler = SchedulerRegistry::Global().Create(spec);
    ASSERT_NE(scheduler, nullptr);
    const ReadCosts start = TakeReadCosts(*db);
    std::vector<MultiSeekResult> results;
    db->MultiSeek(batch, *scheduler, &results);
    const ReadCosts mid = TakeReadCosts(*db);
    for (size_t i = 0; i < batch.size(); ++i) {
      SeekResult r = db->Seek(batch[i].lo, batch[i].hi);
      ASSERT_EQ(results[i].found, r.found) << spec << " query " << i;
      ASSERT_EQ(results[i].key, r.key) << spec << " query " << i;
    }
    const ReadCosts batched = CostDelta(start, mid);
    const ReadCosts single = CostDelta(mid, TakeReadCosts(*db));
    EXPECT_GT(single.false_positive_files + single.filter_negatives, 0u);
    EXPECT_EQ(batched.filter_checks, single.filter_checks) << spec;
    EXPECT_EQ(batched.filter_negatives, single.filter_negatives) << spec;
    EXPECT_EQ(batched.sst_seeks, single.sst_seeks) << spec;
    EXPECT_EQ(batched.false_positive_files, single.false_positive_files)
        << spec;
    for (const auto& [id, counts] : single.per_file) {
      EXPECT_EQ(batched.per_file.at(id), counts)
          << spec << " file " << id << " (checks, probes, false positives)";
    }
  }
}

// --- sample-queue feed + stats ---

TEST(MultiSeekTest, EmptyQueriesFeedTheSampleQueue) {
  auto options = SmallDbOptions("queue");
  options.queue_options.sample_rate = 10;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k * 1000000), "v").ok());
  }
  auto scheduler = SchedulerRegistry::Global().Create("sorted");
  QueryBatch batch;
  for (uint64_t i = 0; i < 100; ++i) {
    // Between keys: all empty.
    batch.push_back({EncodeKeyBE(i * 1000000 + 10), EncodeKeyBE(i * 1000000 + 20)});
  }
  std::vector<MultiSeekResult> results;
  db->MultiSeek(batch, *scheduler, &results);
  for (const auto& r : results) ASSERT_FALSE(r.found);
  const DbStats s = db->stats();
  EXPECT_EQ(s.seeks, 100u);
  EXPECT_EQ(s.empty_seeks, 100u);
  // sample_rate=10: every 10th empty query lands in the queue.
  EXPECT_EQ(s.queue_sampled, 10u);
  EXPECT_EQ(db->query_queue().Snapshot().size(), 10u);
  EXPECT_EQ(db->query_queue().seen(), 100u);
}

TEST(QueryEngineTest, ReportsBatchStats) {
  auto options = SmallDbOptions("stats");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(26);
  for (int op = 0; op < 6000; ++op) {
    uint64_t k = rng.NextBelow(4000) * 1000;
    ASSERT_TRUE(
        db->Put(EncodeKeyBE(k), "v" + std::string(60, 's')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  Status status;
  auto engine = QueryEngine::Create(db.get(), "grouped", &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  EXPECT_EQ(engine->scheduler().Name(), "grouped");

  QueryBatch batch = RandomBatch(rng, 128);
  std::vector<MultiSeekResult> results;
  BatchStats stats;
  engine->Run(batch, &results, &stats);
  EXPECT_EQ(stats.queries, batch.size());
  uint64_t found = 0;
  for (const auto& r : results) found += r.found;
  EXPECT_EQ(stats.found, found);
  EXPECT_EQ(stats.empty, batch.size() - found);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.filter_checks, 0u);
  EXPECT_GT(stats.Qps(), 0.0);
  EXPECT_EQ(engine->totals().queries, batch.size());

  engine->Run(batch, &results);
  EXPECT_EQ(engine->totals().queries, 2 * batch.size());

  // Bad spec surfaces as InvalidArgument, not a crash.
  auto bad = QueryEngine::Create(db.get(), "warp-speed", &status);
  EXPECT_EQ(bad, nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(DbStatsTest, ObservedFileFprCountsFalsePositives) {
  DbStats s;
  EXPECT_EQ(s.ObservedFileFpr(), 0.0);
  s.sst_seeks = 8;
  s.false_positive_files = 2;
  EXPECT_DOUBLE_EQ(s.ObservedFileFpr(), 0.25);
}

}  // namespace
}  // namespace proteus
