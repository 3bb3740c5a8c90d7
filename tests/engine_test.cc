// The batched query engine: randomized MultiSeek ≡ sequential-Seek
// equivalence (tombstones, filters, across reopen), cost parity and
// independence from arrival order, per-batch stats, and the sample-queue
// feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
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

// --- MultiSeek ≡ Seek ---

// Runs random batches against a DB and asserts MultiSeek's results equal
// a sequential Seek loop's.
void CheckEquivalence(Db& db, Rng& rng, int batches, size_t batch_size) {
  for (int round = 0; round < batches; ++round) {
    QueryBatch batch = RandomBatch(rng, batch_size);
    std::vector<MultiSeekResult> results;
    db.MultiSeek(batch, &results);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      SeekResult seq = db.Seek(batch[i].lo, batch[i].hi);
      const MultiSeekResult& r = results[i];
      ASSERT_EQ(r.found, seq.found) << "round " << round << " query " << i;
      ASSERT_EQ(r.status.ok(), seq.status.ok());
      if (seq.found) {
        ASSERT_EQ(r.key, seq.key) << "query " << i;
        ASSERT_EQ(r.value, seq.value) << "query " << i;
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
  for (int round = 0; round < 20; ++round) {
    QueryBatch batch = RandomBatch(rng, 64);
    std::vector<MultiSeekResult> results;
    db->MultiSeek(batch, &results);
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
  std::vector<MultiSeekResult> results;
  db->MultiSeek({}, &results);
  EXPECT_TRUE(results.empty());
  db->MultiSeek({{EncodeKeyBE(50), EncodeKeyBE(150)}}, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].found);
  EXPECT_EQ(results[0].key, EncodeKeyBE(100));
  EXPECT_EQ(results[0].value, "x");
}

// --- MultiSeek books exactly Seek's costs, in any arrival order ---

constexpr uint64_t kTreeKeys = 6000;

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

// Values in sorted levels and in an older L0 file, tombstone runs in a
// newer L0 file, adaptive redesign off so the file set stays fixed.
std::unique_ptr<Db> BuildTombstoneTree(const std::string& name) {
  auto options = SmallDbOptions(name);
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  options.memtable_bytes = 1 << 20;
  options.sst_target_bytes = 32 << 10;
  options.adaptive_redesign = false;
  auto [db, st] = Db::Create(options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (db == nullptr) return nullptr;
  for (uint64_t k = 0; k < kTreeKeys; ++k) {
    EXPECT_TRUE(db->Put(EncodeKeyBE(k * 1000), "base" + std::to_string(k)).ok());
  }
  EXPECT_TRUE(db->CompactAll().ok());
  for (uint64_t k = 0; k < kTreeKeys; k += 3) {
    EXPECT_TRUE(db->Put(EncodeKeyBE(k * 1000), "l0-" + std::to_string(k)).ok());
  }
  EXPECT_TRUE(db->Flush().ok());
  for (uint64_t k = 0; k < kTreeKeys; ++k) {
    if ((k / 8) % 4 == 0) {
      EXPECT_TRUE(db->Delete(EncodeKeyBE(k * 1000)).ok());
    }
  }
  EXPECT_TRUE(db->Flush().ok());
  db->WaitForBackground();
  size_t l0_files = 0, level_files = 0;
  for (const auto& info : db->DesignInfo()) {
    (info.level == 0 ? l0_files : level_files) += 1;
  }
  EXPECT_EQ(l0_files, 2u) << "the tree must keep both L0 files";
  EXPECT_GT(level_files, 2u);
  return std::move(db);
}

// Random ranges plus ranges that start on a tombstone run and find their
// answer past its end.
QueryBatch TombstoneBatch(Rng& rng) {
  QueryBatch batch = RandomBatch(rng, 96);
  for (uint64_t run = 0; run < kTreeKeys; run += 32 * 7) {
    batch.push_back({EncodeKeyBE(run * 1000), EncodeKeyBE((run + 20) * 1000)});
  }
  return batch;
}

TEST(MultiSeekTest, BooksTheSameCostsAsSeekAcrossTombstoneRuns) {
  // The answers walk past deleted keys, and a batch must consult every
  // filter, probe every SST and charge every false positive exactly as
  // often as the same queries issued one by one.
  auto db = BuildTombstoneTree("parity");
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(testing::Test::HasFailure());
  Rng rng(27);
  const QueryBatch batch = TombstoneBatch(rng);

  const ReadCosts start = TakeReadCosts(*db);
  std::vector<MultiSeekResult> results;
  db->MultiSeek(batch, &results);
  const ReadCosts mid = TakeReadCosts(*db);
  for (size_t i = 0; i < batch.size(); ++i) {
    SeekResult r = db->Seek(batch[i].lo, batch[i].hi);
    ASSERT_EQ(results[i].found, r.found) << "query " << i;
    ASSERT_EQ(results[i].key, r.key) << "query " << i;
  }
  const ReadCosts batched = CostDelta(start, mid);
  const ReadCosts single = CostDelta(mid, TakeReadCosts(*db));
  EXPECT_GT(single.false_positive_files + single.filter_negatives, 0u);
  EXPECT_EQ(batched.filter_checks, single.filter_checks);
  EXPECT_EQ(batched.filter_negatives, single.filter_negatives);
  EXPECT_EQ(batched.sst_seeks, single.sst_seeks);
  EXPECT_EQ(batched.false_positive_files, single.false_positive_files);
  for (const auto& [id, counts] : single.per_file) {
    EXPECT_EQ(batched.per_file.at(id), counts)
        << "file " << id << " (checks, probes, false positives)";
  }
}

TEST(MultiSeekTest, ArrivalOrderChangesNeitherAnswersNorCosts) {
  // MultiSeek picks its own order, so a batch, its reverse and a shuffle
  // of it (with repeated lo keys, to exercise ties) must give each query
  // the same answer and the batch the same costs.
  auto db = BuildTombstoneTree("arrival");
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(testing::Test::HasFailure());
  Rng rng(28);
  QueryBatch batch = TombstoneBatch(rng);
  for (size_t i = 0; i < 8; ++i) {
    batch.push_back({batch[i].lo, batch[(i + 1) % 8].hi});
  }

  // Arrangement a lists, for each arrival slot, the index of the query
  // in `batch` it carries.
  std::vector<std::vector<size_t>> arrangements(3);
  for (size_t i = 0; i < batch.size(); ++i) arrangements[0].push_back(i);
  arrangements[1].assign(arrangements[0].rbegin(), arrangements[0].rend());
  arrangements[2] = arrangements[0];
  for (size_t i = batch.size() - 1; i > 0; --i) {
    std::swap(arrangements[2][i], arrangements[2][rng.NextBelow(i + 1)]);
  }

  std::vector<MultiSeekResult> expected;
  ReadCosts expected_costs;
  for (size_t a = 0; a < arrangements.size(); ++a) {
    QueryBatch arrived;
    for (size_t q : arrangements[a]) arrived.push_back(batch[q]);
    const ReadCosts before = TakeReadCosts(*db);
    std::vector<MultiSeekResult> results;
    db->MultiSeek(arrived, &results);
    const ReadCosts costs = CostDelta(before, TakeReadCosts(*db));
    ASSERT_EQ(results.size(), batch.size());
    std::vector<MultiSeekResult> by_query(batch.size());
    for (size_t slot = 0; slot < arrived.size(); ++slot) {
      by_query[arrangements[a][slot]] = results[slot];
    }
    if (a == 0) {
      expected = by_query;
      expected_costs = costs;
      EXPECT_GT(costs.false_positive_files + costs.filter_negatives, 0u);
      continue;
    }
    for (size_t q = 0; q < batch.size(); ++q) {
      ASSERT_EQ(by_query[q].found, expected[q].found)
          << "arrangement " << a << " query " << q;
      ASSERT_EQ(by_query[q].key, expected[q].key)
          << "arrangement " << a << " query " << q;
      ASSERT_EQ(by_query[q].value, expected[q].value)
          << "arrangement " << a << " query " << q;
    }
    EXPECT_EQ(costs.filter_checks, expected_costs.filter_checks) << a;
    EXPECT_EQ(costs.filter_negatives, expected_costs.filter_negatives) << a;
    EXPECT_EQ(costs.sst_seeks, expected_costs.sst_seeks) << a;
    EXPECT_EQ(costs.false_positive_files,
              expected_costs.false_positive_files)
        << a;
    EXPECT_EQ(costs.per_file, expected_costs.per_file) << a;
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
  QueryBatch batch;
  for (uint64_t i = 0; i < 100; ++i) {
    // Between keys: all empty.
    batch.push_back({EncodeKeyBE(i * 1000000 + 10), EncodeKeyBE(i * 1000000 + 20)});
  }
  std::vector<MultiSeekResult> results;
  db->MultiSeek(batch, &results);
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
  auto engine = QueryEngine::Create(db.get(), "sorted", &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

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

  // Any order but "sorted", the one MultiSeek runs, is InvalidArgument:
  // not a crash, and not a silent substitute.
  for (const char* order : {"fifo", "grouped", "warp-speed"}) {
    auto bad = QueryEngine::Create(db.get(), order, &status);
    EXPECT_EQ(bad, nullptr) << order;
    EXPECT_TRUE(status.IsInvalidArgument()) << order << ": "
                                            << status.ToString();
  }
}

}  // namespace
}  // namespace proteus
