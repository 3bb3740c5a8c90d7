// MVCC + threading: snapshot isolation (a reader pinned at S never sees
// later commits, even after flush/compaction retire the SSTs it started
// on), MultiSeek ≡ Seek against a fixed snapshot while a writer commits,
// N-writer/M-reader differential integrity, write-stall accounting, the
// waits on a maintenance thread held inside a flush, and the kill-9
// contract that seqno-stamped WAL replay reproduces the exact pre-crash
// memtable order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

DbOptions MtDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_mt_test_" + name;
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 256 << 10;
  options.level_size_multiplier = 4.0;
  options.wal_sync = false;  // group commit still batches; tests run fast
  return options;
}

TEST(Mvcc, SnapshotPinsStateAcrossFlushAndCompaction) {
  auto [db, st] = Db::Create(MtDbOptions("pin"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  const int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(i * 10), "v1-" + std::to_string(i)).ok());
  }
  auto snap = db->GetSnapshot();
  ReadOptions at_snap;
  at_snap.snapshot = snap.get();

  // Everything after the snapshot: overwrites, deletes, and enough churn
  // that flush + full compaction retire every SST the snapshot started
  // on. The pinned reader must not notice any of it.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(i * 10), "v2-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_TRUE(db->Delete(EncodeKeyBE(i * 10)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  for (int i = 0; i < kKeys; ++i) {
    std::string key = EncodeKeyBE(i * 10);
    SeekResult pinned = db->Seek(key, key, at_snap);
    ASSERT_TRUE(pinned.status.ok()) << pinned.status.ToString();
    ASSERT_TRUE(pinned.found) << "snapshot lost key " << i;
    EXPECT_EQ(pinned.value, "v1-" + std::to_string(i)) << "key " << i;

    SeekResult latest = db->Seek(key, key);
    if (i % 7 == 0) {
      EXPECT_FALSE(latest.found) << "tombstone missing for key " << i;
    } else {
      ASSERT_TRUE(latest.found);
      EXPECT_EQ(latest.value, "v2-" + std::to_string(i));
    }
  }

  // Range seeks resolve per-key visibility too: a range whose smallest
  // live key was deleted after the snapshot answers differently at each
  // horizon.
  SeekResult pinned = db->Seek(EncodeKeyBE(0), EncodeKeyBE(5), at_snap);
  ASSERT_TRUE(pinned.found);
  EXPECT_EQ(pinned.value, "v1-0");
  SeekResult latest = db->Seek(EncodeKeyBE(0), EncodeKeyBE(5));
  EXPECT_FALSE(latest.found);  // key 0 deleted (0 % 7 == 0)
}

TEST(Mvcc, SnapshotIsolationUnderConcurrentWriter) {
  auto [db, st] = Db::Create(MtDbOptions("iso"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  const int kKeys = 500;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(i), "base-" + std::to_string(i)).ok());
  }
  auto snap = db->GetSnapshot();
  ReadOptions at_snap;
  at_snap.snapshot = snap.get();

  std::atomic<bool> stop{false};
  std::thread writer([&db = *db, &stop] {
    Rng rng(71);
    uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t k = rng.NextBelow(kKeys);
      ASSERT_TRUE(
          db.Put(EncodeKeyBE(k), "mut-" + std::to_string(round++)).ok());
    }
  });

  // Pinned reads while the writer commits, flushes trigger, and the
  // memtable the snapshot was taken on retires: every answer must be the
  // pre-snapshot value, every time.
  Rng rng(72);
  for (int round = 0; round < 5000; ++round) {
    uint64_t k = rng.NextBelow(kKeys);
    SeekResult r = db->Seek(EncodeKeyBE(k), EncodeKeyBE(k), at_snap);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_TRUE(r.found) << "round " << round;
    ASSERT_EQ(r.value, "base-" + std::to_string(k)) << "round " << round;
  }
  stop.store(true);
  writer.join();
  db->WaitForBackground();

  // After the writer stops, one more full pinned sweep — flushes and
  // compactions from the churn above have all landed by now.
  for (int i = 0; i < kKeys; ++i) {
    SeekResult r = db->Seek(EncodeKeyBE(i), EncodeKeyBE(i), at_snap);
    ASSERT_TRUE(r.found);
    ASSERT_EQ(r.value, "base-" + std::to_string(i));
  }
}

TEST(Mvcc, MultiSeekMatchesSeekAtFixedSnapshotUnderConcurrentWriter) {
  auto [db, st] = Db::Create(MtDbOptions("multiseek"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  Rng fill(81);
  for (int i = 0; i < 4000; ++i) {
    uint64_t k = fill.NextBelow(5000) * 1000;
    ASSERT_TRUE(
        db->Put(EncodeKeyBE(k), "fill-" + std::to_string(i)).ok());
  }
  auto snap = db->GetSnapshot();
  ReadOptions at_snap;
  at_snap.snapshot = snap.get();

  std::atomic<bool> stop{false};
  std::thread writer([&db = *db, &stop] {
    Rng rng(82);
    uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t k = rng.NextBelow(5000) * 1000;
      ASSERT_TRUE(
          db.Put(EncodeKeyBE(k), "late-" + std::to_string(round++)).ok());
    }
  });

  Rng rng(83);
  QueryBatch batch;
  for (int i = 0; i < 300; ++i) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    uint64_t span = rng.NextBelow(8000);
    batch.push_back({EncodeKeyBE(k > span ? k - span : 0),
                     EncodeKeyBE(k + span)});
  }
  std::vector<MultiSeekResult> results;
  db->MultiSeek(batch, &results, at_snap);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SeekResult seq = db->Seek(batch[i].lo, batch[i].hi, at_snap);
    ASSERT_EQ(results[i].found, seq.found) << "query " << i;
    if (seq.found) {
      ASSERT_EQ(results[i].key, seq.key) << "query " << i;
      ASSERT_EQ(results[i].value, seq.value) << "query " << i;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(Mvcc, WritersAndReadersKeepValuesConsistent) {
  auto [db, st] = Db::Create(MtDbOptions("nwmr"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  const int kWriters = 2;
  const int kReaders = 4;
  const uint64_t kKeysPerWriter = 3000;
  const std::string pad(100, 'p');

  // Each writer owns keys k where k % kWriters == id and stamps every
  // value with its key, so a reader can validate any answer on sight —
  // a torn or misrouted read surfaces as a key/value mismatch.
  std::vector<std::thread> threads;
  std::map<std::string, std::string> last_written[kWriters];
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db = *db, &ref = last_written[w], &pad, w] {
      Rng rng(90 + w);
      for (uint64_t i = 0; i < kKeysPerWriter; ++i) {
        uint64_t k = rng.NextBelow(2000) * uint64_t{kWriters} + w;
        std::string key = EncodeKeyBE(k);
        std::string value =
            "k" + std::to_string(k) + "#" + std::to_string(i) + pad;
        ASSERT_TRUE(db.Put(key, value).ok());
        ref[key] = value;
      }
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db = *db, &stop, &reads, r] {
      Rng rng(190 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t k = rng.NextBelow(2000 * kWriters);
        SeekResult res = db.Seek(EncodeKeyBE(k), EncodeKeyBE(k));
        ASSERT_TRUE(res.status.ok()) << res.status.ToString();
        if (res.found) {
          // The value must carry its own key: prefix "k<k>#".
          std::string want = "k" + std::to_string(k) + "#";
          ASSERT_EQ(res.value.compare(0, want.size(), want), 0)
              << "reader " << r << " got foreign value for key " << k;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  db->WaitForBackground();
  EXPECT_GT(reads.load(), 0u);

  // Quiesced differential: the union of the writers' last values is
  // exactly what the tree holds.
  std::map<std::string, std::string> ref;
  for (int w = 0; w < kWriters; ++w) {
    ref.insert(last_written[w].begin(), last_written[w].end());
  }
  for (const auto& [key, value] : ref) {
    SeekResult r = db->Seek(key, key);
    ASSERT_TRUE(r.found);
    ASSERT_EQ(r.value, value);
  }
}

TEST(Mvcc, WriteStallsAreAccountedWhenFlusherFallsBehind) {
  auto options = MtDbOptions("stall");
  options.memtable_bytes = 4 << 10;  // rotate every handful of writes
  options.max_immutable_memtables = 1;
  options.l0_compaction_trigger = 2;  // keep the maintenance thread busy
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string value(1024, 'v');
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&db = *db, &value, w] {
      for (uint64_t i = 0; i < 1500; ++i) {
        ASSERT_TRUE(db.Put(EncodeKeyBE(i * 4 + w), value).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  db->WaitForBackground();
  const DbStats s = db->stats();
  EXPECT_GT(s.write_stalls, 0u) << "6MB through a 4KB memtable on one "
                                   "maintenance thread never stalled";
  EXPECT_GT(s.stall_wait_us, 0u);
  // One flush drains every pending immutable memtable and rotation only
  // happens when the background loop comes around, so both counters stay
  // far below the number of memtable-sized chunks written — just require
  // that the machinery ran at all; the stall counters above are the test.
  EXPECT_GT(s.wal_rotations, 0u);
  EXPECT_GT(s.flushes, 0u);
  // The stalled writes all landed.
  SeekResult r = db->Seek(EncodeKeyBE(0), EncodeKeyBE(0));
  ASSERT_TRUE(r.found);
}

// A filter policy whose Build blocks until the test opens its latch, so
// the maintenance thread can be held inside a flush. Builds no filter.
class LatchedPolicy : public FilterPolicy {
 public:
  std::unique_ptr<SstFilter> Build(
      const std::vector<std::string>& /*keys*/,
      const std::vector<std::pair<std::string, std::string>>& /*samples*/)
      const override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    return nullptr;
  }

  /// True once a Build is parked at the latch (false after 10 s).
  bool WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool open_ = false;
};

// Runs `body` on a thread; done() turns true once it returns.
class Returns {
 public:
  template <typename F>
  explicit Returns(F body) : thread_([this, body] {
      body();
      done_.store(true);
    }) {}
  ~Returns() { thread_.join(); }
  Returns(const Returns&) = delete;
  Returns& operator=(const Returns&) = delete;
  bool done() const { return done_.load(); }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// Polls `pred` for up to 10 s.
template <typename P>
bool Eventually(P pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// A Db whose first flush parks the maintenance thread at the policy's
/// latch, with max_immutable_memtables = 1: the next write stalls.
struct HeldFlush {
  std::shared_ptr<LatchedPolicy> policy = std::make_shared<LatchedPolicy>();
  std::unique_ptr<Db> db;

  explicit HeldFlush(const std::string& name) {
    DbOptions options = MtDbOptions(name);
    options.memtable_bytes = 4 << 10;
    options.max_immutable_memtables = 1;
    options.filter_policy = policy;
    auto [created, st] = Db::Create(options);
    EXPECT_TRUE(st.ok()) << st.ToString();
    db = std::move(created);
  }
  /// One write over the memtable size asks for a flush.
  bool Hold() {
    return db != nullptr &&
           db->Put(EncodeKeyBE(0), std::string(8 << 10, 'a')).ok() &&
           policy->WaitUntilHeld();
  }
};

TEST(Maintenance, StalledWriterAndDrainWaitForAHeldFlush) {
  HeldFlush held("held_flush");
  std::unique_ptr<Returns> writer, drain;
  // Declared last, so destroyed first: whichever assertion returns, the
  // latch opens before the threads are joined and the Db closes.
  struct OpenOnExit {
    LatchedPolicy* policy;
    ~OpenOnExit() { policy->Open(); }
  } open_on_exit{held.policy.get()};
  ASSERT_TRUE(held.Hold());
  Db& db = *held.db;

  Status write_status = Status::IOError("not returned");
  writer = std::make_unique<Returns>(
      [&] { write_status = db.Put(EncodeKeyBE(7), "stalled"); });
  ASSERT_TRUE(Eventually([&] { return db.stats().write_stalls >= 1; }));
  drain = std::make_unique<Returns>([&] { db.WaitForBackground(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(writer->done()) << "a stalled write returned mid-flush";
  EXPECT_FALSE(drain->done()) << "WaitForBackground returned mid-flush";
  EXPECT_EQ(db.stats().flushes, 0u);

  held.policy->Open();
  EXPECT_TRUE(Eventually([&] { return writer->done() && drain->done(); }));
  writer.reset();
  drain.reset();
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_EQ(db.stats().write_stalls, 1u);
  EXPECT_GE(db.stats().flushes, 1u);
  SeekResult r = db.Seek(EncodeKeyBE(7), EncodeKeyBE(7));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "stalled");
}

TEST(Maintenance, StalledWriterWakesOnBackgroundError) {
  HeldFlush held("held_flush_error");
  const std::string dir = MtDbOptions("held_flush_error").dir;
  const std::string moved = dir + ".moved";
  std::error_code ec;
  std::filesystem::remove_all(moved, ec);
  std::unique_ptr<Returns> writer;
  // Destroyed first, as above; also puts the directory back.
  struct OpenOnExit {
    LatchedPolicy* policy;
    std::string dir, moved;
    ~OpenOnExit() {
      policy->Open();
      std::error_code ignored;
      std::filesystem::rename(moved, dir, ignored);
    }
  } open_on_exit{held.policy.get(), dir, moved};
  ASSERT_TRUE(held.Hold());
  Db& db = *held.db;

  Status write_status;
  writer = std::make_unique<Returns>(
      [&] { write_status = db.Put(EncodeKeyBE(7), "stalled"); });
  ASSERT_TRUE(Eventually([&] { return db.stats().write_stalls >= 1; }));
  // With the directory gone, the held flush cannot write its SST.
  std::filesystem::rename(dir, moved, ec);
  ASSERT_FALSE(ec) << ec.message();
  held.policy->Open();
  EXPECT_TRUE(Eventually([&] { return writer->done(); }));
  writer.reset();
  EXPECT_FALSE(write_status.ok()) << "the stalled write was accepted";
  EXPECT_FALSE(db.background_error().ok());
  db.WaitForBackground();  // an error leaves nothing requested

  std::filesystem::rename(moved, dir, ec);
  ASSERT_FALSE(ec) << ec.message();
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_TRUE(db.background_error().ok());
  EXPECT_TRUE(db.Seek(EncodeKeyBE(0), EncodeKeyBE(0)).found);
  EXPECT_FALSE(db.Seek(EncodeKeyBE(7), EncodeKeyBE(7)).found)
      << "a rejected write became visible";
}

TEST(Mvcc, CrashReplayReproducesExactPreCrashOrder) {
  auto options = MtDbOptions("replay");
  options.memtable_bytes = 8 << 20;  // nothing flushes: all writes live
                                     // in WAL + memtable at crash time
  std::map<std::string, std::string> ref;
  uint64_t pre_crash_seqno = 0;
  uint64_t records = 0;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    Rng rng(101);
    // Heavy overwrite pressure: the same key is written many times, so
    // replay in any order other than the WAL's (== seqno order) would
    // resurface a stale version.
    for (int op = 0; op < 5000; ++op) {
      uint64_t k = rng.NextBelow(200);
      std::string key = EncodeKeyBE(k);
      if (rng.NextBelow(10) < 8) {
        std::string value = "op" + std::to_string(op);
        ASSERT_TRUE(db->Put(key, value).ok());
        ref[key] = value;
      } else {
        ASSERT_TRUE(db->Delete(key).ok());
        ref.erase(key);
      }
      ++records;
    }
    pre_crash_seqno = db->LastSequence();
    EXPECT_EQ(pre_crash_seqno, records);  // single writer: dense 1..N
    db->TEST_CrashClose();
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->stats().wal_replayed, records);
  // Replay re-stamps the recovered versions with their logged seqnos, so
  // the sequence clock resumes exactly where the crash cut it off.
  EXPECT_EQ(db->LastSequence(), pre_crash_seqno);
  for (uint64_t k = 0; k < 200; ++k) {
    std::string key = EncodeKeyBE(k);
    SeekResult r = db->Seek(key, key);
    auto it = ref.find(key);
    ASSERT_EQ(r.found, it != ref.end()) << "key " << k;
    if (r.found) {
      ASSERT_EQ(r.value, it->second) << "key " << k;
    }
  }
  // And the revived database keeps its MVCC behavior: new writes get
  // fresh seqnos above the replayed ones.
  auto snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put(EncodeKeyBE(0), "post-crash").ok());
  EXPECT_EQ(db->LastSequence(), pre_crash_seqno + 1);
  ReadOptions at_snap;
  at_snap.snapshot = snap.get();
  SeekResult pinned = db->Seek(EncodeKeyBE(0), EncodeKeyBE(0), at_snap);
  auto it = ref.find(EncodeKeyBE(0));
  EXPECT_EQ(pinned.found, it != ref.end());
  if (pinned.found) {
    EXPECT_EQ(pinned.value, it->second);
  }
}

}  // namespace
}  // namespace proteus
