// The memtable write path: concurrent inserts into one memtable's
// skiplist, N concurrent writers against a std::map reference, kill -9
// replay into a fresh memtable, every flushed data block compressed, and
// the positioned Seek that walks dense tombstone runs at O(files)
// instead of O(tombstones x files).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "lsm/block.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/rle.h"
#include "surf/surf.h"
#include "util/random.h"
#include "util/serial.h"

namespace proteus {
namespace {

DbOptions MemDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_memtable_test_" + name;
  options.memtable_bytes = 1 << 20;
  options.sst_target_bytes = 4 << 20;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 8;  // flushes land in L0 untouched
  options.wal_sync = false;
  return options;
}

TEST(MemTableConcurrent, ParallelAddsProduceOneOrderedList) {
  MemTable mem;
  const int kThreads = 4;
  const uint64_t kPerThread = 5000;
  // Unique (key, seqno) pairs across threads (the Db's leader guarantees
  // this in production); keys deliberately collide across threads so the
  // CAS retry path in Add() actually runs.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mem, t] {
      Rng rng(300 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = rng.NextBelow(1000);
        uint64_t seqno = static_cast<uint64_t>(t) * kPerThread + i + 1;
        mem.Add(EncodeKeyBE(k), seqno, kTagValue,
                "t" + std::to_string(t) + "#" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(mem.size(), kThreads * kPerThread);
  // Every version made it in, in internal order: key ascending, seqno
  // strictly descending within a key, no duplicates and no losses.
  std::vector<std::tuple<std::string, uint64_t, std::string>> got;
  int64_t cost = 0;
  mem.list().ForEach([&](std::string_view key, uint64_t seqno,
                         std::string_view value) {
    uint8_t tag;
    std::string_view user;
    ASSERT_TRUE(ParseInternalValue(value, &tag, &user));
    ASSERT_EQ(tag, kTagValue);
    got.emplace_back(std::string(key), seqno, std::string(user));
    cost += static_cast<int64_t>(key.size() + value.size() + 8);
  });
  ASSERT_EQ(got.size(), kThreads * kPerThread);
  EXPECT_EQ(mem.bytes(), cost);  // every concurrent Add was accounted
  std::vector<bool> seen(kThreads * kPerThread + 1, false);
  for (size_t i = 1; i < got.size(); ++i) {
    const auto& [pk, ps, pv] = got[i - 1];
    const auto& [ck, cs, cv] = got[i];
    ASSERT_TRUE(pk < ck || (pk == ck && ps > cs))
        << "order violated at index " << i;
  }
  for (const auto& [key, seqno, value] : got) {
    ASSERT_GE(seqno, 1u);
    ASSERT_LE(seqno, kThreads * kPerThread);
    ASSERT_FALSE(seen[seqno]) << "seqno " << seqno << " stored twice";
    seen[seqno] = true;
    // The value names its writer thread and step: recompute the key the
    // writer used at that step and make sure nothing got torn.
    int t = static_cast<int>((seqno - 1) / kPerThread);
    uint64_t i = (seqno - 1) % kPerThread;
    ASSERT_EQ(value, "t" + std::to_string(t) + "#" + std::to_string(i));
    Rng rng(300 + t);
    uint64_t k = 0;
    for (uint64_t step = 0; step <= i; ++step) k = rng.NextBelow(1000);
    ASSERT_EQ(key, EncodeKeyBE(k)) << "seqno " << seqno;
  }
}

// Reads the 20-byte handles out of an SST's index block and returns the
// on-disk compression tag of each data block it names.
std::vector<uint8_t> DataBlockTags(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  constexpr size_t kFooterSize = 72;  // docs/FORMAT.md "Footer"
  EXPECT_GE(file.size(), kFooterSize);
  if (file.size() < kFooterSize) return {};
  const char* footer = file.data() + file.size() - kFooterSize;
  const uint64_t index_offset = LoadFixed64(footer);
  const uint64_t index_size = LoadFixed64(footer + 8);
  std::string index_payload;
  EXPECT_TRUE(RleDecompress(
      std::string_view(file).substr(index_offset, index_size),
      &index_payload));
  BlockReader index;
  EXPECT_TRUE(index.Init(std::move(index_payload)));
  std::vector<uint8_t> tags;
  for (size_t i = 0; i < index.n_entries(); ++i) {
    const uint64_t offset = LoadFixed64(index.ValueAt(i).data());
    tags.push_back(static_cast<uint8_t>(file[offset]));
  }
  return tags;
}

TEST(MemTableFlush, EveryL0DataBlockIsCompressed) {
  // Values are half zero bytes, as in the paper's payloads, so RLE
  // shrinks every block and no block falls back to the raw tag.
  auto options = MemDbOptions("rle");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (uint64_t k = 0; k < 4000; ++k) {
    std::string value = "v" + std::to_string(k);
    value.resize(64, '\0');
    ASSERT_TRUE(db->Put(EncodeKeyBE(k), value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForBackground();
  ASSERT_EQ(db->LevelFileCounts()[0], 1u);  // one L0 file, not compacted

  size_t blocks = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options.dir)) {
    if (entry.path().extension() != ".sst") continue;
    for (uint8_t tag : DataBlockTags(entry.path().string())) {
      EXPECT_EQ(tag, 1) << entry.path() << " block " << blocks;  // 1 = RLE
      ++blocks;
    }
  }
  EXPECT_GT(blocks, 10u);
  // Compressed blocks read back.
  for (uint64_t k = 0; k < 4000; k += 97) {
    SeekResult r = db->Seek(EncodeKeyBE(k), EncodeKeyBE(k));
    ASSERT_TRUE(r.found) << k;
    EXPECT_EQ(r.value.substr(0, r.value.find('\0')),
              "v" + std::to_string(k));
  }
}

TEST(MemTableDb, NWriterDifferentialAgainstMap) {
  auto options = MemDbOptions("nw");
  options.memtable_bytes = 64 << 10;  // force rotations mid-run
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const int kWriters = 4;
  const uint64_t kOpsPerWriter = 2000;
  // Disjoint key spaces (k % kWriters == w) make each writer's final map
  // exact regardless of interleaving.
  std::map<std::string, std::string> ref[kWriters];
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db = *db, &ref = ref[w], w] {
      Rng rng(500 + w);
      for (uint64_t i = 0; i < kOpsPerWriter; ++i) {
        uint64_t k = rng.NextBelow(400) * uint64_t{kWriters} + w;
        std::string key = EncodeKeyBE(k);
        if (rng.NextBelow(8) < 6) {
          std::string value = "w" + std::to_string(w) + "#" + std::to_string(i);
          ASSERT_TRUE(db.Put(key, value).ok());
          ref[key] = value;
        } else {
          ASSERT_TRUE(db.Delete(key).ok());
          ref.erase(key);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  db->WaitForBackground();

  std::map<std::string, std::string> merged;
  for (int w = 0; w < kWriters; ++w) {
    merged.insert(ref[w].begin(), ref[w].end());
  }
  for (uint64_t k = 0; k < 400 * kWriters; ++k) {
    std::string key = EncodeKeyBE(k);
    SeekResult r = db->Seek(key, key);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    auto it = merged.find(key);
    ASSERT_EQ(r.found, it != merged.end()) << "key " << k;
    if (r.found) {
      ASSERT_EQ(r.value, it->second) << "key " << k;
    }
  }

  // Bookkeeping: one apply per op, and live arena memory accounted.
  const DbStats s = db->stats();
  EXPECT_EQ(s.puts + s.deletes, kWriters * kOpsPerWriter);
  EXPECT_GT(s.memtable_arena_bytes, 0u);
}

TEST(MemTableDb, CrashReplayReproducesOrder) {
  auto options = MemDbOptions("crash");
  options.memtable_bytes = 8 << 20;  // all writes live in WAL at crash
  std::map<std::string, std::string> ref;
  uint64_t pre_crash_seqno = 0;
  uint64_t records = 0;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    Rng rng(611);
    // Heavy overwrites: replay in any order but seqno order would
    // resurface stale versions.
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
    db->TEST_CrashClose();
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  const DbStats s = db->stats();
  EXPECT_EQ(s.wal_replayed, records);
  EXPECT_EQ(db->LastSequence(), pre_crash_seqno);
  EXPECT_EQ(db->TotalKeys(), records);  // every version back in the memtable
  for (uint64_t k = 0; k < 200; ++k) {
    std::string key = EncodeKeyBE(k);
    SeekResult r = db->Seek(key, key);
    auto it = ref.find(key);
    ASSERT_EQ(r.found, it != ref.end()) << "key " << k;
    if (r.found) {
      ASSERT_EQ(r.value, it->second) << "key " << k;
    }
  }
}

TEST(SeekTombstones, DenseTombstoneRunCostsOneDescentPerFile) {
  auto options = MemDbOptions("tomb");
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint64_t kKeys = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k), "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  db->WaitForBackground();
  // Mass-delete everything but the last key; the tombstones stay in the
  // memtable, the values sit in the SST below them.
  for (uint64_t k = 0; k + 1 < kKeys; ++k) {
    ASSERT_TRUE(db->Delete(EncodeKeyBE(k)).ok());
  }
  db->ResetStats();

  SeekResult r = db->Seek(EncodeKeyBE(0), EncodeKeyBE(kKeys - 1));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, EncodeKeyBE(kKeys - 1));
  EXPECT_EQ(r.value, "v" + std::to_string(kKeys - 1));

  // The positioned cursor pays ONE index descent per file and walks
  // forward from there; before it, each of the 999 tombstones re-seeked
  // every file (sst_seeks would be ~999 here, not <= the file count).
  const DbStats s = db->stats();
  EXPECT_LE(s.sst_seeks, 4u) << "tombstone walk re-seeks the SSTs";
  EXPECT_LE(s.filter_checks, 4u) << "filter re-checked per tombstone";
}

}  // namespace
}  // namespace proteus
