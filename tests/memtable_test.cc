// The memtable write path: one writer's inserts against concurrent
// readers of the skiplist, N concurrent writers against a std::map
// reference, kill -9 replay into a fresh memtable, every flushed data
// block compressed, and the positioned Seek that walks dense tombstone runs at O(files)
// instead of O(tombstones x files).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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

TEST(MemTableConcurrent, OneWriterThreeReadersSeeOrderedPrefixes) {
  // One writer (as the Db's group-commit leader is) adds 20k versions
  // over 1000 colliding keys while three readers loop SeekGeq and full
  // Iterator passes. The writer publishes each seqno after its Add, so
  // a reader that acquires `published` knows the list holds at least
  // every version up to it.
  constexpr uint64_t kVersions = 20000;
  constexpr uint64_t kKeySpace = 1000;
  constexpr int kReaders = 3;
  std::vector<uint64_t> keys(kVersions);  // keys[seqno - 1]
  Rng key_rng(300);
  for (uint64_t& k : keys) k = key_rng.NextBelow(kKeySpace);
  auto value_of = [](uint64_t seqno) { return "v#" + std::to_string(seqno); };

  MemTable mem;
  std::atomic<uint64_t> published{0};
  std::atomic<bool> done{false};

  // One stored version must be exactly what the writer wrote at its
  // seqno: the key the writer drew then, and an untorn value.
  auto check_entry = [&](std::string_view key, uint64_t seqno,
                         std::string_view value) {
    ASSERT_GE(seqno, 1u);
    ASSERT_LE(seqno, kVersions);
    ASSERT_EQ(key, EncodeKeyBE(keys[seqno - 1])) << "seqno " << seqno;
    uint8_t tag;
    std::string_view user;
    ASSERT_TRUE(ParseInternalValue(value, &tag, &user));
    ASSERT_EQ(tag, kTagValue);
    ASSERT_EQ(user, value_of(seqno));
  };

  auto reader = [&](int id) {
    Rng rng(900 + id);
    uint64_t last_count = 0;
    for (bool last_pass = false; !last_pass;) {
      last_pass = done.load(std::memory_order_acquire);
      // A full pass: (key asc, seqno desc) order, untorn entries, and a
      // count that never shrinks and covers everything published.
      const uint64_t floor = published.load(std::memory_order_acquire);
      uint64_t count = 0;
      std::string_view prev_key;  // nodes never move while the list lives
      uint64_t prev_seqno = 0;
      for (SkipList::Iterator it(&mem.list()); it.Valid(); it.Next()) {
        check_entry(it.key(), it.seqno(), it.value());
        if (count > 0) {
          ASSERT_TRUE(prev_key < it.key() ||
                      (prev_key == it.key() && prev_seqno > it.seqno()))
              << "order violated after " << count << " entries";
        }
        prev_key = it.key();
        prev_seqno = it.seqno();
        ++count;
      }
      ASSERT_GE(count, floor);
      ASSERT_GE(count, last_count);
      last_count = count;

      // Seeks at a published horizon must match the reference exactly:
      // the smallest key >= probe among the first `snap` versions, at
      // its newest version <= snap.
      for (int q = 0; q < 8; ++q) {
        const uint64_t snap = published.load(std::memory_order_acquire);
        const uint64_t probe = rng.NextBelow(kKeySpace + 1);
        uint64_t want_key = kKeySpace;
        uint64_t want_seqno = 0;
        for (uint64_t seqno = 1; seqno <= snap; ++seqno) {
          const uint64_t k = keys[seqno - 1];
          if (k >= probe && k <= want_key) {  // later = newer version
            want_key = k;
            want_seqno = seqno;
          }
        }
        SkipList::Entry e;
        const bool found = mem.SeekGeq(EncodeKeyBE(probe), snap, &e);
        ASSERT_EQ(found, want_seqno != 0) << "probe " << probe;
        if (!found) continue;
        check_entry(e.key, e.seqno, e.value);
        ASSERT_EQ(e.key, EncodeKeyBE(want_key)) << "probe " << probe;
        ASSERT_EQ(e.seqno, want_seqno) << "probe " << probe;
      }
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);
  int64_t cost = 0;
  for (uint64_t seqno = 1; seqno <= kVersions; ++seqno) {
    const std::string key = EncodeKeyBE(keys[seqno - 1]);
    const std::string value = value_of(seqno);
    mem.Add(key, seqno, kTagValue, value);
    cost += static_cast<int64_t>(key.size() + 1 + value.size() + 8);
    published.store(seqno, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // The final list is the writer's reference, in internal order.
  std::vector<std::tuple<std::string, uint64_t, std::string>> want;
  for (uint64_t seqno = 1; seqno <= kVersions; ++seqno) {
    want.emplace_back(EncodeKeyBE(keys[seqno - 1]), seqno, value_of(seqno));
  }
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) != std::get<0>(b) ? std::get<0>(a) < std::get<0>(b)
                                            : std::get<1>(a) > std::get<1>(b);
  });
  std::vector<std::tuple<std::string, uint64_t, std::string>> got;
  mem.list().ForEach([&](std::string_view key, uint64_t seqno,
                         std::string_view value) {
    got.emplace_back(std::string(key), seqno, std::string(value.substr(1)));
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(mem.size(), kVersions);
  EXPECT_EQ(mem.bytes(), cost);
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
