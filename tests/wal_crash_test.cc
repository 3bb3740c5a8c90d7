// Crash-recovery fault injection for the durable write path (PR 4).
//
// The contract under test (docs/FORMAT.md, src/lsm/db.h):
//  * a Put/Delete acknowledged (Status::OK) before a crash is recovered
//    by Db::Open via WAL replay — at ANY crash offset, zero loss;
//  * a torn WAL tail (a record cut mid-frame by the crash) is rejected
//    and truncated away, never half-applied;
//  * a flipped data-block byte surfaces as a non-OK Status from
//    VerifyChecksums (and read_errors in Seek), never a wrong answer;
//  * a crash before a new MANIFEST is renamed into place leaves the old
//    one, and the WAL still covers the writes the new one would have
//    carried; the staging file and the unnamed SST are swept away.
//
// Since the MVCC rework the WAL is a sequence of numbered segments
// (WAL-<n>), rotated at flush; records carry the group-commit seqno.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "lsm/wal.h"
#include "surf/surf.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/serial.h"

namespace proteus {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

// Sum of bytes across every WAL segment `WAL-<n>` in `dir`.
size_t TotalWalBytes(const std::string& dir) {
  size_t total = 0;
  for (uint64_t n = 1; n < 64; ++n) {
    total += ReadFile(dir + "/WAL-" + std::to_string(n)).size();
  }
  return total;
}

// A CRC-valid record in the seqno-less layout older logs used: op u8 |
// klen u32 | key | vlen u32 | value, with op 1 = Put.
std::string SeqnolessPutRecord(std::string_view key, std::string_view value) {
  std::string payload;
  payload.push_back(1);
  PutFixed32(&payload, static_cast<uint32_t>(key.size()));
  payload.append(key);
  PutFixed32(&payload, static_cast<uint32_t>(value.size()));
  payload.append(value);
  std::string record;
  AppendCrcFrame(&record, payload);
  return record;
}

// A CRC-valid frame around `payload`, however malformed the payload is.
std::string Frame(const std::string& payload) {
  std::string record;
  AppendCrcFrame(&record, payload);
  return record;
}

// Complete, CRC-valid op-3/4 frames whose payload does not parse.
std::vector<std::pair<std::string, std::string>> UndecodableFrames() {
  const std::string put = EncodeWalRecord(kWalOpPutSeq, 7, "key", "value");
  const std::string payload = put.substr(8);  // op | seqno | klen | ...
  std::string key_past_end = payload.substr(0, 9);
  PutFixed32(&key_past_end, 100);  // klen 100, 3 key bytes follow
  key_past_end += "key";
  std::string value_past_end = payload.substr(0, payload.size() - 9);
  PutFixed32(&value_past_end, 100);  // vlen 100, no value bytes follow
  std::string delete_with_value = payload;
  delete_with_value[0] = static_cast<char>(kWalOpDeleteSeq);
  return {
      {"empty payload", Frame("")},
      {"seqno cut short", Frame(payload.substr(0, 5))},
      {"key length past the payload", Frame(key_past_end)},
      {"value length past the payload", Frame(value_past_end)},
      {"value shorter than the payload", Frame(payload + "x")},
      {"Delete carrying a value", Frame(delete_with_value)},
  };
}

DbOptions CrashDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_wal_crash_" + name;
  options.memtable_bytes = 256 << 10;  // keep writes in the memtable
  options.sst_target_bytes = 64 << 10;
  options.block_size = 1024;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 128 << 10;
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  return options;
}

// ---------------------------------------------------------------------------
// WAL record framing and replay (no Db).
// ---------------------------------------------------------------------------

TEST(WalReplayUnit, RoundTripsEveryRecord) {
  const std::string path = "/tmp/proteus_wal_unit.log";
  ::unlink(path.c_str());
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<std::pair<std::string, std::string>> written;
  for (int i = 0; i < 200; ++i) {
    std::string key = "key-" + std::to_string(i);
    std::string value(i % 17, 'v');
    written.emplace_back(key, value);
    ASSERT_TRUE(writer
                    .Append(EncodeWalRecord(kWalOpPutSeq,
                                            static_cast<uint64_t>(i) + 1, key,
                                            value),
                            1, /*sync=*/true)
                    .ok());
  }
  ASSERT_TRUE(writer
                  .Append(EncodeWalRecord(kWalOpDeleteSeq, 201, "key-5", {}),
                          1, true)
                  .ok());

  std::vector<std::pair<std::string, std::string>> replayed;
  uint8_t last_op = 0;
  uint64_t last_seqno = 0;
  uint64_t valid_bytes = 0;
  bool torn = false;
  ASSERT_TRUE(WalReplay(
                  path,
                  [&](uint8_t op, uint64_t seqno, std::string_view k,
                      std::string_view v) {
                    last_op = op;
                    last_seqno = seqno;
                    if (op == kWalOpPutSeq) replayed.emplace_back(k, v);
                  },
                  &valid_bytes, &torn)
                  .ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(valid_bytes, ReadFile(path).size());
  EXPECT_EQ(replayed, written);
  EXPECT_EQ(last_op, kWalOpDeleteSeq);
  EXPECT_EQ(last_seqno, 201u);
  ::unlink(path.c_str());
}

TEST(WalReplayUnit, EveryTruncationOffsetYieldsACleanPrefix) {
  const std::string path = "/tmp/proteus_wal_trunc.log";
  ::unlink(path.c_str());
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<size_t> record_ends;  // clean boundaries in the file
  size_t bytes = 0;
  for (int i = 0; i < 40; ++i) {
    std::string record =
        EncodeWalRecord(kWalOpPutSeq, static_cast<uint64_t>(i) + 1,
                        "k" + std::to_string(i), std::string(i % 9, 'x'));
    bytes += record.size();
    record_ends.push_back(bytes);
    ASSERT_TRUE(writer.Append(record, 1, /*sync=*/false).ok());
  }
  const std::string full = ReadFile(path);
  ASSERT_EQ(full.size(), bytes);

  // Simulate a crash at EVERY byte offset: replay must apply exactly the
  // records wholly before the cut and flag everything after it as torn.
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteFile(path, full.substr(0, cut));
    size_t whole_records = 0;
    while (whole_records < record_ends.size() &&
           record_ends[whole_records] <= cut) {
      ++whole_records;
    }
    size_t applied = 0;
    uint64_t valid_bytes = 0;
    bool torn = false;
    ASSERT_TRUE(WalReplay(
                    path,
                    [&](uint8_t, uint64_t, std::string_view,
                        std::string_view) { ++applied; },
                    &valid_bytes, &torn)
                    .ok())
        << "cut=" << cut;
    EXPECT_EQ(applied, whole_records) << "cut=" << cut;
    EXPECT_EQ(valid_bytes, whole_records == 0 ? 0 : record_ends[whole_records - 1])
        << "cut=" << cut;
    EXPECT_EQ(torn, cut != valid_bytes) << "cut=" << cut;
  }
  ::unlink(path.c_str());
}

TEST(WalReplayUnit, BitflippedRecordEndsTheIntelligiblePrefix) {
  const std::string path = "/tmp/proteus_wal_flip.log";
  ::unlink(path.c_str());
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer
                    .Append(EncodeWalRecord(kWalOpPutSeq,
                                            static_cast<uint64_t>(i) + 1,
                                            "key-" + std::to_string(i), "value"),
                            1, false)
                    .ok());
  }
  const std::string clean = ReadFile(path);
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    std::string corrupt = clean;
    size_t pos = rng.NextBelow(corrupt.size());
    corrupt[pos] ^= static_cast<char>(1 + rng.NextBelow(255));
    WriteFile(path, corrupt);
    size_t applied = 0;
    uint64_t valid_bytes = 0;
    bool torn = false;
    // Replay stops at the first record that fails its CRC (or stops
    // framing); it never applies garbage and never crashes.
    ASSERT_TRUE(WalReplay(
                    path,
                    [&](uint8_t, uint64_t, std::string_view,
                        std::string_view) { ++applied; },
                    &valid_bytes, &torn)
                    .ok())
        << "trial " << trial;
    EXPECT_LE(applied, 10u);
    EXPECT_LE(valid_bytes, corrupt.size());
  }
  ::unlink(path.c_str());
}

TEST(WalReplayUnit, RecordOfAnOlderLayoutIsNotSupported) {
  const std::string path = "/tmp/proteus_wal_old_op.log";
  WriteFile(path, EncodeWalRecord(kWalOpPutSeq, 1, "a", "x") +
                      SeqnolessPutRecord("b", "y"));
  size_t applied = 0;
  uint64_t valid_bytes = 0;
  bool torn = false;
  Status s = WalReplay(
      path,
      [&](uint8_t, uint64_t, std::string_view, std::string_view) {
        ++applied;
      },
      &valid_bytes, &torn);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  EXPECT_NE(s.ToString().find("op 1"), std::string::npos) << s.ToString();
  EXPECT_EQ(applied, 1u);
  EXPECT_FALSE(torn);
  ::unlink(path.c_str());
}

TEST(WalReplayUnit, UndecodableCompleteFrameIsCorruption) {
  const std::string path = "/tmp/proteus_wal_undecodable.log";
  const std::string first = EncodeWalRecord(kWalOpPutSeq, 1, "a", "x");
  const std::string last = EncodeWalRecord(kWalOpPutSeq, 3, "c", "z");
  for (const auto& [name, frame] : UndecodableFrames()) {
    WriteFile(path, first + frame + last);
    size_t applied = 0;
    uint64_t valid_bytes = 0;
    bool torn = false;
    Status s = WalReplay(
        path,
        [&](uint8_t, uint64_t, std::string_view, std::string_view) {
          ++applied;
        },
        &valid_bytes, &torn);
    EXPECT_TRUE(s.IsCorruption()) << name << ": " << s.ToString();
    EXPECT_NE(s.ToString().find("offset " + std::to_string(first.size())),
              std::string::npos)
        << name << ": " << s.ToString();
    EXPECT_EQ(applied, 1u) << name;
    EXPECT_FALSE(torn) << name;
  }
  ::unlink(path.c_str());
}

TEST(WalReplayUnit, TrailingZeroFillIsATornTail) {
  // Eight zero bytes frame an empty payload whose CRC is 0; zeros to EOF
  // are what a crash can leave past the last write, not a record.
  const std::string path = "/tmp/proteus_wal_zero_fill.log";
  const std::string record = EncodeWalRecord(kWalOpPutSeq, 1, "a", "x");
  WriteFile(path, record + std::string(64, '\0'));
  size_t applied = 0;
  uint64_t valid_bytes = 0;
  bool torn = false;
  Status s = WalReplay(
      path,
      [&](uint8_t, uint64_t, std::string_view, std::string_view) {
        ++applied;
      },
      &valid_bytes, &torn);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(applied, 1u);
  EXPECT_TRUE(torn);
  EXPECT_EQ(valid_bytes, record.size());
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Db-level: kill -9 at any WAL offset.
// ---------------------------------------------------------------------------

TEST(DbCrashRecovery, AcknowledgedWritesSurviveKillMinusNine) {
  auto options = CrashDbOptions("ack");
  std::map<uint64_t, std::string> acknowledged;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < 800; ++i) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(db->Put(EncodeKeyBE(i * 3), value).ok());
      acknowledged[i * 3] = value;
    }
    ASSERT_TRUE(db->Delete(EncodeKeyBE(30)).ok());
    acknowledged.erase(30);
    db->TEST_CrashClose();  // no flush ever ran: everything lives in the WAL
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->stats().wal_replayed, 801u);
  for (const auto& [k, v] : acknowledged) {
    SeekResult r = db->Seek(EncodeKeyBE(k), EncodeKeyBE(k));
    ASSERT_TRUE(r.found) << "lost acknowledged key " << k;
    EXPECT_EQ(r.value, v) << "key " << k;
  }
  EXPECT_FALSE(db->Seek(EncodeKeyBE(30), EncodeKeyBE(30)).found);
}

TEST(DbCrashRecovery, CrashAtAnyWalOffsetLosesNothingAcknowledged) {
  auto options = CrashDbOptions("offsets");
  options.filter_policy = nullptr;  // irrelevant here; keep the loop fast
  const uint64_t kKeys = 60;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(i), "val-" + std::to_string(i)).ok());
    }
    db->TEST_CrashClose();
  }
  const std::string wal_path = options.dir + "/WAL-1";
  const std::string full = ReadFile(wal_path);
  ASSERT_FALSE(full.empty());

  // Each record is 8 (frame) + 1 (op) + 8 (seqno) + 4 + 8 (key) + 4 +
  // value bytes; recompute boundaries from the encoder so the test
  // cannot drift. Single-writer: seqnos are 1..kKeys in WAL order.
  std::vector<size_t> record_ends;
  {
    size_t bytes = 0;
    for (uint64_t i = 0; i < kKeys; ++i) {
      bytes += EncodeWalRecord(kWalOpPutSeq, i + 1, EncodeKeyBE(i),
                               "val-" + std::to_string(i))
                   .size();
      record_ends.push_back(bytes);
    }
    ASSERT_EQ(bytes, full.size());
  }

  Rng rng(123);
  std::vector<size_t> cuts = {0, 1, 7, 8, full.size() - 1, full.size()};
  for (int i = 0; i < 40; ++i) cuts.push_back(rng.NextBelow(full.size()));
  for (size_t cut : cuts) {
    WriteFile(wal_path, full.substr(0, cut));
    size_t whole = 0;
    while (whole < record_ends.size() && record_ends[whole] <= cut) ++whole;

    auto [db, status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << "cut=" << cut << ": " << status.ToString();
    // A record wholly on disk was acknowledged at most at this offset's
    // crash point; everything before the cut MUST come back, the torn
    // record (never acknowledged) must NOT.
    EXPECT_EQ(db->stats().wal_replayed, whole) << "cut=" << cut;
    for (uint64_t k = 0; k < whole; ++k) {
      SeekResult r = db->Seek(EncodeKeyBE(k), EncodeKeyBE(k));
      ASSERT_TRUE(r.found) << "cut=" << cut << " lost key " << k;
      EXPECT_EQ(r.value, "val-" + std::to_string(k));
    }
    for (uint64_t k = whole; k < kKeys; ++k) {
      EXPECT_FALSE(db->Seek(EncodeKeyBE(k), EncodeKeyBE(k)).found)
          << "cut=" << cut << " resurrected torn key " << k;
    }
    db->TEST_CrashClose();  // leave the truncated WAL alone for the next cut
  }
}

TEST(DbCrashRecovery, ReplayedWritesFlushAndTheWalResets) {
  auto options = CrashDbOptions("replay_flush");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(i * 2), "x" + std::to_string(i)).ok());
    }
    db->TEST_CrashClose();
  }
  {
    auto [db, status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_EQ(db->stats().wal_replayed, 300u);
    ASSERT_TRUE(db->Flush().ok());
    // The flush made the replayed writes durable in SSTs; the replayed
    // segment was rotated out and deleted — no WAL bytes remain (the
    // fresh active segment is empty until the next write).
    EXPECT_EQ(TotalWalBytes(options.dir), 0u);
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->stats().wal_replayed, 0u);
  EXPECT_EQ(db->TotalKeys(), 300u);
}

TEST(DbCrashRecovery, GroupCommitBatchesConcurrentWriters) {
  auto options = CrashDbOptions("group");
  options.filter_policy = nullptr;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  ASSERT_NE(db->TEST_wal(), nullptr);
  // Slow each fsync so concurrent committers pile up behind the leader.
  db->TEST_wal()->TEST_SetSyncDelayMicros(300);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db = *db, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
        ASSERT_TRUE(db.Put(EncodeKeyBE(k), "t" + std::to_string(k)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  const WalWriter::Stats stats = db->wal_stats();
  EXPECT_EQ(stats.records, static_cast<uint64_t>(kThreads * kPerThread));
  // The whole point of group commit: far fewer fsyncs than records.
  EXPECT_LT(stats.syncs, stats.records);
  EXPECT_EQ(stats.syncs, stats.batches);

  // Every concurrent write is present and survives a crash.
  db->TEST_CrashClose();
  auto [reopened, status] = Db::Open(options);
  ASSERT_NE(reopened, nullptr) << status.ToString();
  EXPECT_EQ(reopened->stats().wal_replayed,
            static_cast<uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      uint64_t k = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
      ASSERT_TRUE(reopened->Seek(EncodeKeyBE(k), EncodeKeyBE(k)).found)
          << "lost key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Data-block corruption: non-OK Status, not a wrong answer.
// ---------------------------------------------------------------------------

TEST(DbCrashRecovery, FlippedDataBlockByteSurfacesAsCorruptionStatus) {
  auto options = CrashDbOptions("block_flip");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < 3000; ++i) {
      ASSERT_TRUE(
          db->Put(EncodeKeyBE(i * 4), "blk" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
  }
  {
    auto [db, status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << status.ToString();
    ASSERT_TRUE(db->VerifyChecksums().ok());
  }

  // Flip one byte in the first data block of some SST (offset 16 is
  // comfortably inside block 0's payload, before index and footer).
  std::string victim;
  for (uint64_t id = 1; id < 128 && victim.empty(); ++id) {
    std::string path = options.dir + "/" + std::to_string(id) + ".sst";
    if (::access(path.c_str(), F_OK) == 0) victim = path;
  }
  ASSERT_FALSE(victim.empty());
  std::string content = ReadFile(victim);
  content[16] ^= 0x20;
  WriteFile(victim, content);

  auto [reopened, status2] = Db::Open(options);
  ASSERT_NE(reopened, nullptr) << status2.ToString();
  Status verify = reopened->VerifyChecksums();
  EXPECT_FALSE(verify.ok());
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();

  // Seeks over the damaged region surface the Corruption through the
  // status out-param (and stats) and never return a silently wrong
  // value.
  reopened->ResetStats();
  size_t corrupt_seeks = 0;
  for (uint64_t i = 0; i < 3000; i += 11) {
    SeekResult r = reopened->Seek(EncodeKeyBE(i * 4), EncodeKeyBE(i * 4));
    if (r.found) {
      EXPECT_EQ(r.value, "blk" + std::to_string(i)) << "silent corruption";
    }
    if (!r.status.ok()) {
      EXPECT_TRUE(r.status.IsCorruption()) << r.status.ToString();
      ++corrupt_seeks;
    }
  }
  EXPECT_GT(corrupt_seeks, 0u);
  EXPECT_GT(reopened->stats().read_errors, 0u);
}

// ---------------------------------------------------------------------------
// MANIFEST: a crash before the rename is covered by the WAL.
// ---------------------------------------------------------------------------

TEST(DbCrashRecovery, CrashBeforeManifestRenameIsCoveredByTheWal) {
  auto options = CrashDbOptions("manifest_rename");
  const std::string manifest = options.dir + "/MANIFEST";
  // Deterministic single-threaded schedule: the first flush rotates
  // WAL-1 out, so generation 2 lands in segment WAL-2.
  const std::string wal_path = options.dir + "/WAL-2";
  std::string manifest_before_flush;
  std::string wal_before_flush;
  std::string flushed_manifest;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    // Generation 1: flushed and named by the MANIFEST.
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(i), "gen1").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    manifest_before_flush = ReadFile(manifest);
    // Generation 2: acknowledged into the WAL, then flushed (a new
    // MANIFEST naming the new SST, and the segment retired).
    for (uint64_t i = 500; i < 900; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(i), "gen2").ok());
    }
    wal_before_flush = ReadFile(wal_path);
    ASSERT_TRUE(db->Flush().ok());
    flushed_manifest = ReadFile(manifest);
    db->TEST_CrashClose();
  }
  ASSERT_FALSE(manifest_before_flush.empty());
  ASSERT_NE(flushed_manifest, manifest_before_flush);
  ASSERT_FALSE(wal_before_flush.empty());
  // Simulate the crash landing mid-flush: the generation-2 SST is
  // written, the new MANIFEST only half staged in MANIFEST.tmp, the old
  // MANIFEST still in place and the WAL segment not yet retired.
  WriteFile(manifest, manifest_before_flush);
  const std::string staged = options.dir + "/MANIFEST.tmp";
  WriteFile(staged, flushed_manifest.substr(0, flushed_manifest.size() / 2));
  WriteFile(wal_path, wal_before_flush);
  std::vector<std::string> orphans;
  for (uint64_t id = 1; id < 64; ++id) {
    const std::string path = options.dir + "/" + std::to_string(id) + ".sst";
    if (::access(path.c_str(), F_OK) == 0) orphans.push_back(path);
  }
  ASSERT_EQ(orphans.size(), 2u);  // one per generation
  orphans.erase(orphans.begin());  // generation 1's file is still named

  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  // The WAL replay brings generation 2 back.
  EXPECT_EQ(db->stats().wal_replayed, 400u);
  for (uint64_t i = 0; i < 900; ++i) {
    SeekResult r = db->Seek(EncodeKeyBE(i), EncodeKeyBE(i));
    ASSERT_TRUE(r.found) << "lost key " << i;
    EXPECT_EQ(r.value, i < 500 ? "gen1" : "gen2");
  }
  // Both debris files are gone.
  EXPECT_NE(::access(staged.c_str(), F_OK), 0);
  EXPECT_NE(::access(orphans[0].c_str(), F_OK), 0) << orphans[0];
}

// (level, file id) of every live SST in DesignInfo's order: L0
// newest-first, then each sorted level by key.
std::vector<std::pair<int, uint64_t>> TreeShape(const Db& db) {
  std::vector<std::pair<int, uint64_t>> shape;
  for (const auto& f : db.DesignInfo()) shape.emplace_back(f.level, f.file_id);
  return shape;
}

TEST(DbCrashRecovery, RecoveredTreeMatchesTheLiveTree) {
  auto options = CrashDbOptions("tree_shape");
  options.memtable_bytes = 4 << 20;  // only Flush() flushes
  options.l0_compaction_trigger = 100;  // only CompactAll() compacts L0
  options.l1_size_bytes = 64 << 20;
  // A weak filter and hair-trigger drift thresholds: the first false
  // positive flags its file for a redesign.
  options.filter_policy = MakeFilterPolicy("proteus:bpk=2");
  options.drift.min_probes = 1;
  options.drift.min_window_samples = 1;
  options.drift.fpr_factor = 0;
  auto [created, st] = Db::Create(options);
  ASSERT_NE(created, nullptr) << st.ToString();
  std::unique_ptr<Db> db = std::move(created);

  // The live tree must come back file for file and in order, both from
  // the MANIFEST the last edit wrote (a crash) and from the one a clean
  // close writes. The reopened Db carries on with the next step.
  auto expect_recovered = [&](const std::string& step) {
    db->WaitForBackground();
    const auto live = TreeShape(*db);
    db->TEST_CrashClose();
    db.reset();
    auto [after_crash, crash_status] = Db::Open(options);
    ASSERT_NE(after_crash, nullptr) << crash_status.ToString();
    EXPECT_EQ(TreeShape(*after_crash), live) << step << ", after a crash";
    after_crash.reset();
    auto [after_close, close_status] = Db::Open(options);
    ASSERT_NE(after_close, nullptr) << close_status.ToString();
    EXPECT_EQ(TreeShape(*after_close), live)
        << step << ", after a clean close";
    db = std::move(after_close);
  };

  // Two L0 files over disjoint key ranges: even keys below 4000, then
  // keys from 100000 up.
  const std::string value(100, 'v');
  for (uint64_t base : {uint64_t{0}, uint64_t{100000}}) {
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(base + 2 * i), value).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    expect_recovered("flush at " + std::to_string(base));
  }
  ASSERT_EQ(db->LevelFileCounts()[0], 2u);

  // Empty point Seeks inside the older file's range only, until one of
  // its false positives flags it; maintenance then redesigns it in
  // place, between the newer file and the end of L0.
  for (uint64_t k = 1; k < 4000 && db->stats().drift_detected == 0; k += 2) {
    ASSERT_FALSE(db->Seek(EncodeKeyBE(k), EncodeKeyBE(k)).found);
  }
  db->WaitForBackground();
  ASSERT_EQ(db->stats().redesigns, 1u);
  ASSERT_EQ(db->LevelFileCounts()[0], 2u);
  expect_recovered("redesign");

  ASSERT_TRUE(db->CompactAll().ok());
  ASSERT_EQ(db->LevelFileCounts()[0], 0u);
  ASSERT_GT(db->LevelFileCounts()[1], 2u);
  expect_recovered("CompactAll into L1");

  // Half of L1 over its limit: CompactAll moves files into L2 one at a
  // time.
  options.l1_size_bytes = db->TotalSstBytes() / 2;
  db.reset();
  auto [shrunk, shrunk_status] = Db::Open(options);
  ASSERT_NE(shrunk, nullptr) << shrunk_status.ToString();
  db = std::move(shrunk);
  ASSERT_TRUE(db->CompactAll().ok());
  ASSERT_GT(db->LevelFileCounts()[1], 0u);
  ASSERT_GT(db->LevelFileCounts()[2], 0u);
  expect_recovered("level compaction");
}

TEST(DbCrashRecovery, OlderWalRecordFailsOpenAndLeavesTheLogIntact) {
  auto options = CrashDbOptions("old_op");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(i), "v").ok());
    }
    db->TEST_CrashClose();  // every write lives in WAL-1
  }
  const std::string segment = options.dir + "/WAL-1";
  const std::string log = ReadFile(segment) + SeqnolessPutRecord("k", "v");
  WriteFile(segment, log);

  auto [db, status] = Db::Open(options);
  EXPECT_EQ(db, nullptr);
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  EXPECT_NE(status.ToString().find("op 1"), std::string::npos)
      << status.ToString();
  // A complete frame is not a torn tail: nothing was truncated.
  EXPECT_EQ(ReadFile(segment), log);
}

TEST(DbCrashRecovery, UndecodableWalFrameFailsOpenAndLeavesTheLogIntact) {
  auto options = CrashDbOptions("undecodable");
  for (const auto& [name, frame] : UndecodableFrames()) {
    {
      auto [db, st] = Db::Create(options);
      ASSERT_TRUE(st.ok());
      for (uint64_t i = 0; i < 50; ++i) {
        ASSERT_TRUE(db->Put(EncodeKeyBE(i), "v").ok());
      }
      db->TEST_CrashClose();  // every write lives in WAL-1
    }
    // The damaged frame sits mid-log: a record follows it.
    const std::string segment = options.dir + "/WAL-1";
    const std::string log = ReadFile(segment) + frame +
                            EncodeWalRecord(kWalOpPutSeq, 1000, "k", "v");
    WriteFile(segment, log);

    auto [db, status] = Db::Open(options);
    EXPECT_EQ(db, nullptr) << name;
    EXPECT_TRUE(status.IsCorruption()) << name << ": " << status.ToString();
    EXPECT_EQ(ReadFile(segment), log) << name << ": the log was cut";
  }
}

TEST(DbCrashRecovery, CreateRemovesAnUnnumberedWalFile) {
  auto options = CrashDbOptions("create_over_wal");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
  }
  WriteFile(options.dir + "/WAL", SeqnolessPutRecord("k", "v"));
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(db->Put(EncodeKeyBE(1), "v").ok());
  }
  EXPECT_NE(::access((options.dir + "/WAL").c_str(), F_OK), 0);
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_TRUE(db->Seek(EncodeKeyBE(1), EncodeKeyBE(1)).found);
}

TEST(DbCrashRecovery, UnnumberedWalFileIsNotSupported) {
  auto options = CrashDbOptions("unnumbered");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(db->Put(EncodeKeyBE(1), "v").ok());
  }
  const std::string legacy = SeqnolessPutRecord("k", "v");
  WriteFile(options.dir + "/WAL", legacy);

  auto [db, status] = Db::Open(options);
  EXPECT_EQ(db, nullptr);
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  EXPECT_NE(status.ToString().find("/WAL"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(ReadFile(options.dir + "/WAL"), legacy);
  ::unlink((options.dir + "/WAL").c_str());
}

}  // namespace
}  // namespace proteus
