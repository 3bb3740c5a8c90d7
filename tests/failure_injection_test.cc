// Failure injection: corrupted and truncated SST files, filter blocks,
// and manifests must be detected (checksums / magic / bounds), never
// silently misread — and the DB read/reopen path must degrade loudly (an
// Open error or a filter rebuild) rather than return wrong data.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "lsm/rle.h"
#include "lsm/sst.h"
#include "surf/surf.h"
#include "util/random.h"
#include "util/serial.h"

namespace proteus {
namespace {

// One lookup through a fresh RangeCursor: the newest version visible at
// `snapshot` of the smallest key in [lo, hi] (0 = found, 1 = none, -1 =
// read error).
int SeekInRange(const SstReader& reader, std::string_view lo,
                std::string_view hi, uint64_t snapshot,
                const BlockReadOptions& opts, SstReader::SeekEntry* out,
                Status* status = nullptr) {
  SstReader::RangeCursor cursor;
  cursor.Init(&reader, opts, snapshot);
  const int rc = cursor.Seek(lo, hi, status);
  if (rc == 0) *out = cursor.entry();
  return rc;
}

std::string WriteTestSst(const std::string& path, bool compress) {
  SstWriter::Options wopts;
  wopts.block_size = 512;
  wopts.compress = compress;
  SstWriter writer(path, wopts);
  for (uint64_t i = 0; i < 2000; ++i) {
    writer.Add(EncodeKeyBE(i * 5),
               MakeSstValueV4(kTagValue, i + 1, "value" + std::to_string(i)));
  }
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

class SstCorruptionTest : public ::testing::TestWithParam<bool> {};

TEST_P(SstCorruptionTest, TruncatedFileRejectedAtOpen) {
  const std::string path = "/tmp/proteus_fail_trunc.sst";
  WriteTestSst(path, GetParam());
  std::string content = ReadFile(path);
  for (double frac : {0.0, 0.3, 0.9}) {
    WriteFile(path, content.substr(
                        0, static_cast<size_t>(content.size() * frac)));
    BlockCache cache(1 << 20);
    SstReader reader;
    EXPECT_FALSE(reader.Open(path, 1, &cache).ok()) << "frac=" << frac;
  }
  ::unlink(path.c_str());
}

TEST_P(SstCorruptionTest, CorruptFooterMagicRejected) {
  const std::string path = "/tmp/proteus_fail_magic.sst";
  WriteTestSst(path, GetParam());
  std::string content = ReadFile(path);
  content[content.size() - 1] ^= 0x5A;  // magic lives in the last 8 bytes
  WriteFile(path, content);
  BlockCache cache(1 << 20);
  SstReader reader;
  EXPECT_FALSE(reader.Open(path, 1, &cache).ok());
  ::unlink(path.c_str());
}

TEST_P(SstCorruptionTest, DataBlockBitflipsDetectedOnRead) {
  const bool compress = GetParam();
  const std::string path = "/tmp/proteus_fail_flip.sst";
  WriteTestSst(path, compress);
  std::string clean = ReadFile(path);
  Rng rng(9);
  int detected = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string corrupt = clean;
    // Flip a random byte in the data area (first ~80% of the file, before
    // index + footer).
    size_t pos = rng.NextBelow(static_cast<uint64_t>(clean.size() * 0.8));
    corrupt[pos] ^= static_cast<char>(1 + rng.NextBelow(255));
    WriteFile(path, corrupt);
    BlockCache cache(1 << 20);
    SstReader reader;
    if (!reader.Open(path, 1, &cache).ok()) {
      ++detected;  // index/footer damage caught at open
      continue;
    }
    // Scan the whole key range; corruption must yield an error (-1) or a
    // correct value — never a silently wrong one.
    bool bad = false;
    for (uint64_t i = 0; i < 2000; i += 3) {
      SstReader::SeekEntry se;
      int rc = SeekInRange(reader, EncodeKeyBE(i * 5), EncodeKeyBE(i * 5),
                           kMaxSequence, BlockReadOptions{}, &se);
      if (rc == -1 || rc == 1) {
        bad = true;  // detected (read error) or entry unreachable
      } else if (se.value != "value" + std::to_string(i)) {
        ADD_FAILURE() << "silent corruption at trial " << trial;
      }
    }
    if (bad) ++detected;
  }
  // Most single-byte flips land in checksummed payload and must be caught;
  // flips in dead bytes (padding) may legitimately go unnoticed.
  EXPECT_GE(detected, kTrials * 3 / 5) << detected << "/" << kTrials;
  ::unlink(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CompressedAndRaw, SstCorruptionTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "compressed" : "raw";
                         });

TEST(SstFailure, MissingFile) {
  BlockCache cache(1 << 20);
  SstReader reader;
  Status s = reader.Open("/tmp/does_not_exist_proteus.sst", 1, &cache);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(SstFailure, EmptyFile) {
  const std::string path = "/tmp/proteus_fail_empty.sst";
  WriteFile(path, "");
  BlockCache cache(1 << 20);
  SstReader reader;
  EXPECT_FALSE(reader.Open(path, 1, &cache).ok());
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Filter block + manifest: the persistence additions fail just as loudly.
// ---------------------------------------------------------------------------

constexpr size_t kFooterV2Size = 72;

DbOptions FailDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_fail_db_" + name;
  options.memtable_bytes = 32 << 10;
  options.sst_target_bytes = 64 << 10;
  options.block_size = 1024;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 128 << 10;
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  return options;
}

void FillAndClose(const DbOptions& options) {
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(i * 6), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
}

// The MANIFEST is only ever renamed into place whole, so a cut anywhere
// — inside the 8-byte frame header or inside the payload — is damage.
TEST(ManifestFailure, TruncationRejectedAtOpen) {
  auto options = FailDbOptions("trunc");
  FillAndClose(options);
  const std::string manifest = options.dir + "/MANIFEST";
  std::string content = ReadFile(manifest);
  ASSERT_GT(content.size(), 8u);
  const size_t n = content.size();
  for (size_t cut : {size_t{0}, size_t{3}, size_t{7}, size_t{8}, n / 10,
                     n * 6 / 10, n * 95 / 100, n - 1}) {
    WriteFile(manifest, content.substr(0, cut));
    auto [db, status] = Db::Open(options);
    EXPECT_EQ(db, nullptr) << "cut=" << cut;
    EXPECT_TRUE(status.IsCorruption()) << "cut=" << cut << " "
                                       << status.ToString();
  }
  // Restoring the manifest restores the database.
  WriteFile(manifest, content);
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->TotalKeys(), 2000u);
}

TEST(ManifestFailure, EveryBitflipRejectedAtOpen) {
  auto options = FailDbOptions("flip");
  FillAndClose(options);
  const std::string manifest = options.dir + "/MANIFEST";
  std::string content = ReadFile(manifest);
  ASSERT_FALSE(content.empty());
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupt = content;
    size_t pos = rng.NextBelow(corrupt.size());
    corrupt[pos] ^= static_cast<char>(1 + rng.NextBelow(255));
    WriteFile(manifest, corrupt);
    auto [db, status] = Db::Open(options);
    // The frame's length and CRC cover every byte of the one record:
    // any flip fails Open, and is reported as damage.
    EXPECT_EQ(db, nullptr) << "trial " << trial << " pos " << pos;
    EXPECT_TRUE(status.IsCorruption())
        << "trial " << trial << " pos " << pos << " " << status.ToString();
  }
  // Restoring the bytes restores the database.
  WriteFile(manifest, content);
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->TotalKeys(), 2000u);
}

TEST(ManifestFailure, MissingSstFileNamedInManifestFailsOpen) {
  auto options = FailDbOptions("missing_sst");
  FillAndClose(options);
  // Delete one SST file the manifest references.
  {
    auto [db, status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << status.ToString();
  }
  // Find any .sst and unlink it.
  std::string victim;
  for (uint64_t id = 1; id < 64 && victim.empty(); ++id) {
    std::string path = options.dir + "/" + std::to_string(id) + ".sst";
    if (::access(path.c_str(), F_OK) == 0) victim = path;
  }
  ASSERT_FALSE(victim.empty());
  ::unlink(victim.c_str());
  auto [db, status] = Db::Open(options);
  EXPECT_EQ(db, nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(FilterBlockFailure, TruncatedFilterBlockFallsBackToRebuild) {
  auto options = FailDbOptions("filter_trunc");
  FillAndClose(options);
  // Truncating inside the filter block destroys the footer too, so that
  // file fails outright — instead shrink the recorded filter_size so the
  // checksum no longer matches (a torn write's usual shape).
  size_t damaged = 0;
  for (uint64_t id = 1; id < 64; ++id) {
    std::string path = options.dir + "/" + std::to_string(id) + ".sst";
    if (::access(path.c_str(), F_OK) != 0) continue;
    std::string content = ReadFile(path);
    ASSERT_GE(content.size(), kFooterV2Size);
    size_t footer = content.size() - kFooterV2Size;
    uint64_t filter_size;
    std::memcpy(&filter_size, content.data() + footer + 32, 8);
    if (filter_size == 0) continue;
    filter_size /= 2;
    std::memcpy(content.data() + footer + 32, &filter_size, 8);
    WriteFile(path, content);
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->stats().filter_loads, 0u);
  EXPECT_EQ(db->stats().filter_rebuilds, damaged);
  // Rebuilt filters still answer correctly.
  SeekResult r = db->Seek(EncodeKeyBE(60), EncodeKeyBE(60));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "value10");
}

// ---------------------------------------------------------------------------
// Block cache: a data block is verified once, on its way in from disk,
// and only a block that passes is cached and shared.
// ---------------------------------------------------------------------------

// The lowest-numbered SST in the database directory.
std::string FirstSst(const DbOptions& options) {
  for (uint64_t id = 1; id < 64; ++id) {
    std::string path = options.dir + "/" + std::to_string(id) + ".sst";
    if (::access(path.c_str(), F_OK) == 0) return path;
  }
  return "";
}

// The (offset, size) of each of a file's data blocks, from its index block.
std::vector<std::pair<uint64_t, uint64_t>> DataBlocks(const std::string& file) {
  const char* footer = file.data() + file.size() - kFooterV2Size;
  std::string index_payload;
  EXPECT_TRUE(RleDecompress(std::string_view(file).substr(
                                 LoadFixed64(footer), LoadFixed64(footer + 8)),
                             &index_payload));
  BlockReader index;
  EXPECT_TRUE(index.Init(std::move(index_payload)));
  EXPECT_GT(index.n_entries(), 0u);
  std::vector<std::pair<uint64_t, uint64_t>> blocks;
  for (size_t i = 0; i < index.n_entries(); ++i) {
    const char* handle = index.ValueAt(i).data();
    blocks.emplace_back(LoadFixed64(handle), LoadFixed64(handle + 8));
  }
  return blocks;
}

TEST(FilterBlockFailure, DamagedFilterAndDataBlockLeaveTheFileUnfiltered) {
  // A file whose filter block AND a data block are damaged cannot have its
  // filter rebuilt: the key scan stops at the unreadable block, and a
  // filter over the keys before it would answer false negatives for the
  // keys after it. The file reopens unfiltered; its damaged block reads
  // as Corruption and every other block, before and after it, still
  // serves its keys.
  auto options = FailDbOptions("filter_and_data");
  FillAndClose(options);
  const std::string path = FirstSst(options);
  ASSERT_FALSE(path.empty());
  const uint64_t file_id = std::stoull(path.substr(options.dir.size() + 1));
  std::string content = ReadFile(path);
  const size_t footer = content.size() - kFooterV2Size;
  uint64_t filter_size = LoadFixed64(content.data() + footer + 32);
  ASSERT_GT(filter_size, 0u);
  filter_size /= 2;  // the filter checksum no longer matches
  std::memcpy(content.data() + footer + 32, &filter_size, 8);
  const auto blocks = DataBlocks(content);
  ASSERT_GE(blocks.size(), 3u);
  const auto [offset, size] = blocks[blocks.size() / 2];
  std::string payload;
  ASSERT_TRUE(RleDecompress(content.substr(offset, size), &payload));
  BlockReader block;
  ASSERT_TRUE(block.Init(payload));
  std::set<std::string> damaged_keys;
  for (size_t i = 0; i < block.n_entries(); ++i) {
    damaged_keys.emplace(block.KeyAt(i));
  }
  content[offset + size - 1] ^= 0x01;
  WriteFile(path, content);

  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  const auto infos = db->DesignInfo();
  ASSERT_FALSE(infos.empty());
  bool seen = false;
  for (const auto& info : infos) {
    if (info.file_id != file_id) continue;
    seen = true;
    EXPECT_EQ(info.filter_bits, 0u);
  }
  ASSERT_TRUE(seen);
  EXPECT_EQ(db->stats().filter_rebuilds, 0u);
  EXPECT_EQ(db->stats().filter_loads, infos.size() - 1);

  size_t intact = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    const std::string key = EncodeKeyBE(i * 6);
    SeekResult r = db->Seek(key, key);
    if (damaged_keys.count(key) != 0) {
      EXPECT_TRUE(r.status.IsCorruption()) << i << " " << r.status.ToString();
      continue;
    }
    ASSERT_TRUE(r.status.ok()) << i << " " << r.status.ToString();
    ASSERT_TRUE(r.found) << "false negative at " << i;
    EXPECT_EQ(r.value, "value" + std::to_string(i));
    ++intact;
  }
  EXPECT_EQ(intact, 2000 - damaged_keys.size());
  EXPECT_FALSE(damaged_keys.empty());
}

TEST(BlockCacheVerifyOnce, BlockFailingItsChecksumIsNeverCached) {
  auto options = FailDbOptions("verify_once_bad");
  FillAndClose(options);
  const std::string path = FirstSst(options);
  ASSERT_FALSE(path.empty());
  std::string content = ReadFile(path);
  const auto [offset, size] = DataBlocks(content).front();
  std::string payload;
  ASSERT_TRUE(RleDecompress(content.substr(offset, size), &payload));
  BlockReader good;
  ASSERT_TRUE(good.Init(payload));
  const std::string key(good.KeyAt(0));
  // Flip the block's last on-disk byte: the handle CRC over the on-disk
  // bytes no longer matches. (Block.ChecksumDetectsCorruption covers
  // the in-block checksum that Init verifies after it.)
  content[offset + size - 1] ^= 0x01;
  WriteFile(path, content);

  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  const uint64_t inserts = db->cache().stats().inserts;
  for (int attempt = 0; attempt < 2; ++attempt) {
    SeekResult r = db->Seek(key, key);
    EXPECT_TRUE(r.status.IsCorruption()) << attempt << r.status.ToString();
    EXPECT_NE(r.status.message().find("data block CRC mismatch"),
              std::string::npos)
        << r.status.ToString();
    EXPECT_EQ(db->cache().stats().inserts, inserts) << attempt;
  }
  EXPECT_EQ(db->stats().read_errors, 2u);
}

TEST(BlockCacheVerifyOnce, RepeatSeekSharesTheVerifiedBlock) {
  auto options = FailDbOptions("verify_once_hit");
  FillAndClose(options);
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  const std::string key = EncodeKeyBE(600);
  ASSERT_TRUE(db->Seek(key, key).found);  // a miss that fills the cache
  const BlockCache::Stats before = db->cache().stats();
  SeekResult r = db->Seek(key, key);
  const BlockCache::Stats after = db->cache().stats();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);

  // The same entry read straight from disk, bypassing the cache.
  constexpr BlockReadOptions kDiskRead{/*use_cache=*/false};
  int files_with_key = 0;
  for (uint64_t id = 1; id < 64; ++id) {
    const std::string path = options.dir + "/" + std::to_string(id) + ".sst";
    if (::access(path.c_str(), F_OK) != 0) continue;
    SstReader reader;
    ASSERT_TRUE(reader.Open(path, id, nullptr).ok()) << path;
    SstReader::SeekEntry se;
    if (SeekInRange(reader, key, key, kMaxSequence, kDiskRead, &se) != 0) {
      continue;
    }
    ++files_with_key;
    EXPECT_EQ(se.key, r.key);
    EXPECT_EQ(se.value, r.value);
  }
  EXPECT_EQ(files_with_key, 1);
  EXPECT_EQ(r.value, "value100");
}

}  // namespace
}  // namespace proteus
