// Persistence round-trips: SST filter blocks survive the disk, Db::Open
// reconstructs the tree and its filters from the manifest without
// rebuilding, and every damage mode (bit-flipped blob, foreign format
// version) degrades to a rebuild or a plain unfiltered read — never a
// crash or a wrong answer — and a file of an older footer generation is
// refused as NotSupported.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "hash/murmur3.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "lsm/sst.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

// The nine registered families, each as an LSM policy spec.
const char* kFamilySpecs[] = {
    "proteus:bpk=14",
    "onepbf:bpk=12",
    "twopbf:bpk=12",
    "rosetta:bpk=14",
    "surf:mode=real,suffix=4",
    "surf-str:mode=real,suffix=4",
    "proteus-str:bpk=14,max_key_bits=64",
    "bloom:bpk=12",
    "bloom-str:bpk=12",
};

std::string SanitizeSpec(const std::string& spec) {
  std::string out;
  for (char c : spec) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
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

uint64_t ReadU64At(const std::string& s, size_t pos) {
  uint64_t v;
  std::memcpy(&v, s.data() + pos, 8);
  return v;
}

std::vector<std::string> ListSstFiles(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      out.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  return out;
}

// ---------------------------------------------------------------------------
// SST-level: the filter block in the file format.
// ---------------------------------------------------------------------------

constexpr size_t kFooterSize = 72;

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

std::unique_ptr<SstFilter> BuildTestFilter(
    const std::vector<std::string>& keys) {
  auto policy = MakeFilterPolicy("proteus:bpk=14");
  return policy->Build(keys, {});
}

std::string WriteSstWithFilter(const std::string& path,
                               std::vector<std::string>* keys,
                               uint64_t filter_format = Filter::kVersion) {
  SstWriter::Options wopts;
  wopts.block_size = 512;
  SstWriter writer(path, wopts);
  for (uint64_t i = 0; i < 3000; ++i) {
    std::string key = EncodeKeyBE(i * 7);
    writer.Add(key, MakeSstValueV4(kTagValue, i + 1,
                                   "value" + std::to_string(i)));
    keys->push_back(std::move(key));
  }
  auto filter = BuildTestFilter(*keys);
  EXPECT_NE(filter, nullptr);
  std::string blob;
  EXPECT_TRUE(filter->Serialize(&blob));
  writer.SetFilterBlock(std::move(blob), filter_format);
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

TEST(SstFilterBlock, RoundTripsThroughTheFile) {
  const std::string path = "/tmp/proteus_persist_rt.sst";
  std::vector<std::string> keys;
  WriteSstWithFilter(path, &keys);

  BlockCache cache(1 << 20);
  SstReader reader;
  ASSERT_TRUE(reader.Open(path, 1, &cache).ok());
  ASSERT_TRUE(reader.has_filter_block());
  EXPECT_EQ(reader.filter_format(), Filter::kVersion);

  Status status;
  auto loaded = reader.LoadFilter(&status);
  ASSERT_NE(loaded, nullptr) << status.ToString();

  // The reloaded filter answers exactly like a freshly built one.
  auto fresh = BuildTestFilter(keys);
  for (uint64_t lo = 0; lo < 21000; lo += 13) {
    std::string slo = EncodeKeyBE(lo), shi = EncodeKeyBE(lo + 5);
    EXPECT_EQ(loaded->MayContain(slo, shi), fresh->MayContain(slo, shi))
        << "lo=" << lo;
  }
  ::unlink(path.c_str());
}

TEST(SstFilterBlock, OlderFooterVersionIsNotSupported) {
  const std::string path = "/tmp/proteus_persist_old_footer.sst";
  std::vector<std::string> keys;
  WriteSstWithFilter(path, &keys);
  const std::string clean = ReadFile(path);
  // The sentinel "PROTFTV4" sits right before the 8-byte magic; an older
  // writer left "PROTFTV2" or "PROTFTV3" in the same slot.
  const size_t sentinel = clean.size() - 16;
  ASSERT_EQ(clean.substr(sentinel, 8), "PROTFTV4");
  for (char generation : {'2', '3'}) {
    std::string old = clean;
    old[sentinel + 7] = generation;
    WriteFile(path, old);
    BlockCache cache(1 << 20);
    SstReader reader;
    Status s = reader.Open(path, 1, &cache);
    EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
    EXPECT_NE(s.ToString().find(std::string("version ") + generation),
              std::string::npos)
        << s.ToString();
  }
  // A sentinel that names no footer generation is damage.
  for (size_t pos : {sentinel, sentinel + 7}) {
    std::string damaged = clean;
    damaged[pos] ^= 0x40;
    WriteFile(path, damaged);
    BlockCache cache(1 << 20);
    SstReader reader;
    EXPECT_TRUE(reader.Open(path, 1, &cache).IsCorruption()) << pos;
  }
  ::unlink(path.c_str());
}

TEST(SstFilterBlock, ForeignFormatVersionIsIgnoredNotFatal) {
  const std::string path = "/tmp/proteus_persist_foreign.sst";
  std::vector<std::string> keys;
  WriteSstWithFilter(path, &keys, /*filter_format=*/Filter::kVersion + 7);

  BlockCache cache(1 << 20);
  SstReader reader;
  ASSERT_TRUE(reader.Open(path, 1, &cache).ok());
  // A filter written by a future format version is skipped (rebuild
  // fallback), but the data stays readable.
  EXPECT_FALSE(reader.has_filter_block());
  EXPECT_EQ(reader.LoadFilter(), nullptr);
  SstReader::SeekEntry se;
  EXPECT_EQ(SeekInRange(reader, EncodeKeyBE(0), EncodeKeyBE(0), kMaxSequence,
                        BlockReadOptions{}, &se),
            0);
  ::unlink(path.c_str());
}

TEST(SstFilterBlock, EveryBitflipInTheBlockIsDetected) {
  const std::string path = "/tmp/proteus_persist_flip.sst";
  std::vector<std::string> keys;
  WriteSstWithFilter(path, &keys);
  std::string clean = ReadFile(path);
  const size_t footer = clean.size() - kFooterSize;
  const uint64_t filter_offset = ReadU64At(clean, footer + 24);
  const uint64_t filter_size = ReadU64At(clean, footer + 32);
  ASSERT_GT(filter_size, 0u);

  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupt = clean;
    size_t pos = filter_offset + rng.NextBelow(filter_size);
    corrupt[pos] ^= static_cast<char>(1 + rng.NextBelow(255));
    WriteFile(path, corrupt);
    BlockCache cache(1 << 20);
    SstReader reader;
    // The file still opens (data is intact) but the checksummed filter
    // block is dropped, never deserialized into a silently wrong filter.
    ASSERT_TRUE(reader.Open(path, 1, &cache).ok()) << "trial " << trial;
    EXPECT_FALSE(reader.has_filter_block()) << "trial " << trial;
  }
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Db-level: manifest + reopen.
// ---------------------------------------------------------------------------

DbOptions PersistDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_persist_db_" + name;
  options.memtable_bytes = 32 << 10;
  options.sst_target_bytes = 64 << 10;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 128 << 10;
  options.level_size_multiplier = 4.0;
  return options;
}

struct Probe {
  bool found;
  std::string key, value;
};

std::vector<Probe> RunProbes(Db* db) {
  std::vector<Probe> out;
  for (uint64_t i = 0; i < 400; ++i) {
    uint64_t lo = (i * 37) % 30000;
    uint64_t hi = lo + i % 60;
    SeekResult r = db->Seek(EncodeKeyBE(lo), EncodeKeyBE(hi));
    out.push_back(Probe{r.found, std::move(r.key), std::move(r.value)});
  }
  return out;
}

void FillDb(Db* db, Rng* rng) {
  for (uint64_t i = 0; i < 2500; ++i) {
    db->Put(EncodeKeyBE(i * 10),
            "v" + std::to_string(i) + std::string(40, 'x'));
    if (i % 8 == 0) {
      // Feed the sample query queue with (mostly empty) ranges so the
      // self-designing families see a workload.
      uint64_t lo = rng->NextBelow(25000) + 1;
      db->Seek(EncodeKeyBE(lo * 10 + 1), EncodeKeyBE(lo * 10 + 7));
    }
  }
  db->CompactAll();
}

TEST(DbReopen, AllNineFamiliesServeIdenticalAnswersWithoutRebuilding) {
  for (const char* spec : kFamilySpecs) {
    SCOPED_TRACE(spec);
    auto options = PersistDbOptions(SanitizeSpec(spec));
    Status status;
    options.filter_policy = MakeFilterPolicy(spec, &status);
    ASSERT_NE(options.filter_policy, nullptr) << status.ToString();

    std::vector<Probe> before;
    uint64_t total_keys = 0;
    uint64_t filter_bits = 0;
    {
      auto [db, create_status] = Db::Create(options);
      ASSERT_TRUE(create_status.ok()) << create_status.ToString();
      Rng rng(42);
      FillDb(db.get(), &rng);
      before = RunProbes(db.get());
      total_keys = db->TotalKeys();
      filter_bits = db->TotalFilterBits();
      ASSERT_GT(filter_bits, 0u) << "no filters built at flush time";
    }

    auto [db, open_status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << open_status.ToString();
    EXPECT_EQ(db->TotalKeys(), total_keys);
    EXPECT_EQ(db->TotalFilterBits(), filter_bits);
    // Filters were deserialized from SST filter blocks; FilterBuilder
    // never ran (the build timer is the "rebuild counter" here: loading
    // takes the deserialize path, which does not touch it).
    EXPECT_GT(db->stats().filter_loads, 0u);
    EXPECT_EQ(db->stats().filter_rebuilds, 0u);
    EXPECT_EQ(db->stats().filter_build_ns, 0u);

    auto after = RunProbes(db.get());
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].found, after[i].found) << "probe " << i;
      EXPECT_EQ(before[i].key, after[i].key) << "probe " << i;
      EXPECT_EQ(before[i].value, after[i].value) << "probe " << i;
    }
  }
}

TEST(DbReopen, MemtableContentsSurviveCloseWithoutExplicitFlush) {
  auto options = PersistDbOptions("memtable");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(i * 3), "mem" + std::to_string(i)).ok());
    }
    // No Flush/CompactAll: the destructor must persist the memtable.
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->TotalKeys(), 50u);
  SeekResult r = db->Seek(EncodeKeyBE(9), EncodeKeyBE(9));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "mem3");
}

TEST(DbReopen, CorruptFilterBlocksTriggerRebuildFallback) {
  auto options = PersistDbOptions("corrupt_filter");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  std::vector<Probe> before;
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    Rng rng(7);
    FillDb(db.get(), &rng);
    before = RunProbes(db.get());
  }

  // Flip one byte inside every SST's filter block.
  size_t corrupted = 0;
  for (const std::string& path : ListSstFiles(options.dir)) {
    std::string content = ReadFile(path);
    ASSERT_GE(content.size(), kFooterSize);
    const size_t footer = content.size() - kFooterSize;
    const uint64_t filter_offset = ReadU64At(content, footer + 24);
    const uint64_t filter_size = ReadU64At(content, footer + 32);
    if (filter_size == 0) continue;
    content[filter_offset + filter_size / 2] ^= 0x40;
    WriteFile(path, content);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->stats().filter_loads, 0u);
  EXPECT_EQ(db->stats().filter_rebuilds, corrupted);
  EXPECT_GT(db->TotalFilterBits(), 0u);

  auto after = RunProbes(db.get());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].found, after[i].found) << "probe " << i;
    EXPECT_EQ(before[i].key, after[i].key) << "probe " << i;
  }
}

TEST(DbReopen, RetiredBlockedBloomLayoutIsRebuiltNotMisread) {
  // An SST whose filter carries a retired Bloom layout (tag 1, the
  // arithmetic-progression blocked layout; tag 0 over a non-empty bit
  // array, the standard layout) has a valid checksum and a known filter
  // format; only the Bloom parser refuses it. The Db must rebuild that
  // filter from the file's keys and keep answering like a std::map, never
  // probe the old bits.
  for (const uint32_t retired_tag : {1u, 0u}) {
    SCOPED_TRACE("tag " + std::to_string(retired_tag));
    auto options = PersistDbOptions("retired_bloom_layout_" +
                                    std::to_string(retired_tag));
    options.filter_policy = MakeFilterPolicy("bloom:bpk=12");
    std::map<std::string, std::string> reference;
    {
      auto [db, st] = Db::Create(options);
      ASSERT_TRUE(st.ok());
      Rng rng(11);
      FillDb(db.get(), &rng);
    }
    for (uint64_t i = 0; i < 2500; ++i) {
      reference[EncodeKeyBE(i * 10)] =
          "v" + std::to_string(i) + std::string(40, 'x');
    }

    // The "bloom" family's payload is the bare BloomFilter blob, right
    // after the 12-byte filter header; its tag is the high half of header
    // word 1.
    constexpr size_t kTagOffset = 12 + 8 + 4;
    size_t retagged = 0;
    for (const std::string& path : ListSstFiles(options.dir)) {
      std::string content = ReadFile(path);
      ASSERT_GE(content.size(), kFooterSize);
      const size_t footer = content.size() - kFooterSize;
      const uint64_t filter_offset = ReadU64At(content, footer + 24);
      const uint64_t filter_size = ReadU64At(content, footer + 32);
      if (filter_size == 0) continue;
      ASSERT_GT(filter_size, kTagOffset + 4);
      uint32_t tag;
      std::memcpy(&tag, content.data() + filter_offset + kTagOffset, 4);
      ASSERT_EQ(tag, 2u) << path;
      tag = retired_tag;
      std::memcpy(content.data() + filter_offset + kTagOffset, &tag, 4);
      const uint64_t checksum = Murmur3Bytes64(content.data() + filter_offset,
                                               filter_size, 0xF117E12);
      std::memcpy(content.data() + footer + 48, &checksum, 8);
      WriteFile(path, content);
      ++retagged;
    }
    ASSERT_GT(retagged, 0u);

    auto [db, status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << status.ToString();
    EXPECT_EQ(db->stats().filter_loads, 0u);
    EXPECT_EQ(db->stats().filter_rebuilds, retagged);
    EXPECT_GT(db->TotalFilterBits(), 0u);

    for (const auto& [key, value] : reference) {
      SeekResult r = db->Seek(key, key);
      ASSERT_TRUE(r.found) << "false negative";
      EXPECT_EQ(r.value, value);
    }
    for (uint64_t i = 0; i < 400; ++i) {
      const uint64_t lo = (i * 37) % 30000;
      const uint64_t hi = lo + i % 60;
      SeekResult r = db->Seek(EncodeKeyBE(lo), EncodeKeyBE(hi));
      auto it = reference.lower_bound(EncodeKeyBE(lo));
      const bool want = it != reference.end() && it->first <= EncodeKeyBE(hi);
      ASSERT_EQ(r.found, want) << "range " << lo << ".." << hi;
      if (want) {
        EXPECT_EQ(r.key, it->first);
      }
    }
  }
}

TEST(DbReopen, FilterBytesAreChargedToTheBlockCache) {
  auto options = PersistDbOptions("pinned");
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    Rng rng(3);
    FillDb(db.get(), &rng);
    size_t n_files = 0;
    for (size_t n : db->LevelFileCounts()) n_files += n;
    EXPECT_GT(db->cache().pinned_bytes(), 0u);
    EXPECT_GE(db->cache().used_bytes(), db->cache().pinned_bytes());
    // Each file charges floor(SizeBits/8): within one byte per file.
    EXPECT_LE(db->cache().pinned_bytes(), db->TotalFilterBits() / 8);
    EXPECT_GE(db->cache().pinned_bytes() + n_files,
              db->TotalFilterBits() / 8);
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_GT(db->cache().pinned_bytes(), 0u);
  EXPECT_LE(db->cache().pinned_bytes(), db->TotalFilterBits() / 8);
}

TEST(DbReopen, MissingManifestOpensEmpty) {
  auto options = PersistDbOptions("fresh");
  ::mkdir(options.dir.c_str(), 0755);
  ::unlink((options.dir + "/MANIFEST").c_str());
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->TotalKeys(), 0u);
}

TEST(DbReopen, ReopenedDbKeepsCompactingAndReopening) {
  // Two full generations: open -> write -> close -> open -> write more ->
  // close -> open. Exercises manifest rewrite on a recovered tree.
  auto options = PersistDbOptions("generations");
  options.filter_policy = MakeFilterPolicy("rosetta:bpk=12");
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          db->Put(EncodeKeyBE(i * 4), "gen1-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
  }
  {
    auto [db, status] = Db::Open(options);
    ASSERT_NE(db, nullptr) << status.ToString();
    for (uint64_t i = 1000; i < 2000; ++i) {
      ASSERT_TRUE(
          db->Put(EncodeKeyBE(i * 4), "gen2-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    EXPECT_EQ(db->TotalKeys(), 2000u);
  }
  auto [db, status] = Db::Open(options);
  ASSERT_NE(db, nullptr) << status.ToString();
  EXPECT_EQ(db->TotalKeys(), 2000u);
  SeekResult r = db->Seek(EncodeKeyBE(0), EncodeKeyBE(0));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "gen1-0");
  r = db->Seek(EncodeKeyBE(1500 * 4), EncodeKeyBE(1500 * 4));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "gen2-1500");
}

}  // namespace
}  // namespace proteus
