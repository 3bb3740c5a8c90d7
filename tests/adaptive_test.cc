// Adaptive self-design, tested three ways:
//
//  * A seeded randomized differential harness: Put/Delete/Seek/MultiSeek
//    against a std::map reference, with a mid-run workload shift and a
//    close/reopen, while flushes, compactions, and drift-triggered
//    redesigns run underneath. The filters' only contract is zero false
//    negatives — every divergence from the reference model is a bug,
//    whichever subsystem caused it.
//  * A serialization property: a filter built the way a redesign builds
//    it (the policy's Build over the keys and the sample queries)
//    round-trips Serialize -> Deserialize -> Serialize bit-identically,
//    for every registered family.
//  * Format refusal: a handcrafted older (v2 pre-MVCC, v3
//    pre-provenance, or v4 snapshot-plus-delta-log) MANIFEST fails Open
//    as NotSupported, naming the version it found, and is left
//    untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "surf/surf.h"
#include "util/crc32c.h"
#include "util/serial.h"

namespace proteus {
namespace {

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

struct Phase {
  uint64_t key_space;   // puts draw keys from [0, key_space)
  uint64_t range_max;   // seek ranges draw widths from [0, range_max)
  uint64_t cluster = 0; // > 0: keys/queries cluster into this many spots
  /// Added to every query's lo. Offsetting queries into the gaps
  /// between key clusters makes them empty-but-plausible: exactly the
  /// traffic that turns stale filters into false positives and feeds
  /// the drift detector.
  uint64_t query_offset = 0;
};

class Differential {
 public:
  Differential(Db* db, std::mt19937_64* rng) : db_(db), rng_(rng) {}

  void set_db(Db* db) { db_ = db; }

  void Put(const Phase& p) {
    const uint64_t k = DrawKey(p);
    const std::string v = "v" + std::to_string(k) + "#" + std::to_string(op_);
    ASSERT_TRUE(db_->Put(EncodeKeyBE(k), v).ok());
    ref_[k] = v;
    inserted_.push_back(k);
    ++op_;
  }

  void Delete() {
    if (inserted_.empty()) return;
    const uint64_t k = inserted_[(*rng_)() % inserted_.size()];
    ASSERT_TRUE(db_->Delete(EncodeKeyBE(k)).ok());
    ref_.erase(k);
    ++op_;
  }

  void Seek(const Phase& p) {
    const auto [lo, hi] = DrawRange(p);
    Check(db_->Seek(EncodeKeyBE(lo), EncodeKeyBE(hi)), lo, hi);
    ++op_;
  }

  void MultiSeek(const Phase& p) {
    QueryBatch batch;
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    for (int i = 0; i < 16; ++i) {
      const auto [lo, hi] = DrawRange(p);
      batch.push_back({EncodeKeyBE(lo), EncodeKeyBE(hi)});
      ranges.emplace_back(lo, hi);
    }
    std::vector<MultiSeekResult> results;
    db_->MultiSeek(batch, &results);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      Check(results[i], ranges[i].first, ranges[i].second);
    }
    ++op_;
  }

  /// Every live key must still be visible; every deleted key must not
  /// resurrect (point-seek its exact position).
  void VerifyAll() {
    for (const auto& [k, v] : ref_) {
      SeekResult r = db_->Seek(EncodeKeyBE(k), EncodeKeyBE(k));
      ASSERT_TRUE(r.status.ok());
      ASSERT_TRUE(r.found) << "false negative for key " << k;
      EXPECT_EQ(r.value, v) << "stale value for key " << k;
    }
  }

  size_t live_keys() const { return ref_.size(); }

 private:
  uint64_t DrawKey(const Phase& p) {
    if (p.cluster == 0) return (*rng_)() % p.key_space;
    // Clustered: a hotspot base plus a small offset.
    const uint64_t spot = ((*rng_)() % p.cluster) * (p.key_space / p.cluster);
    return spot + (*rng_)() % (p.range_max * 8 + 1);
  }

  std::pair<uint64_t, uint64_t> DrawRange(const Phase& p) {
    const uint64_t lo = DrawKey(p) + p.query_offset;
    return {lo, lo + (*rng_)() % (p.range_max + 1)};
  }

  void Check(const SeekResult& r, uint64_t lo, uint64_t hi) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    auto it = ref_.lower_bound(lo);
    if (it != ref_.end() && it->first <= hi) {
      ASSERT_TRUE(r.found) << "false negative in [" << lo << ", " << hi
                           << "]: expected key " << it->first;
      EXPECT_EQ(r.key, EncodeKeyBE(it->first));
      EXPECT_EQ(r.value, it->second);
    } else {
      EXPECT_FALSE(r.found) << "phantom key in [" << lo << ", " << hi << "]";
    }
  }

  Db* db_;
  std::mt19937_64* rng_;
  std::map<uint64_t, std::string> ref_;
  std::vector<uint64_t> inserted_;
  uint64_t op_ = 0;
};

DbOptions AdaptiveOptions(const std::string& dir) {
  DbOptions options;
  options.dir = dir;
  options.memtable_bytes = 16 << 10;  // frequent flushes
  options.sst_target_bytes = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.l1_size_bytes = 64 << 10;
  options.level_size_multiplier = 4.0;
  options.wal_sync = false;  // group commit still orders the writes
  options.filter_policy = MakeFilterPolicy("proteus:bpk=12");
  options.queue_options = {.capacity = 2000, .sample_rate = 1};
  // Harness-sized drift thresholds so redesigns actually happen inside
  // a few thousand operations.
  options.drift.min_probes = 64;
  options.drift.min_window_samples = 32;
  return options;
}

void RunDifferential(uint64_t seed) {
  const std::string dir = "/tmp/proteus_adaptive_" + std::to_string(seed);
  DbOptions options = AdaptiveOptions(dir);

  auto [db, create_status] = Db::Create(options);
  ASSERT_TRUE(create_status.ok()) << create_status.ToString();

  std::mt19937_64 rng(seed);
  Differential diff(db.get(), &rng);

  // Phase A: uniform keys, wide scans. Phase B (the shift): clustered
  // keys, point-ish lookups. A close/reopen sits between them, so phase
  // B reads cross recovered state and phase-A-designed filters.
  const Phase phase_a{/*key_space=*/uint64_t{1} << 30,
                      /*range_max=*/uint64_t{1} << 14};
  // Queries sit just past each cluster's keys: empty, but sharing a
  // long prefix with live keys — the hardest traffic for a filter
  // designed against the old wide-scan window.
  const Phase phase_b{/*key_space=*/uint64_t{1} << 30,
                      /*range_max=*/uint64_t{1} << 4, /*cluster=*/64,
                      /*query_offset=*/512};

  auto run_phase = [&](const Phase& p, int ops) {
    for (int i = 0; i < ops; ++i) {
      const uint64_t dice = rng() % 100;
      if (dice < 40) {
        diff.Put(p);
      } else if (dice < 50) {
        diff.Delete();
      } else if (dice < 90) {
        diff.Seek(p);
      } else {
        diff.MultiSeek(p);
      }
      if (testing::Test::HasFatalFailure()) return;
    }
  };

  run_phase(phase_a, 1500);
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  ASSERT_TRUE(db->CompactAll().ok());
  db->WaitForBackground();

  // Reopen mid-run: phase B continues against recovered files whose
  // probe counters and design provenance came back from the MANIFEST.
  db.reset();
  auto [reopened, open_status] = Db::Open(options);
  ASSERT_TRUE(open_status.ok()) << open_status.ToString();
  db = std::move(reopened);
  diff.set_db(db.get());

  run_phase(phase_b, 1500);
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  // Rewrite the whole tree now, so every file is designed from the B
  // window. Without this, which files phase B's own flushes and
  // compactions replaced depends on background timing, and files still
  // designed from a phase-A-like window see no shift in the reads below.
  ASSERT_TRUE(db->CompactAll().ok());
  db->WaitForBackground();

  // Every file's design is now current for phase B's point-ish lookups,
  // and correctly undisturbed. Shift the reads once more (back to wide
  // uniform scans) and keep serving until drift-triggered redesigns ran
  // (bounded; the differential checks stay on the whole time). Pure
  // seeks: a put here would flush/compact the tree and replace the very
  // files whose probe counters are accumulating toward the threshold.
  for (int round = 0; round < 40 && db->stats().redesigns == 0; ++round) {
    for (int i = 0; i < 400; ++i) diff.Seek(phase_a);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    db->WaitForBackground();
  }
  EXPECT_GT(db->stats().redesigns, 0u)
      << "shifted workload never triggered a redesign";
  EXPECT_GT(db->stats().drift_detected, 0u);

  diff.VerifyAll();
  ASSERT_GT(diff.live_keys(), 100u);  // the run actually built a tree
  ASSERT_TRUE(db->background_error().ok());
}

TEST(AdaptiveDifferentialTest, SeedA11ce) { RunDifferential(0xA11CE); }

TEST(AdaptiveDifferentialTest, SeedB0b) { RunDifferential(0xB0B); }

// ---------------------------------------------------------------------------
// Redesigned filters round-trip their serialized form bit-identically
// ---------------------------------------------------------------------------

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

TEST(AdaptiveSerializeTest, RedesignedBlobsRoundTripBitIdentically) {
  std::vector<std::string> keys;
  for (uint64_t k = 1000; k < 1000 + 400 * 97; k += 97) {
    keys.push_back(EncodeKeyBE(k));
  }
  std::vector<std::pair<std::string, std::string>> queries;
  for (uint64_t q = 500; q < 500 + 60 * 731; q += 731) {
    queries.emplace_back(EncodeKeyBE(q), EncodeKeyBE(q + 13));
  }

  for (const char* spec : kFamilySpecs) {
    SCOPED_TRACE(spec);
    Status status;
    auto policy = MakeFilterPolicy(spec, &status);
    ASSERT_NE(policy, nullptr) << status.ToString();

    // Build exactly as a flush, compaction or redesign does (FinishFile):
    // the file's keys and the query-queue snapshot.
    auto built = policy->Build(keys, queries);
    ASSERT_NE(built, nullptr);

    std::string blob1;
    built->Serialize(&blob1);
    auto reloaded = DeserializeSstFilter(blob1, &status);
    ASSERT_NE(reloaded, nullptr) << status.ToString();
    std::string blob2;
    reloaded->Serialize(&blob2);
    EXPECT_EQ(blob1, blob2) << "serialized form not a fixed point";
    EXPECT_EQ(built->SizeBits(), reloaded->SizeBits());

    // And the reloaded filter answers like the built one.
    for (const auto& [lo, hi] : queries) {
      EXPECT_EQ(built->MayContain(lo, hi), reloaded->MayContain(lo, hi));
    }
    for (const auto& k : keys) {
      EXPECT_TRUE(reloaded->MayContain(k, k));  // no false negatives
    }
  }
}

// ---------------------------------------------------------------------------
// Older MANIFEST versions are refused
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

// Parses the single v5 record a clean close leaves behind and re-encodes
// it as a `version` record: same tree; before version 4 no per-file
// provenance, and (version 2) no last_seqno.
std::string DowngradeManifest(const std::string& manifest,
                              uint64_t version_out) {
  std::string_view cursor(manifest);
  // Frame: length u32 | crc32c u32 | payload.
  EXPECT_GE(cursor.size(), 8u);
  const uint32_t length = LoadFixed32(cursor.data());
  cursor.remove_prefix(8);
  std::string_view payload = cursor.substr(0, length);

  EXPECT_EQ(payload[0], 1);  // snapshot record
  payload.remove_prefix(1);
  uint64_t magic = 0, version = 0, next_id = 0, last_seqno = 0, n_levels = 0;
  EXPECT_TRUE(GetFixed64(&payload, &magic));
  EXPECT_TRUE(GetFixed64(&payload, &version));
  EXPECT_EQ(version, 5u);
  EXPECT_TRUE(GetFixed64(&payload, &next_id));
  EXPECT_TRUE(GetFixed64(&payload, &last_seqno));
  EXPECT_TRUE(GetFixed64(&payload, &n_levels));

  std::string out;
  out.push_back(1);
  PutFixed64(&out, magic);
  PutFixed64(&out, version_out);
  PutFixed64(&out, next_id);
  if (version_out >= 3) PutFixed64(&out, last_seqno);
  PutFixed64(&out, n_levels);
  for (uint64_t l = 0; l < n_levels; ++l) {
    uint64_t n_files = 0;
    EXPECT_TRUE(GetFixed64(&payload, &n_files));
    PutFixed64(&out, n_files);
    for (uint64_t i = 0; i < n_files; ++i) {
      uint64_t id = 0, n_entries = 0, file_size = 0;
      std::string smallest, largest;
      EXPECT_TRUE(GetFixed64(&payload, &id));
      EXPECT_TRUE(GetLengthPrefixed(&payload, &smallest));
      EXPECT_TRUE(GetLengthPrefixed(&payload, &largest));
      EXPECT_TRUE(GetFixed64(&payload, &n_entries));
      EXPECT_TRUE(GetFixed64(&payload, &file_size));
      PutFixed64(&out, id);
      PutLengthPrefixed(&out, smallest);
      PutLengthPrefixed(&out, largest);
      PutFixed64(&out, n_entries);
      PutFixed64(&out, file_size);
      // The 7 provenance/counter words, kept from version 4 on.
      for (int word = 0; word < 7; ++word) {
        uint64_t value = 0;
        EXPECT_TRUE(GetFixed64(&payload, &value));
        if (version_out >= 4) PutFixed64(&out, value);
      }
    }
  }
  std::string framed;
  AppendCrcFrame(&framed, out);
  return framed;
}

TEST(AdaptiveManifestTest, OlderManifestVersionIsNotSupported) {
  const std::string dir = "/tmp/proteus_adaptive_old_manifest";
  DbOptions options = AdaptiveOptions(dir);
  {
    auto [db, status] = Db::Create(options);
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (uint64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(db->Put(EncodeKeyBE(k * 31), "v" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->CompactAll().ok());
    db->WaitForBackground();
  }  // clean close writes a v5 MANIFEST

  const std::string manifest_path = dir + "/MANIFEST";
  const std::string current = ReadFile(manifest_path);
  // A version-4 MANIFEST could hold delta records (kind 2) after its
  // snapshot; it is refused as a whole, deltas or not.
  std::string v4_delta_payload(1, '\x02');
  PutFixed64(&v4_delta_payload, 0);
  std::string v4_with_delta = DowngradeManifest(current, 4);
  AppendCrcFrame(&v4_with_delta, v4_delta_payload);
  const std::vector<std::pair<uint64_t, std::string>> olds = {
      {2, DowngradeManifest(current, 2)},
      {3, DowngradeManifest(current, 3)},
      {4, DowngradeManifest(current, 4)},
      {4, v4_with_delta},
  };
  for (const auto& [version, old] : olds) {
    WriteFile(manifest_path, old);
    auto [db, status] = Db::Open(options);
    EXPECT_EQ(db, nullptr);
    EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
    EXPECT_NE(status.ToString().find("manifest version " +
                                     std::to_string(version)),
              std::string::npos)
        << status.ToString();
    // Refusal rewrites nothing: the old file is still there, byte for byte.
    EXPECT_EQ(ReadFile(manifest_path), old);
  }
  // Nor did it touch the tree: with the current MANIFEST back in place,
  // every key answers again.
  WriteFile(manifest_path, current);
  auto [db, status] = Db::Open(options);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (uint64_t k = 0; k < 2000; ++k) {
    SeekResult r = db->Seek(EncodeKeyBE(k * 31), EncodeKeyBE(k * 31));
    ASSERT_TRUE(r.found) << "lost key " << k * 31;
    EXPECT_EQ(r.value, "v" + std::to_string(k));
  }
}

}  // namespace
}  // namespace proteus
