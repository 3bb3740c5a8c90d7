// Demonstrates the Db::Open recovery contract: fill a database, close
// it, and reopen it from disk alone — the LSM tree comes back from the
// MANIFEST and every SST's filter is deserialized from its on-disk
// filter block (stats().filter_loads) instead of being rebuilt from keys
// (stats().filter_rebuilds stays 0).
//
// Also shows the durable-write contract: every Put/Delete returns a
// proteus::Status and is group-committed to the WAL before it is
// acknowledged, so writes that were never flushed still come back after
// a crash (here simulated with TEST_CrashClose, the example's stand-in
// for kill -9) via WAL replay (stats().wal_replayed).

#include <cstdio>
#include <string>

#include "lsm/db.h"
#include "surf/surf.h"

using namespace proteus;

int main() {
  DbOptions options;
  options.dir = "/tmp/proteus_example_reopen";
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.l0_compaction_trigger = 3;
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");

  std::printf("== first life: fill and close ==\n");
  {
    auto [db_ptr, create_status] = Db::Create(options);
    if (db_ptr == nullptr) {
      std::fprintf(stderr, "create failed: %s\n",
                   create_status.ToString().c_str());
      return 1;
    }
    Db& db = *db_ptr;
    for (uint64_t i = 0; i < 20000; ++i) {
      Status s = db.Put(EncodeKeyBE(i * 50), "value-" + std::to_string(i));
      if (!s.ok()) {  // a non-OK Put was rejected: the key is NOT stored
        std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    // Sample some empty ranges so Proteus sees a workload at flush time.
    for (uint64_t i = 0; i < 2000; ++i) {
      db.Seek(EncodeKeyBE(i * 501 + 1), EncodeKeyBE(i * 501 + 20));
    }
    if (Status s = db.CompactAll(); !s.ok()) {
      std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("  keys=%llu filter-bits=%llu filters-built-in %.1f ms\n",
                static_cast<unsigned long long>(db.TotalKeys()),
                static_cast<unsigned long long>(db.TotalFilterBits()),
                static_cast<double>(db.stats().filter_build_ns) / 1e6);
  }  // destructor flushes the memtable and persists the manifest

  std::printf("== second life: Db::Open from disk ==\n");
  auto [db, status] = Db::Open(options);
  if (db == nullptr) {
    std::fprintf(stderr, "open failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("  keys=%llu filter-bits=%llu\n",
              static_cast<unsigned long long>(db->TotalKeys()),
              static_cast<unsigned long long>(db->TotalFilterBits()));
  std::printf("  filters loaded=%llu rebuilt=%llu rebuild-time=%.1f ms\n",
              static_cast<unsigned long long>(db->stats().filter_loads),
              static_cast<unsigned long long>(db->stats().filter_rebuilds),
              static_cast<double>(db->stats().filter_build_ns) / 1e6);

  if (SeekResult r = db->Seek(EncodeKeyBE(500), EncodeKeyBE(500)); r.found) {
    std::printf("  seek 500 -> %s\n", r.value.c_str());
  }
  db->ResetStats();
  for (uint64_t i = 0; i < 2000; ++i) {
    db->Seek(EncodeKeyBE(i * 501 + 1), EncodeKeyBE(i * 501 + 20));
  }
  const DbStats s = db->stats();
  std::printf(
      "  2000 empty seeks: filter-negatives=%llu sst-probes=%llu\n",
      static_cast<unsigned long long>(s.filter_negatives),
      static_cast<unsigned long long>(s.sst_seeks));

  std::printf("== third life: crash with unflushed writes ==\n");
  // These writes stay in the memtable — no flush happens before the
  // simulated kill -9 — yet each Put was acknowledged only after its WAL
  // record was committed, so replay must bring every one of them back.
  for (uint64_t i = 0; i < 500; ++i) {
    if (Status st = db->Put(EncodeKeyBE(5'000'000 + i), "wal-" + std::to_string(i));
        !st.ok()) {
      std::fprintf(stderr, "put failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  db->Delete(EncodeKeyBE(500));  // tombstones ride the WAL too
  db->TEST_CrashClose();
  db.reset();

  auto [revived, revive_status] = Db::Open(options);
  if (revived == nullptr) {
    std::fprintf(stderr, "open after crash failed: %s\n",
                 revive_status.ToString().c_str());
    return 1;
  }
  std::printf("  wal records replayed=%llu\n",
              static_cast<unsigned long long>(revived->stats().wal_replayed));
  bool has_new =
      revived->Seek(EncodeKeyBE(5'000'000), EncodeKeyBE(5'000'000)).found;
  bool has_deleted = revived->Seek(EncodeKeyBE(500), EncodeKeyBE(500)).found;
  std::printf("  unflushed put recovered: %s, deleted key gone: %s\n",
              has_new ? "yes" : "NO (bug!)",
              has_deleted ? "NO (bug!)" : "yes");

  if (Status vs = revived->VerifyChecksums(); vs.ok()) {
    std::printf("  all data-block checksums verify: OK\n");
  } else {
    std::printf("  checksum verification: %s\n", vs.ToString().c_str());
  }
  return 0;
}
