// Scenario: an LSM key-value store serving closed range scans (YCSB
// workload E shape) — the paper's Section 6 setting. Shows how per-SST
// Proteus filters, fed by the live sample query queue, eliminate the I/O
// of empty scans.

#include <cstdio>
#include <vector>

#include "lsm/db.h"
#include "surf/surf.h"
#include "workload/datasets.h"
#include "workload/queries.h"

int main() {
  using namespace proteus;

  auto keys = GenerateKeys(Dataset::kNormal, 50000, 7);
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;  // mixed: short correlated + long uniform
  spec.range_max = uint64_t{1} << 16;
  spec.split_corr_range_max = uint64_t{1} << 4;
  spec.corr_degree = uint64_t{1} << 8;
  auto queries = GenerateQueries(keys, spec, 20000, 8);

  for (bool use_filter : {false, true}) {
    DbOptions options;
    options.dir = "/tmp/proteus_example_lsm";
    options.memtable_bytes = 1 << 20;
    if (use_filter) options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
    auto [db_ptr, create_status] = Db::Create(options);
    if (db_ptr == nullptr) {
      std::fprintf(stderr, "create failed: %s\n",
                   create_status.ToString().c_str());
      return 1;
    }
    Db& db = *db_ptr;

    // Seed the queue with a few hundred observed queries so the first
    // flush already knows the workload.
    std::vector<std::pair<std::string, std::string>> seed;
    for (size_t i = 0; i < 500; ++i) {
      seed.push_back({EncodeKeyBE(queries[i].lo), EncodeKeyBE(queries[i].hi)});
    }
    db.query_queue().Seed(seed);

    for (uint64_t k : keys) {
      db.Put(EncodeKeyBE(k), MakeValuePayload(k, 256));
    }
    db.CompactAll();
    db.ResetStats();

    size_t found = 0;
    for (const auto& q : queries) {
      found += db.Seek(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)).found;
    }
    const DbStats& s = db.stats();
    std::printf("%s filters:\n", use_filter ? "with Proteus" : "without");
    std::printf("  seeks=%llu found=%zu sst-probes=%llu (%.3f/seek) "
                "false-positive files=%llu\n",
                static_cast<unsigned long long>(s.seeks), found,
                static_cast<unsigned long long>(s.sst_seeks),
                static_cast<double>(s.sst_seeks) / s.seeks,
                static_cast<unsigned long long>(s.false_positive_files));
  }
  return 0;
}
