// Figure 6: end-to-end range-query performance in miniLSM (the RocksDB
// stand-in) across four dataset-workload panels and memory budgets.
//
// For each (panel, BPK, filter) we populate a fresh DB, compact fully,
// warm the cache, then execute empty closed Seeks and report:
//   ns/seek      — measured wall latency per Seek
//   sst/seek     — SST files probed per Seek (the I/O the filter failed to
//                  avoid; disk-bound latency is proportional to this)
//   modeled ms   — wall time + cache-miss block reads x 100us, a simple
//                  SSD model standing in for the paper's on-disk reads
//   fileFPR      — false-positive file probes / filter checks
//   filter BPK   — measured filter memory per key

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

using bench::Args;

struct Panel {
  const char* name;
  Dataset dataset;
  QuerySpec spec;
};

void RunPanel(const Args& args, const Panel& panel) {
  const size_t n_keys = args.KeysOr(100000, 50000000);
  const size_t n_seeks = args.QueriesOr(20000, 1000000);
  const size_t value_size = 256;

  std::vector<uint64_t> keys, real_points;
  GenerateKeysAndQueryPoints(panel.dataset, n_keys, n_keys / 10, args.seed,
                             &keys, &real_points);
  auto seed_queries =
      GenerateQueries(keys, panel.spec, 2000, args.seed + 1, real_points);
  auto eval =
      GenerateQueries(keys, panel.spec, n_seeks, args.seed + 2, real_points);

  bench::PrintHeader(panel.name);
  std::printf("%-6s %-12s %-11s %-10s %-12s %-9s %-10s\n", "bpk", "filter",
              "ns/seek", "sst/seek", "modeled-ms", "fileFPR", "filterBPK");

  for (double bpk : {8.0, 12.0, 16.0}) {
    struct Entry {
      std::string name;
      std::string spec;  // FilterRegistry policy spec string
    };
    std::vector<Entry> entries = {
        {"none", "none"},
        {"proteus", "proteus:bpk=" + FormatSpecDouble(bpk)},
        {"surf-real4", "surf:mode=real,suffix=4"},
        {"rosetta", "rosetta:bpk=" + FormatSpecDouble(bpk)},
    };
    if (!args.filter.empty()) entries.push_back({args.filter, args.filter});
    for (const Entry& entry : entries) {
      DbOptions options;
      options.dir = "/tmp/proteus_bench_fig6";
      options.memtable_bytes = 4u << 20;
      options.sst_target_bytes = 8u << 20;
      options.block_cache_bytes = 32u << 20;
      options.l1_size_bytes = 16u << 20;
      options.filter_policy =
          bench::MakePolicyOrDie(entry.spec);
      auto [db_ptr, db_status] = Db::Create(options);
      if (!db_status.ok()) {
        std::fprintf(stderr, "db create failed: %s\n",
                     db_status.ToString().c_str());
        std::exit(1);
      }
      Db& db = *db_ptr;
      std::vector<std::pair<std::string, std::string>> seed;
      for (const auto& q : seed_queries) {
        seed.push_back({EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)});
      }
      db.query_queue().Seed(seed);
      for (uint64_t k : keys) {
        db.Put(EncodeKeyBE(k), MakeValuePayload(k, value_size));
      }
      db.CompactAll();
      // Warm: point seeks on existing keys (paper warms cache with 1M
      // point queries).
      for (size_t i = 0; i < std::min<size_t>(n_keys, 20000); i += 7) {
        db.Seek(EncodeKeyBE(keys[i]), EncodeKeyBE(keys[i]));
      }
      db.ResetStats();
      db.cache().ResetStats();
      Stopwatch timer;
      for (const auto& q : eval) {
        db.Seek(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi));
      }
      double wall_ns = static_cast<double>(timer.ElapsedNanos());
      const DbStats& stats = db.stats();
      double ns_per_seek = wall_ns / static_cast<double>(eval.size());
      double sst_per_seek = static_cast<double>(stats.sst_seeks) /
                            static_cast<double>(eval.size());
      double modeled_ms =
          wall_ns / 1e6 +
          static_cast<double>(db.cache().stats().misses) * 0.1;
      double file_fpr =
          stats.filter_checks == 0
              ? 0.0
              : static_cast<double>(stats.false_positive_files) /
                    static_cast<double>(stats.filter_checks);
      double filter_bpk = static_cast<double>(db.TotalFilterBits()) /
                          static_cast<double>(n_keys);
      std::printf("%-6.0f %-12s %-11.0f %-10.3f %-12.1f %-9.4f %-10.2f\n",
                  bpk, entry.name.c_str(), ns_per_seek, sst_per_seek,
                  modeled_ms,
                  file_fpr, filter_bpk);
    }
  }
}

void Run(const Args& args) {
  QuerySpec uu;
  uu.dist = QueryDist::kUniform;
  uu.range_max = uint64_t{1} << 14;
  QuerySpec uc;
  uc.dist = QueryDist::kCorrelated;
  uc.range_max = uint64_t{1} << 6;
  uc.corr_degree = uint64_t{1} << 10;
  QuerySpec ns;
  ns.dist = QueryDist::kSplit;
  ns.range_max = uint64_t{1} << 19;
  ns.split_corr_range_max = uint64_t{1} << 3;
  ns.corr_degree = uint64_t{1} << 3;
  QuerySpec fr;
  fr.dist = QueryDist::kReal;
  fr.range_max = uint64_t{1} << 10;

  const Panel panels[] = {
      {"Uniform-Uniform (large ranges)", Dataset::kUniform, uu},
      {"Uniform-Correlated (small ranges)", Dataset::kUniform, uc},
      {"Normal-Split", Dataset::kNormal, ns},
      {"Facebook-Real", Dataset::kFacebook, fr},
  };
  for (const Panel& p : panels) RunPanel(args, p);
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  auto args = proteus::bench::ParseArgs(argc, argv);
  std::printf("Figure 6: end-to-end miniLSM performance vs memory budget\n");
  proteus::Run(args);
  return 0;
}
