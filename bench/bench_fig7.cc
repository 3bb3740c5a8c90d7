// Figures 7 and 8: robustness to shifting query distributions in miniLSM.
//
// Figure 7: the workload transitions gradually (transition ratio rising
// linearly from 0 to 1 across batches) between large-range Uniform and
// small-range Correlated queries while Puts trigger compactions that
// rebuild filters from the live sample query queue. Proteus re-designs
// itself; SuRF and Rosetta cannot.
//
// Figure 8 (via --instant): the distribution switches abruptly halfway.
//
// Per batch we report cumulative wall latency, SST probes per seek, and
// the file-level FPR.

#include <cstdio>
#include <cstring>
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

struct Direction {
  const char* name;
  Dataset dataset;
  QuerySpec start, end;
};

void RunDirection(const Args& args, const Direction& dir, bool instant,
                  bool proteus_only) {
  const size_t n_initial = args.KeysOr(60000, 20000000);
  const size_t n_puts = n_initial / 2;
  const size_t n_seeks = args.QueriesOr(40000, 60000000);
  const int n_batches = 10;
  const size_t value_size = 128;

  std::vector<uint64_t> all_keys =
      GenerateKeys(dir.dataset, n_initial + n_puts, args.seed);
  // Split into initial load and later Puts (interleaved sampling keeps both
  // covering the full key range).
  std::vector<uint64_t> initial, later;
  for (size_t i = 0; i < all_keys.size(); ++i) {
    (i % 3 == 2 && later.size() < n_puts ? later : initial)
        .push_back(all_keys[i]);
  }
  // Query pools, empty against the full final key set.
  auto start_pool = GenerateQueries(all_keys, dir.start, n_seeks, args.seed + 1);
  auto end_pool = GenerateQueries(all_keys, dir.end, n_seeks, args.seed + 2);

  struct Entry {
    std::string name;
    std::string spec;  // filter policy spec string
  };
  std::vector<Entry> entries = {
      {"proteus", "proteus:bpk=14"},
  };
  if (!proteus_only) {
    entries.push_back({"surf-real4", "surf:mode=real,suffix=4"});
    entries.push_back({"rosetta", "rosetta:bpk=14"});
  }
  if (!args.filter.empty()) entries.push_back({args.filter, args.filter});

  bench::PrintHeader(dir.name);
  for (const Entry& entry : entries) {
    DbOptions options;
    options.dir = "/tmp/proteus_bench_fig7";
    // Small memtable so flushes and compactions — and therefore filter
    // rebuilds from the live query queue — happen throughout the run, as
    // the paper's ongoing compactions do (~15-20 per batch at their scale).
    options.memtable_bytes = 256u << 10;
    options.sst_target_bytes = 2u << 20;
    options.block_cache_bytes = 32u << 20;
    options.l1_size_bytes = 4u << 20;
    options.queue_options.sample_rate = 10;  // responsive queue at this scale
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
    for (size_t i = 0; i < 2000 && i < start_pool.size(); ++i) {
      seed.push_back(
          {EncodeKeyBE(start_pool[i].lo), EncodeKeyBE(start_pool[i].hi)});
    }
    db.query_queue().Seed(seed);
    for (uint64_t k : initial) {
      db.Put(EncodeKeyBE(k), MakeValuePayload(k, value_size));
    }
    db.CompactAll();

    std::printf("-- %s --\n", entry.name.c_str());
    std::printf("%-7s %-8s %-12s %-10s %-9s %-12s\n", "batch", "ratio",
                "cum-sec", "ns/seek", "sst/seek", "fileFPR");
    Rng rng(args.seed + 7);
    double cumulative_ns = 0;
    size_t put_index = 0;
    size_t batch_seeks = n_seeks / n_batches;
    // Pace the Puts so they cover the whole run (paper: 40M Puts uniformly
    // interleaved with 60M Seeks).
    size_t puts_per_batch = later.size() / n_batches;
    size_t put_stride = std::max<size_t>(1, batch_seeks / puts_per_batch);
    for (int batch = 0; batch < n_batches; ++batch) {
      double ratio = instant ? (batch * 2 < n_batches ? 0.0 : 1.0)
                             : static_cast<double>(batch) / (n_batches - 1);
      uint64_t fpf_before = db.stats().false_positive_files;
      uint64_t checks_before = db.stats().filter_checks;
      uint64_t sst_before = db.stats().sst_seeks;
      size_t batch_put_target = puts_per_batch * (batch + 1);
      Stopwatch timer;
      for (size_t i = 0; i < batch_seeks; ++i) {
        if (i % put_stride == 0 && put_index < batch_put_target &&
            put_index < later.size()) {
          uint64_t k = later[put_index++];
          db.Put(EncodeKeyBE(k), MakeValuePayload(k, value_size));
        }
        const auto& pool =
            rng.NextDouble() < ratio ? end_pool : start_pool;
        const auto& q = pool[rng.NextBelow(pool.size())];
        db.Seek(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi));
      }
      cumulative_ns += static_cast<double>(timer.ElapsedNanos());
      uint64_t checks = db.stats().filter_checks - checks_before;
      uint64_t fpf = db.stats().false_positive_files - fpf_before;
      uint64_t ssts = db.stats().sst_seeks - sst_before;
      std::printf("%-7d %-8.2f %-12.2f %-10.0f %-9.3f %-12.4f\n", batch,
                  ratio, cumulative_ns / 1e9,
                  cumulative_ns / ((batch + 1.0) * batch_seeks),
                  static_cast<double>(ssts) / batch_seeks,
                  checks == 0 ? 0.0
                              : static_cast<double>(fpf) /
                                    static_cast<double>(checks));
    }
  }
}

void Run(const Args& args, bool instant) {
  QuerySpec uniform_large;
  uniform_large.dist = QueryDist::kUniform;
  uniform_large.range_max = uint64_t{1} << 16;
  QuerySpec corr_small;
  corr_small.dist = QueryDist::kCorrelated;
  corr_small.range_max = uint64_t{1} << 4;
  corr_small.corr_degree = uint64_t{1} << 10;

  // Paper pairing: Normal keys for Uniform->Correlated, Uniform keys for
  // Correlated->Uniform (Section 6.4).
  Direction d1{"Uniform -> Correlated (Normal keys)", Dataset::kNormal,
               uniform_large, corr_small};
  Direction d2{"Correlated -> Uniform (Uniform keys)", Dataset::kUniform,
               corr_small, uniform_large};
  RunDirection(args, d1, instant, /*proteus_only=*/instant);
  RunDirection(args, d2, instant, /*proteus_only=*/instant);
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  auto args = proteus::bench::ParseArgs(argc, argv, {"--instant"});
  bool instant = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--instant") == 0) instant = true;
  }
  std::printf("Figure %s: robustness to %s workload shifts\n",
              instant ? "8" : "7", instant ? "immediate" : "gradual");
  proteus::Run(args, instant);
  return 0;
}
