// Figure 9: variable-length (string) keys.
//  (a-d) In-memory FPR vs BPK for Proteus vs SuRF on synthetic fixed-length
//        string keys (the paper's 1440-bit keys by default at paper scale;
//        the small scale uses 200-bit keys for the same shapes plus one
//        1440-bit panel). Proteus' chosen trie depth / Bloom prefix length
//        is printed like the paper's annotations.
//  (e)   Synthetic `.org` domains in miniLSM: latency and FPR vs BPK.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/proteus_str.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "workload/datasets.h"
#include "workload/string_gen.h"

namespace proteus {
namespace {

using bench::Args;

struct Panel {
  const char* name;
  StrDataset dataset;
  StrQueryDist dist;
};

void RunInMemory(const Args& args, size_t key_bytes) {
  const size_t n_keys = args.KeysOr(20000, 10000000);
  const size_t n_samples = args.SamplesOr(1000, 20000);
  const size_t n_eval = args.QueriesOr(4000, 1000000);
  const uint32_t max_bits = static_cast<uint32_t>(key_bytes * 8);

  const Panel panels[] = {
      {"Uniform-Uniform", StrDataset::kUniform, StrQueryDist::kUniform},
      {"Uniform-Correlated", StrDataset::kUniform, StrQueryDist::kCorrelated},
      {"Normal-Split", StrDataset::kNormal, StrQueryDist::kSplit},
      {"Normal-Correlated", StrDataset::kNormal, StrQueryDist::kCorrelated},
  };
  for (const Panel& panel : panels) {
    auto keys = GenerateStrKeys(panel.dataset, n_keys, key_bytes, args.seed);
    StrQuerySpec spec;
    spec.dist = panel.dist;
    spec.range_max = uint64_t{1} << 30;
    spec.corr_degree = uint64_t{1} << 29;
    spec.split_corr_range_max = uint64_t{1} << 10;
    spec.max_bytes = key_bytes;
    auto samples = GenerateStrQueries(keys, spec, n_samples, args.seed + 1);
    auto eval = GenerateStrQueries(keys, spec, n_eval, args.seed + 2);

    Surf::Options sopt;
    sopt.suffix_mode = SurfSuffixMode::kReal;
    sopt.suffix_bits = 8;
    auto surf = SurfStrFilter::Build(keys, sopt);
    double surf_fpr = bench::MeasureFprStr(*surf, eval);
    double surf_bpk = surf->Bpk(keys.size());

    bench::PrintHeader(
        (std::string(panel.name) + " (" + std::to_string(max_bits) +
         "-bit keys)").c_str());
    std::printf("%-6s %-10s %-10s %-10s %-22s\n", "bpk", "proteus", "surf",
                "surf-bpk", "proteus-design");
    for (double bpk : {8.0, 10.0, 12.0, 14.0, 16.0, 18.0}) {
      StrCpfprOptions grid;
      grid.bloom_grid = 64;
      grid.trie_grid = 32;
      auto proteus = ProteusStrFilter::BuildSelfDesigned(keys, samples, bpk,
                                                         max_bits, grid);
      double fpr = bench::MeasureFprStr(*proteus, eval);
      char design[40];
      std::snprintf(design, sizeof(design), "(trie=%u, prefix=%u)",
                    proteus->config().trie_depth,
                    proteus->config().bf_prefix_len);
      std::printf("%-6.0f %-10.4f %-10.4f %-10.2f %-22s\n", bpk, fpr,
                  surf_fpr, surf_bpk, design);
    }
  }
}

void RunDomainsLsm(const Args& args) {
  const size_t n_keys = args.KeysOr(30000, 20000000);
  const size_t n_query_domains = n_keys / 3;
  const size_t n_seeks = args.QueriesOr(10000, 1000000);
  const size_t max_bytes = 64;  // padded query width (covers most domains)

  auto all = GenerateStrKeys(StrDataset::kDomains, n_keys + n_query_domains,
                             0, args.seed);
  std::vector<std::string> keys, query_points;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 4 == 3 && query_points.size() < n_query_domains) {
      query_points.push_back(all[i]);
    } else {
      keys.push_back(all[i]);
    }
  }
  StrQuerySpec spec;
  spec.dist = StrQueryDist::kReal;
  spec.range_max = uint64_t{1} << 30;
  spec.max_bytes = max_bytes;
  auto seed_queries =
      GenerateStrQueries(keys, spec, 1000, args.seed + 1, query_points);
  auto eval =
      GenerateStrQueries(keys, spec, n_seeks, args.seed + 2, query_points);

  bench::PrintHeader("Figure 9e — .org domains in miniLSM");
  std::printf("%-6s %-13s %-11s %-10s %-9s %-10s\n", "bpk", "filter",
              "ns/seek", "sst/seek", "fileFPR", "filterBPK");
  for (double bpk : {10.0, 14.0, 18.0, 22.0}) {
    struct Entry {
      std::string name;
      std::string spec;  // filter policy spec string
    };
    const uint32_t max_bits = max_bytes * 8;
    std::vector<Entry> entries = {
        {"proteus-str", "proteus-str:bpk=" + FormatSpecDouble(bpk) +
                            ",max_key_bits=" + std::to_string(max_bits) +
                            ",stride=4"},
        {"surf-real8", "surf-str:mode=real,suffix=8"},
    };
    if (!args.filter.empty()) entries.push_back({args.filter, args.filter});
    for (const Entry& entry : entries) {
      DbOptions options;
      options.dir = "/tmp/proteus_bench_fig9";
      options.memtable_bytes = 2u << 20;
      options.sst_target_bytes = 8u << 20;
      options.l1_size_bytes = 8u << 20;
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
      for (const auto& q : seed_queries) seed.push_back({q.lo, q.hi});
      db.query_queue().Seed(seed);
      for (const auto& k : keys) {
        db.Put(k, MakeValuePayload(static_cast<uint64_t>(k.size()) * 131 +
                                       static_cast<uint8_t>(k[0]),
                                   256));
      }
      db.CompactAll();
      db.ResetStats();
      Stopwatch timer;
      for (const auto& q : eval) db.Seek(q.lo, q.hi);
      double wall_ns = static_cast<double>(timer.ElapsedNanos());
      const DbStats& stats = db.stats();
      double file_fpr =
          stats.filter_checks == 0
              ? 0.0
              : static_cast<double>(stats.false_positive_files) /
                    static_cast<double>(stats.filter_checks);
      std::printf("%-6.0f %-13s %-11.0f %-10.3f %-9.4f %-10.2f\n", bpk,
                  entry.name.c_str(),
                  wall_ns / static_cast<double>(eval.size()),
                  static_cast<double>(stats.sst_seeks) /
                      static_cast<double>(eval.size()),
                  file_fpr,
                  static_cast<double>(db.TotalFilterBits()) /
                      static_cast<double>(keys.size()));
    }
  }
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  auto args = proteus::bench::ParseArgs(argc, argv);
  std::printf("Figure 9: variable-length string keys\n");
  // Small scale: 200-bit keys for the four FPR panels plus a reduced
  // 1440-bit panel sweep; paper scale uses 1440-bit keys throughout.
  proteus::RunInMemory(args, args.paper_scale ? 180 : 25);
  if (!args.paper_scale) {
    std::printf("\n--- reduced 1440-bit sweep ---\n");
    proteus::bench::Args deep = args;
    deep.keys = args.KeysOr(4000, 0);
    deep.queries = 1500;
    deep.samples = 500;
    proteus::RunInMemory(deep, 180);
  }
  proteus::RunDomainsLsm(args);
  return 0;
}
