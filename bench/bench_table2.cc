// Table 2: breakdown of filter construction time, including modeling
// (Section 4.3, "Modeling Cost Breakdown").
//
// Workload (the paper's modeling worst case): Normal keys, correlated
// empty sample queries with range sizes U[2, 2^20], 10 BPK. Columns:
//   key stats   = Count Key Prefixes (|K_l| via successive LCPs)
//   trie mem    = Calculate Trie Memory
//   query stats = Count Query Prefixes (gather + binning)
//   config fprs = Calculate Configuration FPRs (Algorithm 1 selection)
//   build       = filter construction proper
// 1PBF / 2PBF / Proteus share one CpfprModel. Its construction gathers the
// 1PBF and Proteus statistics; the 2PBF statistics are gathered on the
// first 2PBF evaluation, which the 2PBF row times separately. Both gathers
// are attributed to "query stats".

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/one_pbf.h"
#include "core/proteus.h"
#include "core/two_pbf.h"
#include "model/cpfpr.h"
#include "rosetta/rosetta.h"
#include "surf/surf.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

void Run(const bench::Args& args) {
  const size_t n_keys = args.KeysOr(1000000, 10000000);
  const size_t n_samples = args.SamplesOr(20000, 20000);
  const double bpk = 10.0;

  std::printf("keys=%zu samples=%zu bpk=%.0f (times in ms)\n\n", n_keys,
              n_samples, bpk);

  auto keys = GenerateKeys(Dataset::kNormal, n_keys, args.seed);
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 20;
  spec.corr_degree = uint64_t{1} << 10;
  auto samples = GenerateQueries(keys, spec, n_samples, args.seed + 1);
  uint64_t budget = static_cast<uint64_t>(bpk * static_cast<double>(n_keys));

  // Shared gathering phases, timed separately.
  Stopwatch t;
  KeyStats stats = KeyStats::FromSortedInts(keys);
  double key_stats_ms = t.ElapsedMillis();
  t.Reset();
  TrieMemoryModel trie_model(stats);
  double trie_mem_ms = t.ElapsedMillis();
  t.Reset();
  CpfprModel model(keys, samples);
  double gather_total_ms = t.ElapsedMillis();
  double query_stats_ms = gather_total_ms - key_stats_ms - trie_mem_ms;
  if (query_stats_ms < 0) query_stats_ms = gather_total_ms;

  std::printf("%-10s %-10s %-9s %-12s %-12s %-10s %-10s\n", "filter",
              "key-stats", "trie-mem", "query-stats", "config-fprs", "build",
              "total");

  auto row = [&](const char* name, double ks, double tm, double qs,
                 double cf, double build) {
    std::printf("%-10s %-10.1f %-9.1f %-12.1f %-12.1f %-10.1f %-10.1f\n",
                name, ks, tm, qs, cf, build, ks + tm + qs + cf + build);
  };

  {
    t.Reset();
    OnePbfDesign design = model.SelectOnePbf(budget);
    double config_ms = t.ElapsedMillis();
    t.Reset();
    auto filter = OnePbfFilter::BuildWithConfig(keys, design.prefix_len, bpk);
    double build_ms = t.ElapsedMillis();
    row("1PBF", key_stats_ms, 0, query_stats_ms, config_ms, build_ms);
  }
  {
    t.Reset();
    model.TwoPbfFpr(1, 2, 0.5, budget);  // first 2PBF call: gathers stats
    double two_pbf_stats_ms = t.ElapsedMillis();
    t.Reset();
    TwoPbfDesign design = model.SelectTwoPbf(budget);
    double config_ms = t.ElapsedMillis();
    t.Reset();
    auto filter = TwoPbfFilter::BuildWithConfig(
        keys, TwoPbfFilter::Config{design.l1, design.l2, design.frac1}, bpk);
    double build_ms = t.ElapsedMillis();
    row("2PBF", key_stats_ms, 0, query_stats_ms + two_pbf_stats_ms,
        config_ms, build_ms);
  }
  {
    t.Reset();
    ProteusDesign design = model.SelectProteus(budget);
    double config_ms = t.ElapsedMillis();
    t.Reset();
    auto filter = ProteusFilter::BuildWithConfig(
        keys, ProteusFilter::Config{design.trie_depth, design.bf_prefix_len},
        bpk);
    double build_ms = t.ElapsedMillis();
    row("Proteus", key_stats_ms, trie_mem_ms, query_stats_ms, config_ms,
        build_ms);
    std::printf("  (selected design: trie=%u bloom=%u, expected fpr %.4f)\n",
                design.trie_depth, design.bf_prefix_len, design.expected_fpr);
  }
  {
    t.Reset();
    auto surf = SurfIntFilter::Build(keys, Surf::Options{});
    double build_ms = t.ElapsedMillis();
    row("SuRF", 0, 0, 0, 0, build_ms);
  }
  {
    t.Reset();
    auto rosetta = RosettaFilter::BuildSelfConfigured(keys, samples, bpk);
    double build_ms = t.ElapsedMillis();
    row("Rosetta", 0, 0, 0, 0, build_ms);
  }
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  auto args = proteus::bench::ParseArgs(argc, argv);
  std::printf("Table 2: filter construction time breakdown\n");
  proteus::Run(args);
  return 0;
}
