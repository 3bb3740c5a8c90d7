// Ablations of the model and filter design choices:
//  1. Exponential binning vs exact per-query accumulation in the CPFPR
//     model (accuracy and selection-time; Section 4.3's binning argument).
//  2. Sample size vs out-of-sample FPR of the selected design (the
//     Table 1 confidence claim, empirically).
//  3. SuRF dense/sparse ratio (the knob Proteus tunes via its memory
//     model; Section 4.3).
//  4. 2PBF memory allocation profiles (the paper's 40/60, 50/50, 60/40).
//  5. Coarse Bloom-grid stride for long string keys (Section 7.2's
//     128-point search).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/proteus.h"
#include "core/proteus_str.h"
#include "model/cpfpr.h"
#include "model/cpfpr_str.h"
#include "surf/surf.h"
#include "workload/datasets.h"
#include "workload/queries.h"
#include "workload/string_gen.h"

namespace proteus {
namespace {

using bench::Args;

void BinningAblation(const Args& args) {
  const size_t n_keys = args.KeysOr(200000, 10000000);
  auto keys = GenerateKeys(Dataset::kUniform, n_keys, args.seed);
  QuerySpec spec;
  spec.range_max = uint64_t{1} << 18;  // wide spread of |Q_l|
  auto samples = GenerateQueries(keys, spec, args.SamplesOr(10000, 20000),
                                 args.seed + 1);
  CpfprModel model(keys, samples);
  uint64_t mem = static_cast<uint64_t>(12.0 * n_keys);

  bench::PrintHeader("Ablation 1 — binned vs exact model evaluation");
  Stopwatch t;
  double acc = 0;
  for (uint32_t l1 = 0; l1 <= 32; l1 += 4) {
    for (uint32_t l2 = l1 + 8; l2 <= 64; l2 += 4) {
      acc += model.ProteusFpr(l1, l2, mem);
    }
  }
  double binned_ms = t.ElapsedMillis();
  t.Reset();
  double acc_exact = 0;
  for (uint32_t l1 = 0; l1 <= 32; l1 += 4) {
    for (uint32_t l2 = l1 + 8; l2 <= 64; l2 += 4) {
      acc_exact += model.ProteusFprExact(l1, l2, mem);
    }
  }
  double exact_ms = t.ElapsedMillis();
  double max_diff = 0;
  for (uint32_t l1 = 0; l1 <= 32; l1 += 4) {
    for (uint32_t l2 = l1 + 8; l2 <= 64; l2 += 4) {
      double a = model.ProteusFpr(l1, l2, mem);
      double b = model.ProteusFprExact(l1, l2, mem);
      if (a <= 1.0 && b <= 1.0) max_diff = std::max(max_diff, std::abs(a - b));
    }
  }
  std::printf("binned eval: %.2f ms  exact eval: %.2f ms  speedup: %.1fx\n",
              binned_ms, exact_ms, exact_ms / std::max(binned_ms, 1e-9));
  std::printf("max |binned - exact| FPR over the grid: %.5f\n", max_diff);
}

void SampleSizeAblation(const Args& args) {
  const size_t n_keys = args.KeysOr(200000, 10000000);
  auto keys = GenerateKeys(Dataset::kNormal, n_keys, args.seed);
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 19;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  auto eval = GenerateQueries(keys, spec, args.QueriesOr(20000, 1000000),
                              args.seed + 9);

  bench::PrintHeader("Ablation 2 — sample size vs achieved FPR");
  std::printf("%-10s %-12s %-12s %-20s\n", "samples", "expected", "observed",
              "design");
  for (size_t n : {250ul, 1000ul, 4000ul, 16000ul}) {
    auto samples = GenerateQueries(keys, spec, n, args.seed + 2);
    FilterBuilder builder(keys);
    builder.Sample(samples);
    auto filter =
        ProteusFilter::BuildFromSpec(FilterSpec("proteus"), builder, nullptr);
    double fpr = bench::MeasureFpr(*filter, eval);
    std::printf("%-10zu %-12.4f %-12.4f (t=%u,b=%u)\n", n,
                filter->modeled_fpr().value_or(-1.0), fpr,
                filter->config().trie_depth, filter->config().bf_prefix_len);
  }
}

void DenseRatioAblation(const Args& args) {
  const size_t n_keys = args.KeysOr(200000, 10000000);
  auto keys = GenerateKeys(Dataset::kUniform, n_keys, args.seed);
  QuerySpec spec;
  spec.range_max = uint64_t{1} << 8;
  auto eval = GenerateQueries(keys, spec, args.QueriesOr(20000, 1000000),
                              args.seed + 3);

  bench::PrintHeader("Ablation 3 — SuRF dense/sparse ratio");
  std::printf("%-8s %-10s %-10s %-14s %-12s\n", "ratio", "bpk", "fpr",
              "dense-nodes", "ns/query");
  for (uint32_t ratio : {0u, 4u, 16u, 64u}) {
    Surf::Options options;
    options.dense_ratio = ratio;
    auto surf = SurfIntFilter::Build(keys, options);
    double fpr = bench::MeasureFpr(*surf, eval);
    double ns = bench::MeanLatencyNanos(eval.size(), [&](size_t i) {
      volatile bool hit = surf->MayContain(eval[i].lo, eval[i].hi);
      (void)hit;
    });
    std::printf("%-8u %-10.2f %-10.4f %-14llu %-12.0f\n", ratio,
                surf->Bpk(keys.size()), fpr,
                static_cast<unsigned long long>(surf->surf().n_dense_nodes()),
                ns);
  }
}

void TwoPbfAllocationAblation(const Args& args) {
  const size_t n_keys = args.KeysOr(200000, 10000000);
  auto keys = GenerateKeys(Dataset::kNormal, n_keys, args.seed);
  QuerySpec spec;
  spec.dist = QueryDist::kSplit;
  spec.range_max = uint64_t{1} << 15;
  spec.split_corr_range_max = uint64_t{1} << 3;
  spec.corr_degree = uint64_t{1} << 3;
  auto samples = GenerateQueries(keys, spec, args.SamplesOr(5000, 20000),
                                 args.seed + 4);
  CpfprModel model(keys, samples);
  uint64_t mem = static_cast<uint64_t>(12.0 * n_keys);

  bench::PrintHeader("Ablation 4 — 2PBF memory allocation profiles");
  std::printf("%-8s %-20s %-12s\n", "frac1", "best (l1,l2)", "expected-fpr");
  for (double frac : {0.4, 0.5, 0.6}) {
    double best = 2.0;
    uint32_t bl1 = 0, bl2 = 0;
    for (uint32_t l1 = 1; l1 <= 63; ++l1) {
      for (uint32_t l2 = l1 + 1; l2 <= 64; ++l2) {
        double f = model.TwoPbfFpr(l1, l2, frac, mem);
        if (f < best) {
          best = f;
          bl1 = l1;
          bl2 = l2;
        }
      }
    }
    std::printf("%-8.1f (%u,%u)%-12s %-12.4f\n", frac, bl1, bl2, "", best);
  }
}

void StringGridAblation(const Args& args) {
  const size_t key_bytes = 64;
  const size_t n_keys = args.KeysOr(10000, 10000000);
  auto keys = GenerateStrKeys(StrDataset::kUniform, n_keys, key_bytes,
                              args.seed);
  StrQuerySpec spec;
  spec.dist = StrQueryDist::kSplit;
  spec.range_max = uint64_t{1} << 30;
  spec.corr_degree = uint64_t{1} << 29;
  spec.split_corr_range_max = uint64_t{1} << 10;
  spec.max_bytes = key_bytes;
  auto samples = GenerateStrQueries(keys, spec, args.SamplesOr(1000, 20000),
                                    args.seed + 5);
  auto eval = GenerateStrQueries(keys, spec, args.QueriesOr(3000, 1000000),
                                 args.seed + 6);

  bench::PrintHeader(
      "Ablation 5 — coarse Bloom-grid stride for 512-bit string keys");
  std::printf("%-10s %-14s %-10s %-22s\n", "grid", "model-ms", "fpr",
              "design");
  for (uint32_t grid_points : {16u, 64u, 128u, 512u}) {
    StrCpfprOptions grid;
    grid.bloom_grid = grid_points;
    grid.trie_grid = 32;
    Stopwatch t;
    auto filter = ProteusStrFilter::BuildSelfDesigned(
        keys, samples, 12.0, static_cast<uint32_t>(key_bytes * 8), grid);
    double ms = t.ElapsedMillis();
    double fpr = bench::MeasureFprStr(*filter, eval);
    std::printf("%-10u %-14.1f %-10.4f (t=%u,b=%u)\n", grid_points, ms, fpr,
                filter->config().trie_depth, filter->config().bf_prefix_len);
  }
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  auto args = proteus::bench::ParseArgs(argc, argv);
  std::printf("Ablations of Proteus' design choices\n");
  proteus::BinningAblation(args);
  proteus::SampleSizeAblation(args);
  proteus::DenseRatioAblation(args);
  proteus::TwoPbfAllocationAblation(args);
  proteus::StringGridAblation(args);
  return 0;
}
