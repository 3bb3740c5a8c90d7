// Micro-benchmarks (google-benchmark): per-operation costs of every
// substrate — hashing, Bloom probes, rank/select, trie and FST navigation,
// filter queries, skiplist, and the RLE codec. These are the constants
// behind the end-to-end numbers in Figures 6-9.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/prefix_bloom.h"
#include "core/filter_builder.h"
#include "core/proteus.h"
#include "core/two_pbf.h"
#include "hash/clhash.h"
#include "hash/murmur3.h"
#include "lsm/rle.h"
#include "lsm/skiplist.h"
#include "model/cpfpr.h"
#include "rosetta/rosetta.h"
#include "surf/surf.h"
#include "trie/bit_trie.h"
#include "util/random.h"
#include "util/rank_select.h"
#include "util/simd.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

void BM_Murmur3Int(benchmark::State& state) {
  Rng rng(1);
  uint64_t x = rng.Next();
  for (auto _ : state) {
    x = Murmur3Int64(x, 7);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Murmur3Int);

void BM_ClHashString(benchmark::State& state) {
  std::string s(static_cast<size_t>(state.range(0)), 'k');
  uint64_t h = 0;
  for (auto _ : state) {
    h = ClHash64(s, h);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ClHashString)->Arg(8)->Arg(32)->Arg(256);

void BM_BloomProbe(benchmark::State& state) {
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 3);
  BloomFilter bf(keys.size() * 12,
                 BloomFilter::OptimalHashes(keys.size() * 12, keys.size()));
  for (uint64_t k : keys) bf.InsertInt(k);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.MayContainInt(rng.Next()));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_BloomMultiProbe(benchmark::State& state) {
  // The batched probe kernel behind every MultiMayContain path, in the
  // regime it actually runs in: one per-SST filter (100k keys at
  // 14 bpk ≈ 170 KB) that stays L2-resident across a query batch. avx2=0
  // forces the scalar fallback, so the {0,64} vs {1,64} pair is the
  // dispatch win; batch=1 shows the kernel's fixed overhead.
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 3);
  BloomFilter bf(keys.size() * 14,
                 BloomFilter::OptimalHashes(keys.size() * 14, keys.size()));
  for (uint64_t k : keys) bf.InsertInt(k);
  const size_t batch = static_cast<size_t>(state.range(1));
  const bool prev = SetForceScalar(state.range(0) == 0);
  Rng rng(4);
  std::vector<uint64_t> h1(batch), h2(batch);
  std::vector<uint8_t> out(batch);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      BloomFilter::HashInt(rng.Next(), &h1[i], &h2[i]);
    }
    bf.MultiContainHash(h1.data(), h2.data(), batch, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  SetForceScalar(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_BloomMultiProbe)
    ->ArgNames({"avx2", "batch"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 64})
    ->Args({1, 64});

void BM_MultiRank1(benchmark::State& state) {
  // Batched rank9 lookups (the trie's MultiSeekGeq inner step) over a
  // 1 Mbit vector; positions stride past L1 so the gather's parallel
  // misses are what the AVX2 path buys.
  Rng rng(5);
  BitVector bv;
  for (int i = 0; i < 1 << 20; ++i) bv.PushBack(rng.NextBelow(2));
  RankSelect rs(&bv);
  const size_t batch = static_cast<size_t>(state.range(1));
  const bool prev = SetForceScalar(state.range(0) == 0);
  std::vector<uint64_t> pos(batch), out(batch);
  uint64_t x = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      pos[i] = x;
      x = (x + 977) & ((1 << 20) - 1);
    }
    rs.MultiRank1(pos.data(), batch, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  SetForceScalar(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_MultiRank1)
    ->ArgNames({"avx2", "batch"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 64})
    ->Args({1, 64});

void BM_PrefixBloomWalk(benchmark::State& state) {
  // The Proteus inner loop: a multi-prefix walk over consecutive l2
  // prefixes (hash + probe per prefix, pipelined with prefetch).
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 3);
  const uint64_t span = static_cast<uint64_t>(state.range(0));
  PrefixBloom pb(keys, keys.size() * 12, 54);
  Rng rng(41);
  for (auto _ : state) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo + (span << 10);  // span prefixes at l=54
    if (hi < lo) hi = ~uint64_t{0};
    benchmark::DoNotOptimize(pb.MayContain(lo, hi));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(span));
}
BENCHMARK(BM_PrefixBloomWalk)->ArgName("prefixes")->Arg(16)->Arg(64);

void BM_TwoPbfCoarseWalk(benchmark::State& state) {
  // The 2PBF coarse walk: one bf1 probe per l1 prefix overlapping the
  // range, each positive doubted at the fine filter. Ranges are drawn
  // uniformly, so with 100k keys in a 64-bit domain nearly every coarse
  // probe is negative and the walk itself dominates.
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 19);
  const uint64_t span = static_cast<uint64_t>(state.range(0));
  auto filter = TwoPbfFilter::BuildWithConfig(
      keys, TwoPbfFilter::Config{48, 60, 0.5}, 12.0);
  Rng rng(20);
  for (auto _ : state) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo + (span << 16);  // span coarse prefixes at l1=48
    if (hi < lo) hi = ~uint64_t{0};
    benchmark::DoNotOptimize(filter->MayContain(lo, hi));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(span));
}
BENCHMARK(BM_TwoPbfCoarseWalk)->ArgName("prefixes")->Arg(16)->Arg(64);

void BM_RankSelect(benchmark::State& state) {
  Rng rng(5);
  BitVector bv;
  for (int i = 0; i < 1 << 20; ++i) bv.PushBack(rng.NextBelow(2));
  RankSelect rs(&bv);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Rank1(i));
    i = (i + 977) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_RankSelect);

void BM_RankSelectSelect1(benchmark::State& state) {
  Rng rng(51);
  BitVector bv;
  for (int i = 0; i < 1 << 20; ++i) bv.PushBack(rng.NextBelow(2));
  RankSelect rs(&bv);
  const uint64_t ones = rs.ones();
  uint64_t r = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Select1(r));
    r = r % ones + 1;
  }
}
BENCHMARK(BM_RankSelectSelect1);

void BM_BitTrieSeek(benchmark::State& state) {
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 6);
  uint32_t depth = static_cast<uint32_t>(state.range(0));
  BitTrie trie;
  trie.Build(UniquePrefixes(keys, depth), depth);
  Rng rng(7);
  uint64_t mask = depth == 64 ? ~uint64_t{0} : ((uint64_t{1} << depth) - 1);
  for (auto _ : state) {
    uint64_t out;
    benchmark::DoNotOptimize(trie.SeekGeq(rng.Next() & mask, &out));
  }
}
BENCHMARK(BM_BitTrieSeek)->Arg(16)->Arg(32)->Arg(64);

void BM_BitTrieCursorNext(benchmark::State& state) {
  // The leaf-advance step of Proteus's MayContain: cursor Next() resumes
  // from the current leaf, versus the pre-cursor SeekGeq(v + 1) pattern
  // that re-descends from the root (measured below for comparison).
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 6);
  uint32_t depth = static_cast<uint32_t>(state.range(0));
  BitTrie trie;
  trie.Build(UniquePrefixes(keys, depth), depth);
  BitTrie::Cursor cur(&trie);
  cur.SeekGeq(0);
  for (auto _ : state) {
    if (!cur.Next()) cur.SeekGeq(0);
    benchmark::DoNotOptimize(cur);
  }
}
BENCHMARK(BM_BitTrieCursorNext)->Arg(16)->Arg(32)->Arg(64);

void BM_BitTrieSeekSuccessor(benchmark::State& state) {
  // Baseline for BM_BitTrieCursorNext: advance by a fresh root descent.
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 6);
  uint32_t depth = static_cast<uint32_t>(state.range(0));
  BitTrie trie;
  trie.Build(UniquePrefixes(keys, depth), depth);
  uint64_t max_prefix =
      depth == 64 ? ~uint64_t{0} : ((uint64_t{1} << depth) - 1);
  uint64_t v = 0;
  trie.SeekGeq(0, &v);
  for (auto _ : state) {
    if (v == max_prefix || !trie.SeekGeq(v + 1, &v)) trie.SeekGeq(0, &v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BitTrieSeekSuccessor)->Arg(16)->Arg(32)->Arg(64);

void BM_SurfRangeQuery(benchmark::State& state) {
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 8);
  auto surf = SurfIntFilter::Build(keys, Surf::Options{});
  Rng rng(9);
  for (auto _ : state) {
    uint64_t lo = rng.Next();
    benchmark::DoNotOptimize(surf->MayContain(lo, lo + 1024));
  }
}
BENCHMARK(BM_SurfRangeQuery);

void BM_ProteusQuery(benchmark::State& state) {
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 10);
  QuerySpec spec;
  spec.range_max = uint64_t{1} << 10;
  auto samples = GenerateQueries(keys, spec, 2000, 11);
  auto filter = FilterBuilder(keys).Sample(samples).Build("proteus:bpk=12");
  auto eval = GenerateQueries(keys, spec, 10000, 12);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = eval[i++ % eval.size()];
    benchmark::DoNotOptimize(filter->MayContain(q.lo, q.hi));
  }
}
BENCHMARK(BM_ProteusQuery);

void BM_RosettaQuery(benchmark::State& state) {
  auto keys = GenerateKeys(Dataset::kUniform, 100000, 13);
  QuerySpec spec;
  spec.range_max = uint64_t{1} << static_cast<uint32_t>(state.range(0));
  auto samples = GenerateQueries(keys, spec, 2000, 14);
  auto filter = RosettaFilter::BuildSelfConfigured(keys, samples, 12.0);
  auto eval = GenerateQueries(keys, spec, 10000, 15);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = eval[i++ % eval.size()];
    benchmark::DoNotOptimize(filter->MayContain(q.lo, q.hi));
  }
}
BENCHMARK(BM_RosettaQuery)->Arg(4)->Arg(12);

void BM_ProteusBuild(benchmark::State& state) {
  auto keys =
      GenerateKeys(Dataset::kNormal, static_cast<size_t>(state.range(0)), 16);
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 10;
  auto samples = GenerateQueries(keys, spec, 2000, 17);
  for (auto _ : state) {
    auto filter = FilterBuilder(keys).Sample(samples).Build("proteus:bpk=12");
    benchmark::DoNotOptimize(filter->SizeBits());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProteusBuild)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// Self-design cost alone: CPFPR model construction plus Proteus selection,
// at a per-SST size (keys, samples) and at a full-key-range size.
void BM_CpfprDesign(benchmark::State& state) {
  auto keys =
      GenerateKeys(Dataset::kUniform, static_cast<size_t>(state.range(0)), 19);
  QuerySpec spec;
  spec.dist = QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 10;
  auto samples =
      GenerateQueries(keys, spec, static_cast<size_t>(state.range(1)), 20);
  const uint64_t budget = 14 * keys.size();
  for (auto _ : state) {
    CpfprModel model(keys, samples);
    benchmark::DoNotOptimize(model.SelectProteus(budget));
  }
}
BENCHMARK(BM_CpfprDesign)
    ->ArgNames({"keys", "samples"})
    ->Args({30000, 1200})
    ->Args({500000, 20000})
    ->Unit(benchmark::kMillisecond);

void BM_SkipListAdd(benchmark::State& state) {
  SkipList list;
  Rng rng(18);
  uint64_t seqno = 0;
  for (auto _ : state) {
    uint64_t k = rng.Next();
    list.Add(EncodeKeyBE(k), ++seqno, "value");
  }
}
BENCHMARK(BM_SkipListAdd);

void BM_RleCompressHalfZero(benchmark::State& state) {
  std::string value = MakeValuePayload(123, 512);
  for (auto _ : state) {
    auto out = RleCompress(value);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_RleCompressHalfZero);

}  // namespace
}  // namespace proteus

BENCHMARK_MAIN();
