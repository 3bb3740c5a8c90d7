// Closed-loop, single-client benchmark of Proteus inside the miniLSM.
//
//   perfbench_harness --workload seek_cold|multiseek_warm|ingest_mixed
//                     --seed N --seconds S --trace 0|1 --dir DB_DIR
//                     [--trace-out FILE] [--keys N]
//
// Prints human-readable lines, then as its last stdout line one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. METRICS.md maps
// every metric to its layer and to the end-to-end number it should move,
// and records why the workloads and steadiness rules are what they are.
// End-to-end times are divided by the host's slowdown while they ran
// (speed.h); the raw times are printed beside them.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/filter_builder.h"
#include "engine/query_engine.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "speed.h"
#include "surf/surf.h"  // EncodeKeyBE / DecodeKeyBE
#include "trace.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using proteus::BatchStats;
using proteus::Db;
using proteus::DbOptions;
using proteus::DbStats;
using proteus::QueryBatch;
using proteus::QueryEngine;
using proteus::RangeQuery;
using proteus::SeekResult;
using proteus::Status;
using proteus::Stopwatch;
using proteus::StrRangeQuery;

constexpr char kFilterSpec[] = "proteus:bpk=14";
constexpr char kScheduler[] = "sorted";
constexpr size_t kDefaultKeys = 500000;
constexpr size_t kValueBytes = 128;
constexpr size_t kSampleQueries = 20000;   // seeded into the query queue
constexpr size_t kPoolQueries = size_t{1} << 17;  // read workloads' stream
constexpr size_t kPointEvery = 16;         // every 16th query is a point
constexpr size_t kBatch = 64;
constexpr size_t kSeekEveryPuts = 4;       // ingest_mixed's read share
// Sizes for the default key count; --keys scales all but the warm cache,
// so a reduced run keeps the tree's shape and its cache-to-data ratio.
// Read trees flush explicitly every kFlushEvery keys; the memtable and WAL
// size triggers are set out of reach so no flush depends on timing.
constexpr size_t kFlushEvery = 131072;
constexpr size_t kTopLayerKeys = 2000;
constexpr uint64_t kSstTargetBytes = uint64_t{4} << 20;
constexpr uint64_t kL1Bytes = uint64_t{8} << 20;
constexpr uint64_t kColdCacheBytes = uint64_t{4} << 20;
constexpr uint64_t kWarmCacheBytes = uint64_t{256} << 20;
constexpr uint64_t kIngestMemtableBytes = uint64_t{2} << 20;
constexpr int kSetupReps = 3;   // setup_s is the median of these
// An ingest set-up is only input generation (~0.6 s), so it is repeated
// more often for a steady median.
constexpr int kIngestSetupReps = 7;
// Read workloads time a segment after each set-up, so the timed phase
// spreads over the whole run; read metrics are medians over all slices,
// and their write metrics are medians over slices of kPutSlice load Puts.
constexpr int kSlicesPerSegment = 8;
constexpr size_t kPutSlice = 32768;
constexpr size_t kTraceChunk = 1024;  // traced run: alternate on/off
constexpr size_t kArenaSampleEvery = 4096;
constexpr int kSpeedSamplesAround = 8;  // ingest set-up: samples each side
// ingest_mixed's percentiles are medians over slices of each ingest, so a
// compaction burst in one slice does not set them.
constexpr size_t kIngestSlices = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t keys = kDefaultKeys;
  std::string dir;
  std::string trace_out;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Die("missing value for " + flag);
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
    } else if (flag == "--keys") {
      args.keys = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Die("bad value for " + flag);
  }
  if (args.workload != "seek_cold" && args.workload != "multiseek_warm" &&
      args.workload != "ingest_mixed") {
    Die("unknown workload \"" + args.workload + "\"");
  }
  if (args.dir.empty()) Die("--dir is required");
  // Put positions are uint32 and Scaled() multiplies byte sizes by keys.
  if (args.seconds <= 0 || args.keys < 4 * kBatch || args.keys > (size_t{1} << 31)) {
    Die("bad size");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // sanity violations
  std::vector<Metric> metrics;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(const std::string& what) { problems.push_back(what); }
};

double Percentile(std::vector<float> v, double p) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The run's one machine-speed meter (speed.h).
SpeedMeter& Speed() {
  static SpeedMeter meter;
  return meter;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// False-positive files over the filter checks whose range was empty at
/// that file (checks minus true-positive probes), as DbStats defines it.
double ObservedFpr(uint64_t checks, uint64_t sst_seeks, uint64_t fp_files) {
  const uint64_t true_positives = sst_seeks - fp_files;
  return checks <= true_positives
             ? 0.0
             : static_cast<double>(fp_files) /
                   static_cast<double>(checks - true_positives);
}

// ---------------------------------------------------------------------------
// Inputs: everything is a function of the seed and the key count.
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<uint64_t> keys;        // sorted, distinct
  std::vector<uint32_t> order;       // Put order: a permutation of key indices
  std::vector<RangeQuery> samples;   // seeded into the sample query queue
  std::vector<RangeQuery> queries;   // the query stream
  std::vector<StrRangeQuery> encoded;  // the same, big-endian encoded
};

/// Uniform 8-byte keys; correlated ranges (range_max 2^8, corr_degree
/// 2^10, empty by construction) with every 16th query a point query on a
/// present key. On ingest_mixed, query j runs after (j+1)*4 Puts and its
/// point key is one of those already Put.
Inputs MakeInputs(size_t n_keys, uint64_t seed, bool ingest) {
  Inputs in;
  in.keys = proteus::GenerateKeys(proteus::Dataset::kUniform, n_keys, seed);
  const size_t n = in.keys.size();
  in.order.resize(n);
  for (size_t i = 0; i < n; ++i) in.order[i] = static_cast<uint32_t>(i);
  proteus::Rng rng(seed + 3);
  for (size_t i = n; i > 1; --i) {
    std::swap(in.order[i - 1], in.order[rng.NextBelow(i)]);
  }
  proteus::QuerySpec spec;
  spec.dist = proteus::QueryDist::kCorrelated;
  spec.range_max = uint64_t{1} << 8;
  spec.corr_degree = uint64_t{1} << 10;
  in.samples = proteus::GenerateQueries(in.keys, spec, kSampleQueries, seed + 1);
  const size_t n_queries =
      ingest ? n / kSeekEveryPuts / kBatch * kBatch : kPoolQueries;
  in.queries = proteus::GenerateQueries(in.keys, spec, n_queries, seed + 2);
  for (size_t i = 0; i < in.queries.size(); i += kPointEvery) {
    const size_t visible = ingest ? std::min(n, (i + 1) * kSeekEveryPuts) : n;
    const size_t pick = (i * 7919) % visible;
    const uint64_t k = in.keys[ingest ? in.order[pick] : pick];
    in.queries[i] = {k, k};
  }
  in.encoded.reserve(in.queries.size());
  for (const RangeQuery& q : in.queries) {
    in.encoded.push_back({proteus::EncodeKeyBE(q.lo), proteus::EncodeKeyBE(q.hi)});
  }
  return in;
}

/// Index of the smallest key in [q.lo, q.hi], or -1 (the reference answer
/// over the whole key set: lower_bound on the sorted keys).
std::vector<int64_t> ReferenceAnswers(const Inputs& in) {
  std::vector<int64_t> out;
  out.reserve(in.queries.size());
  for (const RangeQuery& q : in.queries) {
    auto it = std::lower_bound(in.keys.begin(), in.keys.end(), q.lo);
    out.push_back(it != in.keys.end() && *it <= q.hi ? it - in.keys.begin() : -1);
  }
  return out;
}

bool AnswerMatches(bool ok, bool found, std::string_view key,
                   std::string_view value, const std::vector<uint64_t>& keys,
                   int64_t expect) {
  if (!ok || found != (expect >= 0)) return false;
  if (!found) return true;
  const uint64_t k = keys[static_cast<size_t>(expect)];
  return key.size() == 8 && proteus::DecodeKeyBE(key) == k &&
         value == proteus::MakeValuePayload(k, kValueBytes);
}

bool AnswerMatches(const SeekResult& r, const std::vector<uint64_t>& keys,
                   int64_t expect) {
  return AnswerMatches(r.status.ok(), r.found, r.key, r.value, keys, expect);
}

std::vector<QueryBatch> MakeBatches(const Inputs& in) {
  std::vector<QueryBatch> out;
  for (size_t off = 0; off + kBatch <= in.encoded.size(); off += kBatch) {
    out.emplace_back(in.encoded.begin() + static_cast<ptrdiff_t>(off),
                     in.encoded.begin() + static_cast<ptrdiff_t>(off + kBatch));
  }
  return out;
}

uint64_t Scaled(const Args& args, uint64_t full) {
  return std::max<uint64_t>(1, full * args.keys / kDefaultKeys);
}

DbOptions MakeOptions(const Args& args) {
  DbOptions o;
  o.dir = args.dir;
  o.wal_sync = false;
  o.block_cache_bytes = args.workload == "multiseek_warm"
                            ? kWarmCacheBytes
                            : Scaled(args, kColdCacheBytes);
  o.sst_target_bytes = Scaled(args, kSstTargetBytes);
  o.l1_size_bytes = Scaled(args, kL1Bytes);
  Status status;
  o.filter_policy = proteus::MakeFilterPolicy(kFilterSpec, &status);
  if (o.filter_policy == nullptr) Die("filter policy: " + status.ToString());
  if (args.workload == "ingest_mixed") {
    o.memtable_bytes = Scaled(args, kIngestMemtableBytes);
  } else {
    o.memtable_bytes = size_t{1} << 40;
    o.wal_segment_bytes = size_t{1} << 40;
  }
  return o;
}

std::unique_ptr<Db> CreateDb(const DbOptions& options, const Inputs& in) {
  auto [db, status] = Db::Create(options);
  if (!status.ok()) Die("Db::Create: " + status.ToString());
  std::vector<std::pair<std::string, std::string>> seed_queue;
  seed_queue.reserve(in.samples.size());
  for (const RangeQuery& q : in.samples) {
    seed_queue.emplace_back(proteus::EncodeKeyBE(q.lo), proteus::EncodeKeyBE(q.hi));
  }
  db->query_queue().Seed(seed_queue);
  return std::move(db);
}

std::unique_ptr<QueryEngine> CreateEngine(Db* db) {
  Status status;
  auto engine = QueryEngine::Create(db, kScheduler, &status);
  if (engine == nullptr) Die("QueryEngine: " + status.ToString());
  return engine;
}

/// Checks-weighted mean of the live files' modeled FPR.
double ModeledFpr(const Db& db) {
  double weighted = 0, checks = 0;
  for (const auto& f : db.DesignInfo()) {
    if (f.modeled_fpr < 0) continue;
    weighted += f.modeled_fpr * static_cast<double>(f.checks);
    checks += static_cast<double>(f.checks);
  }
  return Ratio(weighted, checks);
}

// ---------------------------------------------------------------------------
// Timed loops
// ---------------------------------------------------------------------------

/// Latency samples (microseconds) and busy time of one stream of calls.
struct Latencies {
  std::vector<float> us;
  uint64_t busy_ns = 0;

  void Add(uint64_t ns) {
    us.push_back(static_cast<float>(ns / 1e3));
    busy_ns += ns;
  }
  double Qps(size_t per_call) const {
    return Ratio(static_cast<double>(us.size() * per_call) * 1e9,
                 static_cast<double>(busy_ns));
  }
};

/// Throughput and tail of a timed phase, per slice, at the reference speed:
/// each slice's raw figures divided by the host's slowdown during it.
/// Reports take the median over slices.
struct PhaseTimes {
  std::vector<double> qps, p50, p99, raw_qps, raw_p50;
  void AddSlice(const Latencies& l, size_t per_call, double slowdown) {
    raw_qps.push_back(l.Qps(per_call));
    raw_p50.push_back(Percentile(l.us, 0.50));
    qps.push_back(raw_qps.back() * slowdown);
    p50.push_back(raw_p50.back() / slowdown);
    p99.push_back(Percentile(l.us, 0.99) / slowdown);
  }
  /// Cuts `l` into slices of `per_slice` consecutive calls; `marks[k]` is
  /// the speed meter's mark when call k * per_slice started.
  void AddSlices(const Latencies& l, size_t per_slice,
                 const std::vector<size_t>& marks) {
    for (size_t off = 0, k = 0; off + per_slice <= l.us.size();
         off += per_slice, ++k) {
      Latencies slice;
      slice.us.assign(l.us.begin() + static_cast<ptrdiff_t>(off),
                      l.us.begin() + static_cast<ptrdiff_t>(off + per_slice));
      double busy_us = 0;
      for (float us : slice.us) busy_us += us;
      slice.busy_ns = static_cast<uint64_t>(busy_us * 1e3);
      const size_t to = k + 1 < marks.size() ? marks[k + 1] : Speed().mark();
      AddSlice(slice, 1, Speed().Slowdown(marks[k], to));
    }
  }
};

/// In the traced run, calls alternate between traced and untraced chunks
/// of kTraceChunk, so trace.overhead compares the two under the same
/// conditions.
struct TraceSplit {
  std::vector<float> traced_us, untraced_us;

  void Toggle(Tracer& tracer, bool trace, size_t call) {
    if (trace && call % kTraceChunk == 0) {
      tracer.set_enabled((call / kTraceChunk) % 2 == 1);
    }
  }
  void Add(const Tracer& tracer, bool trace, uint64_t ns) {
    if (trace) (tracer.enabled() ? traced_us : untraced_us).push_back(ns / 1e3f);
  }
  double Overhead() const {
    return Ratio(Percentile(traced_us, 0.5), Percentile(untraced_us, 0.5));
  }
};

/// Runs `call(i)` for i = 0, 1, ... for `seconds`, in kSlicesPerSegment
/// equal slices appended to `times`. `call` returns its own latency in ns
/// (answer checks run after its clock stops). The speed meter samples at
/// each slice's start and between calls.
template <typename Call>
void RunTimed(double seconds, size_t per_call, Tracer& tracer, bool trace,
              TraceSplit* split, PhaseTimes* times, Call&& call) {
  const double slice_ns = seconds * 1e9 / kSlicesPerSegment;
  Stopwatch clock;
  Latencies slice;
  size_t i = 0;
  for (int s = 1; s <= kSlicesPerSegment; ++s) {
    slice = Latencies{};
    const auto deadline = static_cast<uint64_t>(slice_ns * s);
    const size_t mark = Speed().mark();
    Speed().Sample();
    do {
      split->Toggle(tracer, trace, i);
      const uint64_t ns = call(i++);
      slice.Add(ns);
      split->Add(tracer, trace, ns);
      Speed().Tick();
    } while (clock.ElapsedNanos() < deadline);
    times->AddSlice(slice, per_call, Speed().Slowdown(mark));
  }
  tracer.set_enabled(trace);
}

// ---------------------------------------------------------------------------
// Shared per-layer measurements (traced run only)
// ---------------------------------------------------------------------------

/// Engine batches timed from outside, plus the results buffer they reuse.
struct EngineCost {
  std::vector<float> batch_us;
  uint64_t overhead_ns = 0;
  std::vector<proteus::MultiSeekResult> results;

  void Add(uint64_t outside_ns, const BatchStats& stats) {
    batch_us.push_back(static_cast<float>(outside_ns / 1e3));
    overhead_ns += outside_ns > stats.wall_ns ? outside_ns - stats.wall_ns : 0;
  }
};

/// One engine batch, timed from outside; answers checked afterwards.
uint64_t RunBatch(QueryEngine& engine, const QueryBatch& batch,
                  const int64_t* expected, const std::vector<uint64_t>& keys,
                  Tracer& tracer, EngineCost* cost, Report* report) {
  BatchStats stats;
  Stopwatch t;
  {
    Tracer::Scope span(tracer, "engine.run");
    engine.Run(batch, &cost->results, &stats);
  }
  const uint64_t ns = t.ElapsedNanos();
  cost->Add(ns, stats);
  for (size_t k = 0; k < batch.size(); ++k) {
    report->Count(k < cost->results.size() &&
                  AnswerMatches(cost->results[k], keys, expected[k]));
  }
  return ns;
}

/// Engine metrics from one pass of the stream in batches, for workloads
/// whose timed phase does not go through the engine. Runs after timing.
EngineCost EngineSidePass(Db* db, const Inputs& in,
                          const std::vector<int64_t>& expected, Tracer& tracer,
                          Report* report) {
  auto engine = CreateEngine(db);
  const std::vector<QueryBatch> batches = MakeBatches(in);
  EngineCost cost;
  for (size_t b = 0; b < batches.size(); ++b) {
    RunBatch(*engine, batches[b], &expected[b * kBatch], in.keys, tracer,
             &cost, report);
  }
  return cost;
}

void AddEngineMetrics(const EngineCost& cost, Report* report) {
  report->Add("engine.batch_us_p50", Percentile(cost.batch_us, 0.5), "us");
  report->Add("engine.overhead_us_per_batch",
              Ratio(cost.overhead_ns / 1e3, static_cast<double>(cost.batch_us.size())),
              "us");
}

/// The filter's own Sample+Design, Build and probe costs on the workload's
/// keys, sample and query stream, outside the LSM. A false negative on a
/// present key counts as a failed operation.
void FilterLayerPass(const Inputs& in, const std::vector<int64_t>& expected,
                     Tracer& tracer, Report* report) {
  Tracer::Scope root(tracer, "bench.layers");
  proteus::FilterBuilder builder(in.keys);
  Stopwatch t;
  {
    Tracer::Scope span(tracer, "model.design");
    builder.Sample(in.samples);
    builder.Design();
  }
  report->Add("model.design_ms", t.ElapsedMillis(), "ms");
  t.Reset();
  std::unique_ptr<proteus::RangeFilter> filter;
  {
    Tracer::Scope span(tracer, "core.build");
    std::string error;
    filter = builder.Build(kFilterSpec, &error);
    if (filter == nullptr) Die("filter build: " + error);
  }
  report->Add("core.build_ms", t.ElapsedMillis(), "ms");

  const size_t n = in.queries.size();
  std::vector<uint8_t> verdict(n);
  t.Reset();
  {
    Tracer::Scope span(tracer, "core.probe");
    for (size_t i = 0; i < n; ++i) {
      verdict[i] = filter->MayContain(in.queries[i].lo, in.queries[i].hi);
    }
  }
  report->Add("core.probe_ns_b1", Ratio(t.ElapsedNanos(), n), "ns");
  for (size_t i = 0; i < n; ++i) report->Count(expected[i] < 0 || verdict[i]);

  // Batches of 64 sorted by lo, as the sorted scheduler hands them over.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t off = 0; off < n; off += kBatch) {
    std::sort(order.begin() + static_cast<ptrdiff_t>(off),
              order.begin() + static_cast<ptrdiff_t>(std::min(n, off + kBatch)),
              [&](size_t a, size_t b) { return in.queries[a].lo < in.queries[b].lo; });
  }
  std::vector<uint64_t> lo(n), hi(n);
  for (size_t k = 0; k < n; ++k) {
    lo[k] = in.queries[order[k]].lo;
    hi[k] = in.queries[order[k]].hi;
  }
  t.Reset();
  {
    Tracer::Scope span(tracer, "core.probe");
    for (size_t off = 0; off < n; off += kBatch) {
      filter->MultiMayContain(&lo[off], &hi[off], std::min(kBatch, n - off),
                              &verdict[off]);
    }
  }
  report->Add("core.probe_ns_b64", Ratio(t.ElapsedNanos(), n), "ns");
  for (size_t k = 0; k < n; ++k) report->Count(expected[order[k]] < 0 || verdict[k]);
}

proteus::BlockCache::Stats CacheDelta(const proteus::BlockCache::Stats& after,
                                      const proteus::BlockCache::Stats& before) {
  proteus::BlockCache::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  return d;
}

/// Read-path counters summed over timed stretches (DbStats since the last
/// ResetStats, block-cache deltas).
struct ReadCounters {
  uint64_t queries = 0, filter_checks = 0, filter_negatives = 0;
  uint64_t sst_seeks = 0, fp_files = 0, redesigns = 0, drift_detected = 0;
  uint64_t hits = 0, misses = 0;

  void Add(const DbStats& s, const proteus::BlockCache::Stats& c) {
    queries += s.seeks;
    filter_checks += s.filter_checks;
    filter_negatives += s.filter_negatives;
    sst_seeks += s.sst_seeks;
    fp_files += s.false_positive_files;
    redesigns += s.redesigns;
    drift_detected += s.drift_detected;
    hits += c.hits;
    misses += c.misses;
  }
};

void AddReadPathMetrics(const ReadCounters& r, Report* report) {
  const double q = static_cast<double>(r.queries);
  const double blocks = static_cast<double>(r.hits + r.misses);
  report->Add("lsm.filter_checks_per_query", Ratio(r.filter_checks, q), "count");
  report->Add("lsm.sst_seeks_per_query", Ratio(r.sst_seeks, q), "count");
  report->Add("lsm.filter_negative_ratio",
              Ratio(r.filter_negatives, r.filter_checks), "ratio");
  report->Add("lsm.useful_probe_ratio",
              Ratio(r.sst_seeks - r.fp_files, r.sst_seeks), "ratio");
  report->Add("lsm.blocks_per_query", Ratio(blocks, q), "count");
  report->Add("lsm.cache_misses_per_query", Ratio(r.misses, q), "count");
  report->Add("lsm.cache_hit_rate", Ratio(r.hits, blocks), "ratio");
  report->Add("lsm.fpr_live", ObservedFpr(r.filter_checks, r.sst_seeks, r.fp_files),
              "ratio");
  report->Add("lsm.redesigns", r.redesigns, "count");
  report->Add("lsm.drift_detected", r.drift_detected, "count");
}

// ---------------------------------------------------------------------------
// Read workloads: seek_cold and multiseek_warm
// ---------------------------------------------------------------------------

/// Deterministic counters of one pass of the whole query stream.
struct CountPass {
  uint64_t filter_checks = 0, sst_seeks = 0, fp_files = 0, blocks = 0;
  uint64_t sst_bytes = 0, filter_bits = 0, total_keys = 0;

  bool operator==(const CountPass&) const = default;
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "filter_checks=%llu sst_seeks=%llu fp_files=%llu blocks=%llu "
                  "sst_bytes=%llu filter_bits=%llu",
                  static_cast<unsigned long long>(filter_checks),
                  static_cast<unsigned long long>(sst_seeks),
                  static_cast<unsigned long long>(fp_files),
                  static_cast<unsigned long long>(blocks),
                  static_cast<unsigned long long>(sst_bytes),
                  static_cast<unsigned long long>(filter_bits));
    return buf;
  }
};

struct ReadTree {
  Inputs in;
  std::vector<int64_t> expected;
  std::vector<QueryBatch> batches;  // multiseek_warm only
  std::unique_ptr<Db> db;
  std::unique_ptr<QueryEngine> engine;
  Latencies puts;      // the load's Put calls
  std::vector<size_t> put_marks;  // speed mark at each kPutSlice boundary
  double drain_s = 0;  // WaitForBackground after the load
  uint64_t arena_peak_bytes = 0;  // memtable arenas just before each flush
  DbStats load_stats;  // counters of the load (flushes, compactions, builds)
  CountPass counts;
};

/// One full set-up: inputs, load with explicit flushes, CompactAll, two L0
/// files and a live memtable on top, then one untimed pass of the query
/// stream (the cache warm-up and the deterministic count pass).
ReadTree BuildReadTree(const Args& args, bool engine, Tracer& tracer,
                       Report* report) {
  ReadTree t;
  {
    Tracer::Scope span(tracer, "workload.gen");
    t.in = MakeInputs(args.keys, args.seed, /*ingest=*/false);
    t.expected = ReferenceAnswers(t.in);
    if (engine) t.batches = MakeBatches(t.in);
  }
  t.db = CreateDb(MakeOptions(args), t.in);
  Db& db = *t.db;
  const uint64_t put_slice = Scaled(args, kPutSlice);
  auto put = [&](uint64_t k) {
    if (t.puts.us.size() % put_slice == 0) {
      t.put_marks.push_back(Speed().mark());
      Speed().Sample();
    }
    const std::string key = proteus::EncodeKeyBE(k);
    const std::string value = proteus::MakeValuePayload(k, kValueBytes);
    Stopwatch w;
    Status s;
    {
      Tracer::Scope span(tracer, "lsm.put");
      s = db.Put(key, value);
    }
    t.puts.Add(w.ElapsedNanos());
    report->Count(s.ok());
    Speed().Tick();
  };
  auto flush = [&] {
    t.arena_peak_bytes =
        std::max(t.arena_peak_bytes, db.stats().memtable_arena_bytes);
    Tracer::Scope span(tracer, "lsm.flush");
    report->Count(db.Flush().ok());
  };
  const uint64_t flush_every = Scaled(args, kFlushEvery);
  for (size_t i = 0; i < t.in.order.size(); ++i) {
    put(t.in.keys[t.in.order[i]]);
    if ((i + 1) % flush_every == 0) flush();
  }
  {
    Tracer::Scope span(tracer, "lsm.compact_all");
    report->Count(db.CompactAll().ok());
  }
  // Re-put a slice of keys (same values) as two L0 files plus a live
  // memtable, so queries cross every age class of the read path.
  const size_t n = t.in.keys.size();
  for (size_t slice = 0; slice < 3; ++slice) {
    for (size_t i = slice; i < Scaled(args, kTopLayerKeys); i += 3) {
      put(t.in.keys[(i * 104729) % n]);
    }
    if (slice < 2) flush();
  }
  Stopwatch drain;
  {
    Tracer::Scope span(tracer, "lsm.wait_background");
    db.WaitForBackground();
  }
  t.drain_s = drain.ElapsedSeconds();
  t.load_stats = db.stats();

  if (engine) t.engine = CreateEngine(t.db.get());
  db.ResetStats();
  const auto cache_before = db.cache().stats();
  if (engine) {
    EngineCost warm_up;
    for (size_t b = 0; b < t.batches.size(); ++b) {
      RunBatch(*t.engine, t.batches[b], &t.expected[b * kBatch], t.in.keys,
               tracer, &warm_up, report);
      Speed().Tick();
    }
  } else {
    for (size_t i = 0; i < t.in.encoded.size(); ++i) {
      SeekResult r;
      {
        Tracer::Scope span(tracer, "lsm.seek");
        r = db.Seek(t.in.encoded[i].lo, t.in.encoded[i].hi);
      }
      report->Count(AnswerMatches(r, t.in.keys, t.expected[i]));
      Speed().Tick();
    }
  }
  const DbStats s = db.stats();
  const auto c = CacheDelta(db.cache().stats(), cache_before);
  t.counts.filter_checks = s.filter_checks;
  t.counts.sst_seeks = s.sst_seeks;
  t.counts.fp_files = s.false_positive_files;
  t.counts.blocks = c.hits + c.misses;
  t.counts.sst_bytes = db.TotalSstBytes();
  t.counts.filter_bits = db.TotalFilterBits();
  t.counts.total_keys = db.TotalKeys();
  return t;
}

void RunReadWorkload(const Args& args, bool engine, Tracer& tracer,
                     Report* report) {
  ReadTree tree;
  std::vector<double> setup_s, raw_setup_s;
  PhaseTimes times, put_times;
  ReadCounters timed;
  TraceSplit split;
  EngineCost engine_cost;
  uint64_t load_redesigns = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Close the previous set-up's Db before the next one reuses its dir.
    tree.engine.reset();
    tree.db.reset();
    const CountPass previous = tree.counts;
    const size_t speed_mark = Speed().mark();
    Speed().Sample();
    const uint64_t spent = Speed().spent_ns();
    Stopwatch setup;
    {
      Tracer::Scope root(tracer, "bench.setup");
      tree = BuildReadTree(args, engine, tracer, report);
    }
    const uint64_t setup_ns = setup.ElapsedNanos() - (Speed().spent_ns() - spent);
    raw_setup_s.push_back(setup_ns / 1e9);
    setup_s.push_back(raw_setup_s.back() / Speed().Slowdown(speed_mark));
    put_times.AddSlices(tree.puts, Scaled(args, kPutSlice), tree.put_marks);
    load_redesigns += tree.load_stats.redesigns;
    std::vector<size_t> files = tree.db->LevelFileCounts();
    while (!files.empty() && files.back() == 0) files.pop_back();
    std::string levels;
    for (size_t f : files) levels += " " + std::to_string(f);
    std::printf("setup %d: %.3f s (raw %.3f s)  files per level:%s  counts: %s\n",
                rep, setup_s.back(), raw_setup_s.back(), levels.c_str(),
                tree.counts.ToString().c_str());
    // The read tree's flush policy makes every count repeat exactly; a
    // difference means time-triggered maintenance crept into the load.
    if (rep > 0 && !(tree.counts == previous)) {
      report->Problem("read tree counts differ between set-ups");
    }

    Db& db = *tree.db;
    db.ResetStats();
    const auto cache_before = db.cache().stats();
    const double seconds = args.seconds / kSetupReps;
    {
      Tracer::Scope root(tracer, "bench.timed");
      if (engine) {
        RunTimed(seconds, kBatch, tracer, args.trace, &split, &times,
                 [&](size_t i) {
                   const size_t b = i % tree.batches.size();
                   return RunBatch(*tree.engine, tree.batches[b],
                                   &tree.expected[b * kBatch], tree.in.keys,
                                   tracer, &engine_cost, report);
                 });
      } else {
        const size_t n = tree.in.encoded.size();
        RunTimed(seconds, 1, tracer, args.trace, &split, &times, [&](size_t i) {
          const StrRangeQuery& q = tree.in.encoded[i % n];
          Stopwatch w;
          SeekResult r;
          {
            Tracer::Scope span(tracer, "lsm.seek");
            r = db.Seek(q.lo, q.hi);
          }
          const uint64_t ns = w.ElapsedNanos();
          report->Count(AnswerMatches(r, tree.in.keys, tree.expected[i % n]));
          return ns;
        });
      }
    }
    timed.Add(db.stats(), CacheDelta(db.cache().stats(), cache_before));
  }
  Db& db = *tree.db;
  const CountPass& counts = tree.counts;
  const double fpr = ObservedFpr(counts.filter_checks, counts.sst_seeks, counts.fp_files);
  const double user_bytes = static_cast<double>(tree.in.keys.size() * (8 + kValueBytes));

  std::printf("raw (host speed): read_qps %.1f read_p50_us %.4f write_qps %.1f "
              "write_p50_us %.4f setup_s %.3f\n",
              Median(times.raw_qps), Median(times.raw_p50),
              Median(put_times.raw_qps), Median(put_times.raw_p50),
              Median(raw_setup_s));
  if (!args.trace) {
    report->Add("read_qps", Median(times.qps), "1/s");
    report->Add("read_p50_us", Median(times.p50), "us");
    report->Add("read_p99_us", Median(times.p99), "us");
    report->Add("write_qps", Median(put_times.qps), "1/s");
    report->Add("write_p50_us", Median(put_times.p50), "us");
    report->Add("write_p99_us", Median(put_times.p99), "us");
    report->Add("fpr", fpr, "ratio");
    report->Add("filter_bits_per_key",
                Ratio(counts.filter_bits, counts.total_keys), "bits/key");
    report->Add("space_amp", Ratio(counts.sst_bytes, user_bytes), "ratio");
    report->Add("rss_mb", PeakRssMb(), "MB");
    report->Add("setup_s", Median(setup_s), "s");
    return;
  }

  if (!engine) {
    Tracer::Scope root(tracer, "bench.layers");
    engine_cost = EngineSidePass(tree.db.get(), tree.in, tree.expected, tracer, report);
  }
  AddEngineMetrics(engine_cost, report);
  AddReadPathMetrics(timed, report);
  const DbStats& load = tree.load_stats;
  report->Add("lsm.put_loop_s", tree.puts.busy_ns / 1e9, "s");
  report->Add("lsm.drain_s", tree.drain_s, "s");
  report->Add("lsm.flushes", load.flushes, "count");
  report->Add("lsm.compactions", load.compactions, "count");
  report->Add("lsm.write_stalls", load.write_stalls, "count");
  report->Add("lsm.stall_wait_share",
              Ratio(load.stall_wait_us * 1e3, tree.puts.busy_ns), "ratio");
  const auto wal = db.wal_stats();
  report->Add("lsm.wal_records_per_batch", Ratio(wal.records, wal.batches), "ratio");
  report->Add("lsm.memtable_arena_mb", tree.arena_peak_bytes / 1048576.0, "MB");
  report->Add("model.filter_build_ms", load.filter_build_ns / 1e6, "ms");
  FilterLayerPass(tree.in, tree.expected, tracer, report);
  const double modeled = ModeledFpr(db);
  report->Add("model.modeled_fpr", modeled, "ratio");
  report->Add("model.fpr_ratio", Ratio(fpr, modeled), "ratio");
  report->Add("trace.overhead", split.Overhead(), "ratio");

  if (engine && Ratio(timed.hits, timed.hits + timed.misses) < 0.99) {
    report->Problem("multiseek_warm: block cache hit rate below 0.99");
  }
  if (timed.redesigns != 0 || load_redesigns != 0) {
    report->Problem("read workload ran a filter redesign");
  }
}

// ---------------------------------------------------------------------------
// ingest_mixed
// ---------------------------------------------------------------------------

/// One ingest from an empty Db to a drained tree. Its times are raw; the
/// reported figures divide them by the host's slowdown during the Put loop.
struct Cycle {
  Latencies puts, seeks;
  double put_loop_s = 0, drain_s = 0, slowdown = 1;
  uint64_t arena_peak_bytes = 0;
  DbStats stats;
  proteus::BlockCache::Stats cache;
  proteus::WalWriter::Stats wal;
  double fpr = 0, bits_per_key = 0, space_amp = 0, modeled_fpr = 0;

  double RawWriteQps() const {
    return Ratio(static_cast<double>(puts.us.size()), put_loop_s + drain_s);
  }
  double WriteQps() const { return RawWriteQps() * slowdown; }
  double ReadQps() const { return seeks.Qps(1) * slowdown; }
  /// Percentile `p` of each of kIngestSlices runs of consecutive calls in
  /// `calls` (this ingest's puts or seeks), divided by `slowdown`.
  void AddSlices(const Latencies& calls, double p, double slowdown,
                 std::vector<double>* out) const {
    const size_t per = calls.us.size() / kIngestSlices;
    for (size_t k = 0; k < kIngestSlices; ++k) {
      out->push_back(
          Percentile({calls.us.begin() + static_cast<ptrdiff_t>(k * per),
                      calls.us.begin() + static_cast<ptrdiff_t>((k + 1) * per)},
                     p) / slowdown);
    }
  }
};

/// Percentile `p` of the puts or seeks of ingests: the median over every
/// slice of every ingest, at the reference speed or (raw) as measured.
double SlicedPercentile(std::span<const Cycle> cycles,
                        Latencies Cycle::*calls, double p, bool raw = false) {
  std::vector<double> v;
  for (const Cycle& c : cycles) c.AddSlices(c.*calls, p, raw ? 1 : c.slowdown, &v);
  return Median(v);
}

/// Puts every key in the seeded order with one Seek after every 4 Puts,
/// then waits for background maintenance. Seek answers are recorded and
/// replayed against the keys Put before each Seek once the clock stops.
/// `pos[k]` is key k's position in the Put order. The drained Db is
/// handed back through `db_out`.
Cycle RunIngestCycle(const Args& args, const Inputs& in,
                     const std::vector<uint32_t>& pos, Tracer& tracer,
                     TraceSplit* split, Report* report,
                     std::unique_ptr<Db>* db_out) {
  auto db = CreateDb(MakeOptions(args), in);
  struct SeekRecord {
    bool ok, found;
    std::string key, value;
  };
  const size_t n = in.keys.size();
  std::vector<SeekRecord> records;
  records.reserve(in.encoded.size());
  Cycle c;
  c.puts.us.reserve(n);
  c.seeks.us.reserve(in.encoded.size());
  const auto cache_before = db->cache().stats();
  // The meter samples during the Put loop, on the client's vCPU. Samples
  // taken only before and after each ingest, away from the background
  // threads, tracked the host worse: they doubled the read_qps spread.
  const size_t speed_mark = Speed().mark();
  Speed().Sample();
  const uint64_t spent = Speed().spent_ns();
  {
    Tracer::Scope root(tracer, "bench.timed");
    Stopwatch loop;
    for (size_t i = 0; i < n; ++i) {
      split->Toggle(tracer, args.trace, i);
      const uint64_t k = in.keys[in.order[i]];
      const std::string key = proteus::EncodeKeyBE(k);
      const std::string value = proteus::MakeValuePayload(k, kValueBytes);
      Stopwatch w;
      Status s;
      {
        Tracer::Scope span(tracer, "lsm.put");
        s = db->Put(key, value);
      }
      c.puts.Add(w.ElapsedNanos());
      report->Count(s.ok());
      const size_t j = records.size();
      if ((i + 1) % kSeekEveryPuts == 0 && j < in.encoded.size()) {
        Stopwatch r;
        SeekResult res;
        {
          Tracer::Scope span(tracer, "lsm.seek");
          res = db->Seek(in.encoded[j].lo, in.encoded[j].hi);
        }
        const uint64_t ns = r.ElapsedNanos();
        c.seeks.Add(ns);
        split->Add(tracer, args.trace, ns);
        records.push_back({res.status.ok(), res.found, std::move(res.key),
                           std::move(res.value)});
      }
      if ((i + 1) % kArenaSampleEvery == 0) {
        c.arena_peak_bytes =
            std::max(c.arena_peak_bytes, db->stats().memtable_arena_bytes);
      }
      Speed().Tick();
    }
    c.put_loop_s = (loop.ElapsedNanos() - (Speed().spent_ns() - spent)) / 1e9;
    Stopwatch drain;
    {
      Tracer::Scope span(tracer, "lsm.wait_background");
      db->WaitForBackground();
    }
    c.drain_s = drain.ElapsedSeconds();
  }
  c.slowdown = Speed().Slowdown(speed_mark);
  tracer.set_enabled(args.trace);

  for (size_t j = 0; j < records.size(); ++j) {
    const RangeQuery& q = in.queries[j];
    const size_t visible = (j + 1) * kSeekEveryPuts;
    size_t idx = static_cast<size_t>(
        std::lower_bound(in.keys.begin(), in.keys.end(), q.lo) - in.keys.begin());
    while (idx < n && in.keys[idx] <= q.hi && pos[idx] >= visible) ++idx;
    const int64_t expect =
        idx < n && in.keys[idx] <= q.hi ? static_cast<int64_t>(idx) : -1;
    const SeekRecord& r = records[j];
    report->Count(AnswerMatches(r.ok, r.found, r.key, r.value, in.keys, expect));
  }

  c.stats = db->stats();
  c.cache = CacheDelta(db->cache().stats(), cache_before);
  c.wal = db->wal_stats();
  c.fpr = ObservedFpr(c.stats.filter_checks, c.stats.sst_seeks,
                      c.stats.false_positive_files);
  c.bits_per_key = Ratio(db->TotalFilterBits(), db->TotalKeys());
  c.space_amp = Ratio(db->TotalSstBytes(),
                      static_cast<double>(n * (8 + kValueBytes)));
  c.modeled_fpr = ModeledFpr(*db);
  *db_out = std::move(db);
  return c;
}

void RunIngestWorkload(const Args& args, Tracer& tracer, Report* report) {
  Inputs in;
  std::vector<double> setup_s, raw_setup_s;
  for (int rep = 0; rep < kIngestSetupReps; ++rep) {
    // No calls to sample between: the meter samples before and after.
    const size_t speed_mark = Speed().mark();
    for (int k = 0; k < kSpeedSamplesAround; ++k) Speed().Sample();
    Stopwatch setup;
    std::unique_ptr<Db> db;
    {
      Tracer::Scope root(tracer, "bench.setup");
      {
        Tracer::Scope span(tracer, "workload.gen");
        in = MakeInputs(args.keys, args.seed, /*ingest=*/true);
      }
      db = CreateDb(MakeOptions(args), in);
    }
    raw_setup_s.push_back(setup.ElapsedSeconds());
    for (int k = 0; k < kSpeedSamplesAround; ++k) Speed().Sample();
    setup_s.push_back(raw_setup_s.back() / Speed().Slowdown(speed_mark));
  }
  std::vector<uint32_t> pos(in.order.size());
  for (size_t i = 0; i < in.order.size(); ++i) {
    pos[in.order[i]] = static_cast<uint32_t>(i);
  }

  // One warm-up ingest, not reported: the first ingest of a process ran a
  // median 6% (up to 60%) slower than the rest, as its memory and files
  // were new. Then whole ingests, as many as fit in the timed budget (at
  // least one).
  std::unique_ptr<Db> db;
  TraceSplit split;
  {
    TraceSplit warm_up_split;
    RunIngestCycle(args, in, pos, tracer, &warm_up_split, report, &db);
  }
  std::vector<Cycle> cycles;
  Stopwatch clock;
  double last_cycle_s = 0;
  do {
    db.reset();  // the next ingest reuses the directory
    Stopwatch cycle;
    cycles.push_back(RunIngestCycle(args, in, pos, tracer, &split, report, &db));
    last_cycle_s = cycle.ElapsedSeconds();
    const std::span<const Cycle> last(&cycles.back(), 1);
    std::printf("ingest %zu: %.3f s  put loop %.3f s  drain %.3f s  slowdown %.3f  "
                "read p99 %.3f us  write p99 %.3f us\n",
                cycles.size(), last_cycle_s, last[0].put_loop_s, last[0].drain_s,
                last[0].slowdown, SlicedPercentile(last, &Cycle::seeks, 0.99),
                SlicedPercentile(last, &Cycle::puts, 0.99));
  } while (clock.ElapsedSeconds() + last_cycle_s <= args.seconds);

  auto median_of = [&](auto&& field) {
    std::vector<double> v;
    for (const Cycle& c : cycles) v.push_back(field(c));
    return Median(v);
  };
  std::printf("raw (host speed): read_qps %.1f read_p50_us %.4f write_qps %.1f "
              "write_p50_us %.4f setup_s %.3f\n",
              median_of([](const Cycle& c) { return c.seeks.Qps(1); }),
              SlicedPercentile(cycles, &Cycle::seeks, 0.50, /*raw=*/true),
              median_of([](const Cycle& c) { return c.RawWriteQps(); }),
              SlicedPercentile(cycles, &Cycle::puts, 0.50, /*raw=*/true),
              Median(raw_setup_s));
  if (!args.trace) {
    report->Add("read_qps", median_of([](const Cycle& c) { return c.ReadQps(); }), "1/s");
    report->Add("read_p50_us", SlicedPercentile(cycles, &Cycle::seeks, 0.50), "us");
    report->Add("read_p99_us", SlicedPercentile(cycles, &Cycle::seeks, 0.99), "us");
    report->Add("write_qps", median_of([](const Cycle& c) { return c.WriteQps(); }), "1/s");
    report->Add("write_p50_us", SlicedPercentile(cycles, &Cycle::puts, 0.50), "us");
    report->Add("write_p99_us", SlicedPercentile(cycles, &Cycle::puts, 0.99), "us");
    report->Add("fpr", median_of([](const Cycle& c) { return c.fpr; }), "ratio");
    report->Add("filter_bits_per_key", median_of([](const Cycle& c) { return c.bits_per_key; }), "bits/key");
    report->Add("space_amp", median_of([](const Cycle& c) { return c.space_amp; }), "ratio");
    report->Add("rss_mb", PeakRssMb(), "MB");
    report->Add("setup_s", Median(setup_s), "s");
    return;
  }

  const Cycle& last = cycles.back();
  const std::vector<int64_t> expected = ReferenceAnswers(in);
  {
    Tracer::Scope root(tracer, "bench.layers");
    AddEngineMetrics(EngineSidePass(db.get(), in, expected, tracer, report), report);
  }
  ReadCounters timed;
  timed.Add(last.stats, last.cache);
  AddReadPathMetrics(timed, report);
  report->Add("lsm.put_loop_s", last.put_loop_s, "s");
  report->Add("lsm.drain_s", last.drain_s, "s");
  report->Add("lsm.flushes", last.stats.flushes, "count");
  report->Add("lsm.compactions", last.stats.compactions, "count");
  report->Add("lsm.write_stalls", last.stats.write_stalls, "count");
  report->Add("lsm.stall_wait_share",
              Ratio(last.stats.stall_wait_us / 1e6, last.put_loop_s), "ratio");
  report->Add("lsm.wal_records_per_batch", Ratio(last.wal.records, last.wal.batches), "ratio");
  report->Add("lsm.memtable_arena_mb", last.arena_peak_bytes / 1048576.0, "MB");
  report->Add("model.filter_build_ms", last.stats.filter_build_ns / 1e6, "ms");
  FilterLayerPass(in, expected, tracer, report);
  report->Add("model.modeled_fpr", last.modeled_fpr, "ratio");
  report->Add("model.fpr_ratio", Ratio(last.fpr, last.modeled_fpr), "ratio");
  report->Add("trace.overhead", split.Overhead(), "ratio");
}

std::string EnvJson(const Args& args) {
  char policy[160];
  if (args.workload == "ingest_mixed") {
    std::snprintf(policy, sizeof(policy),
                  "size-triggered flushes at a %llu-byte memtable on %zu "
                  "background threads",
                  static_cast<unsigned long long>(Scaled(args, kIngestMemtableBytes)),
                  DbOptions{}.background_threads);
  } else {
    std::snprintf(policy, sizeof(policy),
                  "explicit Flush() every %llu keys, size triggers off",
                  static_cast<unsigned long long>(Scaled(args, kFlushEvery)));
  }
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"keys\": %zu, "
      "\"nproc\": %ld, \"avx2\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"filter\": \"%s\", "
      "\"flush_policy\": \"wal_sync=false; %s\"}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.keys, sysconf(_SC_NPROCESSORS_ONLN),
      proteus::SimdAvx2Enabled() ? "true" : "false", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, kFilterSpec, policy);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const std::string env = EnvJson(args);
  std::printf("env: %s\n", env.c_str());

  Speed();  // builds the meter's buffers outside every timed stretch
  Tracer tracer;
  tracer.set_enabled(args.trace);
  Report report;
  if (args.workload == "ingest_mixed") {
    RunIngestWorkload(args, tracer, &report);
  } else {
    RunReadWorkload(args, args.workload == "multiseek_warm", tracer, &report);
  }

  if (args.trace) {
    for (const std::string& v : tracer.violations()) report.Problem("trace: " + v);
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out, env)) {
      report.Problem("cannot write " + args.trace_out);
    }
    for (const char* name : {"bench.setup", "bench.timed", "bench.layers",
                             "workload.gen", "lsm.put", "lsm.flush",
                             "lsm.compact_all", "lsm.wait_background",
                             "lsm.seek", "engine.run", "model.design",
                             "core.build", "core.probe"}) {
      const Tracer::Totals t = tracer.Get(name);
      if (t.count == 0) continue;
      std::printf("span %-20s count=%-9llu total_ms=%-12.3f self_ms=%.3f\n",
                  name, static_cast<unsigned long long>(t.count),
                  t.total_ns / 1e6, t.self_ns / 1e6);
    }
  }
  const double slowdown = Speed().Slowdown(0);
  std::printf("host slowdown: %.4f (speed kernel median %.1f us over %zu samples)\n",
              slowdown, slowdown * SpeedMeter::kReferenceNs / 1e3, Speed().mark());
  if (args.trace) report.Add("host.slowdown", slowdown, "ratio");
  for (const Metric& m : report.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  const bool correct = report.failed == 0 && report.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
