// Multi-threaded read/write benchmark for the concurrent MVCC core:
// N writer threads group-commit continuously while M reader threads
// Seek at full speed against an atomically-swapped Version — readers
// never take the writer mutex, so read throughput should scale with M.
//
// For each (writers, readers) pair in the --writers x --readers comma
// lists, the harness runs one timed window and reports aggregate read
// qps, read latency percentiles, and sustained write throughput; the
// final lines print the read-scaling factor (largest over smallest
// reader count) and, when several writer counts ran, the write-scaling
// factor across them — how group commit, whose leader is the memtable's
// one writer, holds up as writers queue behind it.
//
// Flags beyond bench_common's: --writers=LIST (default 1),
// --readers=LIST (default 1,2,4,8), --duration-ms=N per window (default
// 1500), --snapshot-reads (pin one snapshot per window and read through
// it).
// --json=PATH dumps one record per (writers, readers) window.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "lsm/db.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace proteus {
namespace {

struct MtArgs {
  std::vector<uint64_t> writers = {1};
  std::vector<uint64_t> readers = {1, 2, 4, 8};
  uint64_t duration_ms = 1500;
  bool snapshot_reads = false;
};

MtArgs ParseMtArgs(int argc, char** argv) {
  MtArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--writers=", 10) == 0) {
      args.writers = bench::ParseList(a, a + 10);
    } else if (std::strncmp(a, "--readers=", 10) == 0) {
      args.readers = bench::ParseList(a, a + 10);
    } else if (std::strncmp(a, "--duration-ms=", 14) == 0) {
      const std::vector<uint64_t> ms = bench::ParseList(a, a + 14);
      if (ms.size() != 1) {
        std::fprintf(stderr, "%s: takes one number (see --help)\n", a);
        std::exit(2);
      }
      args.duration_ms = ms[0];
    } else if (std::strcmp(a, "--snapshot-reads") == 0) {
      args.snapshot_reads = true;
    }
  }
  return args;
}

double PercentileUs(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_us.size() - 1);
  return sorted_us[static_cast<size_t>(rank + 0.5)];
}

struct WindowResult {
  double read_qps = 0.0;
  double write_qps = 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  uint64_t reads = 0, writes = 0, found = 0;
};

WindowResult RunWindow(Db& db, const std::vector<StrRangeQuery>& queries,
                       uint64_t n_writers, uint64_t n_readers,
                       uint64_t duration_ms, bool snapshot_reads,
                       uint64_t key_space) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};

  std::shared_ptr<const Snapshot> snap;
  ReadOptions read_options;
  if (snapshot_reads) {
    snap = db.GetSnapshot();
    read_options.snapshot = snap.get();
  }

  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < n_writers; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + w);
      uint64_t round = 0;
      std::string value = MakeValuePayload(w, 128);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = rng.NextBelow(key_space);
        if (!db.Put(EncodeKeyBE(k), value).ok()) break;
        writes.fetch_add(1, std::memory_order_relaxed);
        ++round;
      }
      (void)round;
    });
  }

  struct ReaderSlot {
    uint64_t reads = 0;
    uint64_t found = 0;
    std::vector<double> latencies_us;
  };
  std::vector<ReaderSlot> slots(n_readers);
  std::vector<std::thread> readers;
  for (uint64_t r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      ReaderSlot& slot = slots[r];
      slot.latencies_us.reserve(1 << 16);
      size_t i = r * 7919 % queries.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& q = queries[i];
        if (++i == queries.size()) i = 0;
        // Sample every 16th read's latency to bound the timer overhead.
        if ((slot.reads & 15) == 0) {
          Stopwatch timer;
          slot.found += db.Seek(q.lo, q.hi, read_options).found;
          slot.latencies_us.push_back(
              static_cast<double>(timer.ElapsedNanos()) / 1e3);
        } else {
          slot.found += db.Seek(q.lo, q.hi, read_options).found;
        }
        ++slot.reads;
      }
    });
  }

  Stopwatch wall;
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  const double seconds = wall.ElapsedSeconds();
  for (auto& t : readers) t.join();
  for (auto& t : writers) t.join();

  WindowResult out;
  std::vector<double> latencies;
  for (const ReaderSlot& slot : slots) {
    out.reads += slot.reads;
    out.found += slot.found;
    latencies.insert(latencies.end(), slot.latencies_us.begin(),
                     slot.latencies_us.end());
  }
  out.writes = writes.load();
  out.read_qps = seconds == 0 ? 0 : static_cast<double>(out.reads) / seconds;
  out.write_qps = seconds == 0 ? 0 : static_cast<double>(out.writes) / seconds;
  std::sort(latencies.begin(), latencies.end());
  out.p50_us = PercentileUs(latencies, 0.50);
  out.p99_us = PercentileUs(latencies, 0.99);
  return out;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  using namespace proteus;
  using bench::JsonSink;

  bench::Args common = bench::ParseArgs(
      argc, argv,
      {"--writers=", "--readers=", "--duration-ms=", "--snapshot-reads"});
  MtArgs mt = ParseMtArgs(argc, argv);
  const uint64_t n_keys = common.KeysOr(100000, 2000000);
  const uint64_t n_queries = common.QueriesOr(20000, 200000);
  const std::string filter_spec =
      common.filter.empty() ? "proteus:bpk=14" : common.filter;
  const uint64_t key_space = n_keys * 8;

  DbOptions options;
  options.dir = "/tmp/proteus_bench_mt";
  std::error_code ec;
  std::filesystem::remove_all(options.dir, ec);
  options.memtable_bytes = 1u << 20;
  options.sst_target_bytes = 1u << 20;
  options.l1_size_bytes = 8u << 20;
  options.block_cache_bytes = 64u << 20;
  options.wal_sync = false;  // group commit batches; measure CPU not fsync
  options.filter_policy = bench::MakePolicyOrDie(filter_spec);
  auto [db_ptr, db_status] = Db::Create(options);
  if (!db_status.ok()) {
    std::fprintf(stderr, "db create failed: %s\n",
                 db_status.ToString().c_str());
    return 1;
  }
  Db& db = *db_ptr;

  Rng fill(common.seed);
  for (uint64_t i = 0; i < n_keys; ++i) {
    const uint64_t k = fill.NextBelow(key_space);
    if (!db.Put(EncodeKeyBE(k), MakeValuePayload(k, 128)).ok()) {
      std::fprintf(stderr, "fill put failed\n");
      return 1;
    }
  }
  if (Status s = db.CompactAll(); !s.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Mixed read workload: short ranges over the same key space the
  // writers churn, with a slice of guaranteed-present point lookups.
  Rng qrng(common.seed + 1);
  std::vector<StrRangeQuery> queries;
  queries.reserve(n_queries);
  for (uint64_t i = 0; i < n_queries; ++i) {
    const uint64_t lo = qrng.NextBelow(key_space);
    queries.push_back({EncodeKeyBE(lo), EncodeKeyBE(lo + 64)});
  }

  bench::PrintHeader("mt: concurrent readers vs writers");
  std::printf("keys=%llu duration=%llums snapshot_reads=%d\n",
              static_cast<unsigned long long>(n_keys),
              static_cast<unsigned long long>(mt.duration_ms),
              mt.snapshot_reads ? 1 : 0);

  JsonSink sink;
  double first_read_qps = 0.0, last_read_qps = 0.0;
  uint64_t first_readers = 0, last_readers = 0;
  double first_write_qps = 0.0, last_write_qps = 0.0;
  uint64_t first_writers = 0, last_writers = 0;
  for (uint64_t w : mt.writers) {
    for (uint64_t m : mt.readers) {
      WindowResult r = RunWindow(db, queries, w, m, mt.duration_ms,
                                 mt.snapshot_reads, key_space);
      std::printf("writers=%-3llu readers=%-3llu read_qps=%10.0f  "
                  "p50=%7.1fus  p99=%7.1fus  write_qps=%9.0f  found=%llu\n",
                  static_cast<unsigned long long>(w),
                  static_cast<unsigned long long>(m), r.read_qps, r.p50_us,
                  r.p99_us, r.write_qps,
                  static_cast<unsigned long long>(r.found));
      sink.Add()
          .Str("bench", "mt")
          .Num("writers", static_cast<double>(w))
          .Num("readers", static_cast<double>(m))
          .Num("duration_ms", static_cast<double>(mt.duration_ms))
          .Num("snapshot_reads", mt.snapshot_reads ? 1 : 0)
          .Num("read_qps", r.read_qps)
          .Num("write_qps", r.write_qps)
          .Num("p50_us", r.p50_us)
          .Num("p99_us", r.p99_us)
          .Num("reads", static_cast<double>(r.reads))
          .Num("writes", static_cast<double>(r.writes))
          .Num("found", static_cast<double>(r.found));
      if (first_readers == 0) {
        first_readers = m;
        first_read_qps = r.read_qps;
      }
      last_readers = m;
      last_read_qps = r.read_qps;
      // Write scaling compares windows at the FIRST reader count so the
      // read-side load is held constant across writer counts.
      if (m == mt.readers.front()) {
        if (first_writers == 0) {
          first_writers = w;
          first_write_qps = r.write_qps;
        }
        last_writers = w;
        last_write_qps = r.write_qps;
      }
    }
  }
  db.WaitForBackground();
  if (first_readers != 0 && last_readers > first_readers &&
      first_read_qps > 0) {
    std::printf("scaling: %llu -> %llu readers = %.2fx read throughput\n",
                static_cast<unsigned long long>(first_readers),
                static_cast<unsigned long long>(last_readers),
                last_read_qps / first_read_qps);
  }
  if (first_writers != 0 && last_writers > first_writers &&
      first_write_qps > 0) {
    std::printf("scaling: %llu -> %llu writers = %.2fx write throughput\n",
                static_cast<unsigned long long>(first_writers),
                static_cast<unsigned long long>(last_writers),
                last_write_qps / first_write_qps);
  }

  if (!common.json_path.empty()) sink.WriteArrayOrDie(common.json_path);
  return 0;
}
