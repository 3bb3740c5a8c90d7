// Closed-loop adaptive self-design (Section 6.4's temporal-skew
// motivation, run against the real LSM instead of a standalone builder):
//
//  1. Phase A (large uniform scans) runs first — on an LSM the query
//     stream exists before most SSTs do — so every flush and compaction
//     during the load designs its filter from the A window.
//  2. The workload shifts to phase B (small correlated lookups). The
//     A-designed filters pay false positives; the drift detector
//     (src/lsm/drift.h) flags the files, and background maintenance
//     rewrites them with filters designed from the live B window.
//  3. The loop measures observed FPR before and after the redesigns —
//     the closed loop is FPR feedback -> drift flag -> redesign ->
//     recovered FPR.
//
// `--json` prints one machine-readable object (CI's adaptive-smoke job
// asserts on it).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lsm/db.h"
#include "surf/surf.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace proteus;

namespace {

struct Window {
  double observed = -1.0;  // false positives / empty-range filter checks
  double modeled = -1.0;   // check-weighted mean of the designs' promises
};

struct Outcome {
  Window phase_a;
  Window stale;      // first B window, before any redesign
  Window recovered;  // B window after the redesigns settled
  uint64_t drift_detected = 0;
  uint64_t redesigns = 0;
  uint64_t filter_bits = 0;
  uint64_t shift_fp_probes = 0;  // false positives paid across the shift
  uint64_t shift_sst_probes = 0;
};

void Drive(Db& db, const std::vector<uint64_t>& keys, const QuerySpec& spec,
           size_t n, uint64_t seed) {
  for (const auto& q : GenerateQueries(keys, spec, n, seed)) {
    db.Seek(EncodeKeyBE(q.lo), EncodeKeyBE(q.hi));
  }
}

struct Counts {
  uint64_t checks = 0, probes = 0, fps = 0;
};

/// Runs `n` empty-range queries and reports the window's observed FPR
/// (false positives over the checks whose range was empty, summed from
/// per-file counter deltas) next to the modeled FPR of the designs the
/// window actually consulted, weighted the same way. Files redesigned
/// mid-window start from zero counters, so their deltas fold in too.
Window Measure(Db& db, const std::vector<uint64_t>& keys,
               const QuerySpec& spec, size_t n, uint64_t seed) {
  std::map<uint64_t, Counts> before;
  for (const auto& f : db.DesignInfo()) {
    before[f.file_id] = {f.checks, f.probes, f.false_positives};
  }
  Drive(db, keys, spec, n, seed);

  Window w;
  double fp_sum = 0.0, empty_sum = 0.0, weighted = 0.0, weight = 0.0;
  for (const auto& f : db.DesignInfo()) {
    auto it = before.find(f.file_id);
    const Counts b = it == before.end() ? Counts{} : it->second;
    const uint64_t checks_d = f.checks - b.checks;
    const uint64_t probes_d = f.probes - b.probes;
    const uint64_t fp_d = f.false_positives - b.fps;
    const uint64_t tp_d = probes_d - fp_d;
    if (checks_d <= tp_d) continue;  // window never saw this file empty
    const double empty = static_cast<double>(checks_d - tp_d);
    fp_sum += static_cast<double>(fp_d);
    empty_sum += empty;
    if (f.modeled_fpr >= 0.0) {
      weighted += empty * f.modeled_fpr;
      weight += empty;
    }
  }
  if (empty_sum > 0.0) w.observed = fp_sum / empty_sum;
  if (weight > 0.0) w.modeled = weighted / weight;
  return w;
}

bool AnyFlagged(Db& db) {
  for (const auto& f : db.DesignInfo()) {
    if (f.drift_flagged) return true;
  }
  return false;
}

Outcome RunClosedLoop(bool quiet) {
  Outcome out;
  auto keys = GenerateKeys(Dataset::kNormal, 30000, 11);

  DbOptions options;
  options.dir = "/tmp/proteus_shift";
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.l0_compaction_trigger = 4;
  options.l1_size_bytes = 256 << 10;
  options.level_size_multiplier = 4.0;
  options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
  options.queue_options = {.capacity = 4000, .sample_rate = 1};
  // Demo-sized drift thresholds: a few hundred probes of evidence.
  options.drift.min_probes = 200;
  options.drift.min_window_samples = 200;

  auto [db_ptr, status] = Db::Create(options);
  if (db_ptr == nullptr) {
    std::fprintf(stderr, "create failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  Db& db = *db_ptr;

  // Phase A: large uniform scans. Phase B: small correlated lookups.
  QuerySpec phase_a;
  phase_a.dist = QueryDist::kUniform;
  phase_a.range_max = uint64_t{1} << 16;
  QuerySpec phase_b;
  phase_b.dist = QueryDist::kCorrelated;
  phase_b.range_max = uint64_t{1} << 4;
  phase_b.corr_degree = uint64_t{1} << 10;

  // Let the A workload populate the sample window before the data
  // arrives, the way a live system's query stream predates any given
  // SST. Every flush/compaction during the load then designs from A.
  Drive(db, keys, phase_a, 3000, 21);
  for (uint64_t k : keys) {
    if (Status s = db.Put(EncodeKeyBE(k), "v"); !s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  if (Status s = db.CompactAll(); !s.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  db.WaitForBackground();

  out.phase_a = Measure(db, keys, phase_a, 4000, 22);
  if (!quiet) {
    std::printf("  phase A served by A-designs: observed %.4f, modeled %.4f\n",
                out.phase_a.observed, out.phase_a.modeled);
  }

  // The workload shifts. Keep serving B until the drift detector has
  // flagged the stale designs and maintenance rewrote them — two quiet
  // rounds (no new flags, no new redesigns) means the loop settled.
  // Bounded rounds so a mis-tuned threshold cannot hang the demo.
  const DbStats shift_base = db.stats();
  uint64_t last_redesigns = 0;
  int quiet_rounds = 0;
  for (int round = 0; round < 24; ++round) {
    Window w = Measure(db, keys, phase_b, 2000, 100 + round);
    db.WaitForBackground();
    if (round == 0) {
      out.stale = w;
      if (!quiet) {
        std::printf("  after shift, stale designs:    observed %.4f\n",
                    w.observed);
      }
    }
    const DbStats s = db.stats();
    if (s.redesigns == last_redesigns && !AnyFlagged(db)) {
      ++quiet_rounds;
    } else {
      quiet_rounds = 0;
    }
    last_redesigns = s.redesigns;
    if (s.redesigns > 0 && quiet_rounds >= 2) break;
  }
  {
    const DbStats s = db.stats();
    out.shift_fp_probes = s.false_positive_files - shift_base.false_positive_files;
    out.shift_sst_probes = s.sst_seeks - shift_base.sst_seeks;
  }

  out.recovered = Measure(db, keys, phase_b, 4000, 23);
  const DbStats final_stats = db.stats();
  out.drift_detected = final_stats.drift_detected;
  out.redesigns = final_stats.redesigns;
  out.filter_bits = db.TotalFilterBits();
  if (!quiet) {
    std::printf(
        "  after %llu redesigns (%llu files flagged): observed %.4f, "
        "modeled %.4f\n",
        static_cast<unsigned long long>(out.redesigns),
        static_cast<unsigned long long>(out.drift_detected),
        out.recovered.observed, out.recovered.modeled);
    std::printf("  filter bytes: %llu, false-positive probes across the "
                "shift: %llu\n",
                static_cast<unsigned long long>(out.filter_bits / 8),
                static_cast<unsigned long long>(out.shift_fp_probes));
  }
  return out;
}

void PrintJson(const Outcome& o) {
  std::printf(
      "{\n"
      "  \"phase_a_observed\": %.6f,\n"
      "  \"phase_a_modeled\": %.6f,\n"
      "  \"stale_observed\": %.6f,\n"
      "  \"recovered_observed\": %.6f,\n"
      "  \"recovered_modeled\": %.6f,\n"
      "  \"drift_detected\": %llu,\n"
      "  \"redesigns\": %llu,\n"
      "  \"filter_bits\": %llu,\n"
      "  \"shift_fp_probes\": %llu,\n"
      "  \"shift_sst_probes\": %llu\n"
      "}\n",
      o.phase_a.observed, o.phase_a.modeled, o.stale.observed,
      o.recovered.observed, o.recovered.modeled,
      static_cast<unsigned long long>(o.drift_detected),
      static_cast<unsigned long long>(o.redesigns),
      static_cast<unsigned long long>(o.filter_bits),
      static_cast<unsigned long long>(o.shift_fp_probes),
      static_cast<unsigned long long>(o.shift_sst_probes));
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const Outcome outcome = RunClosedLoop(json);
  if (json) PrintJson(outcome);
  return 0;
}
