// Shared utilities for the per-figure/table benchmark harnesses.
//
// Every harness accepts:
//   --scale=small|paper   (default small: minutes on a laptop; paper: the
//                          publication's sizes — hours)
//   --keys=N --queries=N --samples=N --seed=N   (explicit overrides)
//   --filter=SPEC         (registry spec string, e.g. "proteus:bpk=12";
//                          harnesses that accept it add the filter as an
//                          extra series, so new families need no bench
//                          plumbing)
//   --json=PATH           (harnesses that support it also dump their
//                          series as a JSON array — machine-readable for
//                          the CI bench-smoke artifact)
//
// Any other flag is an error (exit 2) unless the harness names it as
// one of its own, so a stale or misspelt flag cannot silently run a
// different experiment than the command line says.
//
// Output is whitespace-aligned tables on stdout, one series per paper
// line/panel, ready to quote as they stand.

#ifndef PROTEUS_BENCH_BENCH_COMMON_H_
#define PROTEUS_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/filter_builder.h"
#include "core/filter_registry.h"
#include "lsm/filter_policy.h"
#include "core/range_filter.h"
#include "core/query.h"
#include "surf/surf.h"  // EncodeKeyBE
#include "util/timer.h"

namespace proteus {
namespace bench {

struct Args {
  bool paper_scale = false;
  uint64_t keys = 0;     // 0 = harness default
  uint64_t queries = 0;
  uint64_t samples = 0;
  uint64_t seed = 42;
  std::string filter;    // optional extra series: registry spec string
  std::string json_path; // optional machine-readable dump (--json=PATH)

  uint64_t KeysOr(uint64_t small, uint64_t paper) const {
    if (keys != 0) return keys;
    return paper_scale ? paper : small;
  }
  uint64_t QueriesOr(uint64_t small, uint64_t paper) const {
    if (queries != 0) return queries;
    return paper_scale ? paper : small;
  }
  uint64_t SamplesOr(uint64_t small, uint64_t paper) const {
    if (samples != 0) return samples;
    return paper_scale ? paper : small;
  }
};

/// Parses the common flags. `own` lists the flags the harness parses
/// itself: one ending in '=' matches as a prefix, any other exactly.
inline Args ParseArgs(int argc, char** argv,
                      std::initializer_list<const char*> own = {}) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      args.paper_scale = std::strcmp(a + 8, "paper") == 0;
    } else if (std::strncmp(a, "--keys=", 7) == 0) {
      args.keys = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      args.queries = std::strtoull(a + 10, nullptr, 10);
    } else if (std::strncmp(a, "--samples=", 10) == 0) {
      args.samples = std::strtoull(a + 10, nullptr, 10);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--filter=", 9) == 0) {
      args.filter = a + 9;
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      args.json_path = a + 7;
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf(
          "flags: --scale=small|paper --keys=N --queries=N --samples=N "
          "--seed=N --filter=SPEC --json=PATH");
      for (const char* flag : own) std::printf(" %s", flag);
      std::printf("\n");
      std::exit(0);
    } else {
      bool known = false;
      for (const char* flag : own) {
        const size_t n = std::strlen(flag);
        known = known || (flag[n - 1] == '=' ? std::strncmp(a, flag, n) == 0
                                             : std::strcmp(a, flag) == 0);
      }
      if (!known) {
        std::fprintf(stderr, "unknown flag: %s (see --help)\n", a);
        std::exit(2);
      }
    }
  }
  return args;
}

/// Parses the comma list of flag `arg`, starting at `p`. An empty,
/// non-numeric or zero item is an error (exit 2), as an unknown flag is.
inline std::vector<uint64_t> ParseList(const char* arg, const char* p) {
  std::vector<uint64_t> out;
  for (;;) {
    char* end = nullptr;
    errno = 0;
    const uint64_t n = std::strtoull(p, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0 || errno != 0 ||
        n == 0 || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr,
                   "%s: every item must be a positive number (see --help)\n",
                   arg);
      std::exit(2);
    }
    out.push_back(n);
    if (*end == '\0') return out;
    p = end + 1;
  }
}

/// True when `spec` names a string-key family (surf-str, proteus-str,
/// bloom-str): the harness then feeds keys/queries through their
/// order-preserving 8-byte big-endian encoding.
inline bool SpecIsStringFamily(const std::string& spec) {
  FilterSpec parsed;
  if (!FilterSpec::Parse(spec, &parsed)) return false;
  const FilterFamily* family = FindFilterFamily(parsed.family());
  return family != nullptr && family->kind == Filter::KeyKind::kStr;
}

inline std::vector<std::string> EncodeKeysBE(
    const std::vector<uint64_t>& keys) {
  std::vector<std::string> out;
  out.reserve(keys.size());
  for (uint64_t k : keys) out.push_back(EncodeKeyBE(k));
  return out;
}

inline std::vector<StrRangeQuery> EncodeQueriesBE(
    const std::vector<RangeQuery>& queries) {
  std::vector<StrRangeQuery> out;
  out.reserve(queries.size());
  for (const auto& q : queries) {
    out.push_back({EncodeKeyBE(q.lo), EncodeKeyBE(q.hi)});
  }
  return out;
}

/// Flat JSON records collected into a single array file — enough
/// structure for the CI bench-smoke artifact without a JSON dependency.
class JsonSink {
 public:
  class Record {
   public:
    Record& Str(const char* key, std::string_view v) {
      Key(key);
      body_.push_back('"');
      Escape(v);
      body_.push_back('"');
      return *this;
    }
    Record& Num(const char* key, double v) {
      Key(key);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      body_ += buf;
      return *this;
    }

   private:
    friend class JsonSink;
    void Key(const char* key) {
      body_ += body_.empty() ? "{\"" : ",\"";
      body_ += key;
      body_ += "\":";
    }
    void Escape(std::string_view v) {
      for (char c : v) {
        if (c == '"' || c == '\\') {
          body_.push_back('\\');
          body_.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          body_ += buf;
        } else {
          body_.push_back(c);
        }
      }
    }
    std::string body_;
  };

  Record& Add() {
    records_.emplace_back();
    return records_.back();
  }

  /// Writes "[{...},\n {...}]\n"; exits with a message on I/O failure so
  /// CI never uploads a half-written artifact.
  void WriteArrayOrDie(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fputc('[', f);
    for (size_t i = 0; i < records_.size(); ++i) {
      if (i > 0) std::fputs(",\n ", f);
      std::fputs(records_[i].body_.empty() ? "{" : records_[i].body_.c_str(),
                 f);
      std::fputc('}', f);
    }
    bool ok = std::fputs("]\n", f) >= 0 && std::fflush(f) == 0;
    std::fclose(f);
    if (!ok) {
      std::fprintf(stderr, "error writing %s\n", path.c_str());
      std::exit(1);
    }
  }

 private:
  std::vector<Record> records_;
};

/// Creates a policy from a spec string, exiting with a message on a bad
/// spec ("none" yields null: no filters).
inline std::shared_ptr<FilterPolicy> MakePolicyOrDie(const std::string& spec) {
  Status status;
  auto policy = MakeFilterPolicy(spec, &status);
  if (!status.ok()) {
    std::fprintf(stderr, "filter policy spec \"%s\": %s\n", spec.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return policy;
}

/// Builds a filter from a registry spec string, exiting with a message on
/// a bad spec (benches have no error recovery path worth taking).
inline std::unique_ptr<RangeFilter> BuildFilter(
    const std::string& spec, const std::vector<uint64_t>& keys,
    const std::vector<RangeQuery>& samples) {
  std::string error;
  FilterBuilder builder(keys);
  builder.Sample(samples);
  auto filter = builder.Build(spec, &error);
  if (filter == nullptr) {
    std::fprintf(stderr, "filter spec \"%s\": %s\n", spec.c_str(),
                 error.c_str());
    std::exit(1);
  }
  return filter;
}

inline std::unique_ptr<StrRangeFilter> BuildStrFilter(
    const std::string& spec, const std::vector<std::string>& keys,
    const std::vector<StrRangeQuery>& samples) {
  std::string error;
  StrFilterBuilder builder(keys);
  builder.Sample(samples);
  auto filter = builder.Build(spec, &error);
  if (filter == nullptr) {
    std::fprintf(stderr, "filter spec \"%s\": %s\n", spec.c_str(),
                 error.c_str());
    std::exit(1);
  }
  return filter;
}

/// Observed FPR of an integer range filter on (empty) queries.
inline double MeasureFpr(const RangeFilter& filter,
                         const std::vector<RangeQuery>& queries) {
  size_t fp = 0;
  for (const auto& q : queries) fp += filter.MayContain(q.lo, q.hi);
  return queries.empty() ? 0.0
                         : static_cast<double>(fp) /
                               static_cast<double>(queries.size());
}

inline double MeasureFprStr(const StrRangeFilter& filter,
                            const std::vector<StrRangeQuery>& queries) {
  size_t fp = 0;
  for (const auto& q : queries) fp += filter.MayContain(q.lo, q.hi);
  return queries.empty() ? 0.0
                         : static_cast<double>(fp) /
                               static_cast<double>(queries.size());
}

/// Throughput helper: mean query latency in nanoseconds.
template <typename Fn>
double MeanLatencyNanos(size_t n, Fn&& fn) {
  Stopwatch timer;
  for (size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(timer.ElapsedNanos()) / static_cast<double>(n);
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace bench
}  // namespace proteus

#endif  // PROTEUS_BENCH_BENCH_COMMON_H_
