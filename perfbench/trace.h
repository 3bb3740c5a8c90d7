// In-memory span tracer for the benchmark harness.
//
// Spans are recorded around the harness's own calls into the library's
// public functions; nothing inside the library is instrumented. A span has
// a name, start, end, parent and operation id: a span opened directly
// under a root span starts a new operation, deeper spans inherit their
// parent's. Self time (duration minus the children's durations) and
// per-name totals are kept for every span; the first kMaxStoredSpans
// spans are also kept individually and written as JSON at exit.
//
// Turning the tracer off makes Scope a no-op branch, so the untraced
// path is the same code with tracing disabled.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = size_t{1} << 18;

  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  /// Opens a span for the lifetime of the scope if the tracer is on when
  /// the scope begins.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) tracer_->Begin(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Totals for `name` (zeros if no such span ended).
  Totals Get(const char* name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (std::strcmp(names_[i], name) == 0) return totals_[i];
    }
    return Totals{};
  }

  /// Sanity failures seen so far: a child outside its parent's interval,
  /// a negative self time, or a root whose subtree self times do not sum
  /// to its duration.
  const std::vector<std::string>& violations() const { return violations_; }

  /// Writes names, per-name totals and the stored spans as one JSON
  /// object; `env_json` is embedded verbatim under "env".
  bool WriteJson(const std::string& path, const std::string& env_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"env\": %s,\n\"totals\": {", env_json.c_str());
    for (size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f}",
                   i == 0 ? "" : ", ", names_[i],
                   static_cast<unsigned long long>(totals_[i].count),
                   totals_[i].total_ns / 1e6, totals_[i].self_ns / 1e6);
    }
    std::fprintf(f, "},\n\"spans_dropped\": %llu,\n\"names\": [",
                 static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i]);
    }
    std::fprintf(f, "],\n\"span_fields\": [\"name\", \"start_ns\", "
                 "\"end_ns\", \"parent\", \"op\"],\n\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s[%u, %llu, %llu, %lld, %llu]", i == 0 ? "\n" : ",\n",
                   s.name, static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    uint32_t name;
    int64_t parent;  // index into spans_, -1 for a root
    uint64_t op;
    uint64_t start, end;
  };
  struct Frame {
    uint32_t name;
    int64_t stored;  // index into spans_, -1 when not stored
    uint64_t op;
    uint64_t start;
    uint64_t child_ns = 0;
    uint64_t subtree_self_ns = 0;
  };

  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  uint32_t Intern(const char* name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name || std::strcmp(names_[i], name) == 0) {
        return static_cast<uint32_t>(i);
      }
    }
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<uint32_t>(names_.size() - 1);
  }

  void Begin(const char* name) {
    Frame f;
    f.name = Intern(name);
    f.op = stack_.size() <= 1 ? ++next_op_ : stack_.back().op;
    f.start = Now();
    const int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    f.stored = -1;
    if (spans_.size() < kMaxStoredSpans && (stack_.empty() || parent >= 0)) {
      f.stored = static_cast<int64_t>(spans_.size());
      spans_.push_back(Span{f.name, parent, f.op, f.start, 0});
    } else {
      ++dropped_;
    }
    stack_.push_back(f);
  }

  void End() {
    const uint64_t end = Now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t duration = end - f.start;
    const char* name = names_[f.name];
    if (f.child_ns > duration) {
      violations_.push_back(std::string(name) + ": children outlast it");
    }
    const uint64_t self = duration > f.child_ns ? duration - f.child_ns : 0;
    const uint64_t subtree_self = f.subtree_self_ns + self;
    Totals& t = totals_[f.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += self;
    if (f.stored >= 0) spans_[f.stored].end = end;
    if (stack_.empty()) {
      // In integer nanoseconds the self times of a well-nested tree add
      // up to its root's duration exactly.
      if (subtree_self != duration) {
        violations_.push_back(std::string(name) +
                              ": self times do not sum to the root");
      }
      return;
    }
    Frame& parent = stack_.back();
    if (f.start < parent.start) {
      violations_.push_back(std::string(name) + ": starts before its parent");
    }
    parent.child_ns += duration;
    parent.subtree_self_ns += subtree_self;
  }

  bool enabled_ = false;
  const Clock::time_point epoch_ = Clock::now();
  std::vector<const char*> names_;
  std::vector<Totals> totals_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::vector<std::string> violations_;
  uint64_t next_op_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
