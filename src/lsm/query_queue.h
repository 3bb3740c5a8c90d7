// The sample query queue (Section 6.1): a bounded window of recently
// executed empty range queries. Seeded with an initial sample; updated
// with every `sample_rate`-th executed empty query. Filter construction at
// flush/compaction time snapshots the window, which is how Proteus (and
// Rosetta) track workload shifts (Section 6.4).
//
// Eviction is reservoir-style: once the window is full, each newly
// sampled query overwrites a uniformly random slot. Memory stays capped
// at `capacity` entries, and a resident query's survival probability
// decays geometrically with every later sample — so the window is a
// decaying sample dominated by recent traffic, without the cliff of a
// strict FIFO (where one burst evicts the entire history at once).
//
// The queue also maintains a decayed signature of the sampled ranges
// (workload/sample_window.h); the drift detector compares it against the
// value captured at each filter's design time.
//
// Thread-safe: readers on many threads record empty queries while a
// background flush snapshots the sample set. The rate counter is atomic,
// so only the sampled queries (one in `sample_rate`) take the mutex that
// covers the window and its signature.

#ifndef PROTEUS_LSM_QUERY_QUEUE_H_
#define PROTEUS_LSM_QUERY_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/sample_window.h"

namespace proteus {

struct SampleQueueOptions {
  size_t capacity = 20000;     // ~320 KB of queries (Section 6.1)
  uint32_t sample_rate = 100;  // record every 100th empty query; 0 = none
  /// EWMA history weight per sampled query for the range-shape signature
  /// (0.99 ~ the last ~100 samples dominate).
  double signature_decay = 0.99;
};

class SampleQueryQueue {
 public:
  using Options = SampleQueueOptions;

  explicit SampleQueryQueue(Options options = Options())
      : options_(options), signature_(options.signature_decay) {}

  /// Seeds the queue with an initial sample (bypasses rate limiting).
  void Seed(const std::vector<std::pair<std::string, std::string>>& queries) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& q : queries) Record(q.first, q.second);
  }

  /// Records an executed *empty* query, subject to the sampling rate.
  /// Returns true when the query was actually recorded (for the DB's
  /// queue_sampled counter).
  bool OnEmptyQuery(std::string_view lo, std::string_view hi) {
    const uint64_t seen =
        counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.sample_rate == 0 || seen % options_.sample_rate != 0) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Record(lo, hi);
    return true;
  }

  /// Snapshot of the current sample set (filter construction input).
  std::vector<std::pair<std::string, std::string>> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_.size();
  }
  uint64_t seen() const { return counter_.load(std::memory_order_relaxed); }
  /// Queries recorded into the window over the queue's lifetime
  /// (monotonic; eviction does not decrease it).
  uint64_t sampled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sampled_;
  }

  /// The decayed range-shape signature of the sampled queries, in bits of
  /// shared lo/hi prefix; negative while no query has been sampled.
  double Signature() const {
    std::lock_guard<std::mutex> lock(mu_);
    return signature_.value();
  }

 private:
  void Record(std::string_view lo, std::string_view hi) {  // callers hold mu_
    signature_.Observe(lo, hi);
    ++sampled_;
    if (window_.size() < options_.capacity) {
      window_.emplace_back(std::string(lo), std::string(hi));
      return;
    }
    if (options_.capacity == 0) return;
    auto& slot = window_[rng_() % window_.size()];
    slot.first.assign(lo);
    slot.second.assign(hi);
  }

  const Options options_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> window_;
  QuerySignature signature_;
  std::minstd_rand rng_{0x9e3779b9u};  // deterministic victim choice
  std::atomic<uint64_t> counter_{0};  // empty queries offered
  uint64_t sampled_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_LSM_QUERY_QUEUE_H_
