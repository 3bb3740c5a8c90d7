// Machine-speed calibration for runs on a shared host.
//
// On the shared 4-vCPU host this benchmark was built on, the speed one
// vCPU gets moves by up to 2x between minutes and by ~1.5x between
// seconds, with the load of the host's other tenants. A fixed kernel,
// timed every kSampleEveryNs between the benchmark's own calls, measures
// that speed at the moment. The harness divides each timed stretch by the
// slowdown of the samples taken during it (or, on ingest_mixed, right
// around it), so a time reads as it would with the kernel at kReferenceNs.
//
// The kernel is branchy, cache-resident work of the kind the read path
// does: sorting, binary search, Bloom-style bit probes. Over 0.3 s slices
// its time tracked read_p50_us and 1/read_qps with a correlation of
// 0.85-0.9 on seek_cold and multiseek_warm; a multiply chain (clock speed
// alone) tracked at 0.1-0.4, and a DRAM pointer chase at 0.3-0.4. Each
// sample runs the kernel twice and times the second run, so its data is
// in cache whatever the benchmark touched before. It shares no code with
// the library, so a change to the program moves the normalised times in
// full. The raw times and the slowdown are printed beside them.

#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/timer.h"

namespace perfbench {

class SpeedMeter {
 public:
  static constexpr uint64_t kSampleEveryNs = 50'000'000;
  /// The kernel's time at the reference speed: roughly its median on the
  /// host above, which most runs there come close to.
  static constexpr double kReferenceNs = 320'000;

  SpeedMeter()
      : sorted_(kSortedWords), bits_(kBitWords), buf_(kSortWords), rng_(0x5EED) {
    for (uint64_t& v : sorted_) v = rng_.Next();
    std::sort(sorted_.begin(), sorted_.end());
    for (uint64_t& v : bits_) v = rng_.Next();
    Sample();
  }

  /// Runs the kernel to warm its data, then again timed; records and
  /// returns the timed run's ns.
  uint64_t Sample() {
    Stopwatch total;
    Kernel();
    Stopwatch t;
    Kernel();
    const uint64_t ns = t.ElapsedNanos();
    samples_.push_back(ns);
    spent_ns_ += total.ElapsedNanos();
    since_.Reset();
    return ns;
  }

  /// Samples if kSampleEveryNs have passed since the last sample.
  void Tick() {
    if (since_.ElapsedNanos() >= kSampleEveryNs) Sample();
  }

  /// Index of the next sample, to mark the start of a timed stretch.
  size_t mark() const { return samples_.size(); }
  /// Total time spent sampling, to take out of wall-clock stretches.
  uint64_t spent_ns() const { return spent_ns_; }

  /// The slowdown against the reference over samples [from, now): their
  /// median over kReferenceNs. Samples first if there is none.
  double Slowdown(size_t from) {
    if (from >= samples_.size()) Sample();
    return Slowdown(from, samples_.size());
  }

  /// The same over samples [from, to); needs from < to <= mark().
  double Slowdown(size_t from, size_t to) const {
    std::vector<uint64_t> v(samples_.begin() + static_cast<ptrdiff_t>(from),
                            samples_.begin() + static_cast<ptrdiff_t>(to));
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const double median =
        n % 2 == 1 ? static_cast<double>(v[n / 2])
                   : (static_cast<double>(v[n / 2 - 1]) +
                      static_cast<double>(v[n / 2])) / 2;
    return median / kReferenceNs;
  }

 private:
  using Stopwatch = proteus::Stopwatch;

  // 0.5 MiB of data in all, well inside one core's 2 MiB L2.
  static constexpr size_t kSortWords = 2048;
  static constexpr size_t kSortedWords = size_t{1} << 15;
  static constexpr size_t kBitWords = size_t{1} << 15;
  static constexpr int kSearches = 1000;
  static constexpr int kBitProbes = 10000;

  void Kernel() {
    uint64_t sink = 0;
    for (uint64_t& v : buf_) v = rng_.Next();
    std::sort(buf_.begin(), buf_.end());
    sink += buf_[sink_ % kSortWords];
    for (int i = 0; i < kSearches; ++i) {
      sink += static_cast<uint64_t>(
          std::lower_bound(sorted_.begin(), sorted_.end(), rng_.Next()) -
          sorted_.begin());
    }
    for (int i = 0; i < kBitProbes; ++i) {
      const uint64_t h = rng_.Next();
      if ((bits_[(h >> 6) % kBitWords] >> (h & 63)) & 1) {
        sink += h;
      } else {
        sink ^= h >> 7;
      }
    }
    sink_ = sink_ + sink;
  }

  std::vector<uint64_t> sorted_, bits_, buf_;
  proteus::Rng rng_;
  std::vector<uint64_t> samples_;
  uint64_t spent_ns_ = 0;
  volatile uint64_t sink_ = 0;  // keeps the kernel from being optimised away
  Stopwatch since_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
