// The drift detector: decides, from one SST's observed probe counters and
// the live query window, whether the file's filter was designed for a
// workload that no longer exists and should be rebuilt from a fresh
// sample at the next maintenance pass.
//
// Two independent triggers, both gated on a minimum number of probes so
// a handful of unlucky false positives cannot thrash redesigns:
//
//  * Observed-FPR blowout: the filter's live false-positive rate —
//    false positives over the checks whose range was actually empty for
//    this file (checks - true-positive probes) — exceeds `fpr_factor`
//    times the FPR the design model promised (floored at kDriftFprFloor,
//    so a 0.0001 model estimate does not make a 0.0005 observation look
//    like drift). The denominator matters: false positives over PROBES
//    is ~1.0 on any empty-heavy workload regardless of filter quality,
//    which would re-flag a freshly redesigned file forever.
//  * Signature shift: the decayed range-shape signature of the sampled
//    query window (SampleQueryQueue::Signature) moved at least
//    kDriftSignatureBits away from its value when the filter was designed —
//    or the filter was designed before any query had ever been sampled
//    and a real window exists now. Requires `min_window_samples` fresh
//    samples since the design so one odd query cannot trigger it.
//
// Pure functions over a value struct: the LSM fills DriftSignal from its
// per-file atomics, and the unit tests drive synthetic counters through
// exactly the documented thresholds.

#ifndef PROTEUS_LSM_DRIFT_H_
#define PROTEUS_LSM_DRIFT_H_

#include <cmath>
#include <cstdint>

namespace proteus {

/// Modeled-FPR floor for the blowout comparison.
inline constexpr double kDriftFprFloor = 0.01;
/// Signature distance (bits of shared lo/hi prefix) that counts as a
/// range-distribution shift.
inline constexpr double kDriftSignatureBits = 8.0;

struct DriftOptions {
  /// Observed FPR must exceed this multiple of the modeled FPR.
  double fpr_factor = 4.0;
  /// Minimum filter passes (SST probes) before either trigger can fire.
  uint64_t min_probes = 256;
  /// Queries sampled into the window since the design before the
  /// signature trigger may fire.
  uint64_t min_window_samples = 64;
};

/// One SST's drift evidence. Negative doubles mean "not available".
struct DriftSignal {
  uint64_t checks = 0;           // times the filter was consulted
  uint64_t probes = 0;           // filter passes that probed the SST
  uint64_t false_positives = 0;  // of those, probes that found nothing
  double modeled_fpr = -1.0;     // design model's promise (< 0: none)
  double design_signature = -1.0;  // window signature at design time
  double live_signature = -1.0;    // window signature now
  uint64_t window_samples = 0;     // queries sampled since the design
};

enum class DriftReason { kNone, kFprExceeded, kSignatureShift };

/// False positives over the checks whose range held no key in this file:
/// a probe that found something proves its range was non-empty, so
/// empty-range checks = checks - (probes - false_positives). This is the
/// live counterpart of the model's FPR (which is also conditioned on the
/// query being empty).
inline double ObservedFpr(const DriftSignal& s) {
  const uint64_t true_positives = s.probes - s.false_positives;
  if (s.checks <= true_positives) return 0.0;
  return static_cast<double>(s.false_positives) /
         static_cast<double>(s.checks - true_positives);
}

/// Applies the documented thresholds. The signature trigger is checked
/// first: a shifted window invalidates the design outright, while an FPR
/// blowout alone may just be a miscalibrated model worth one resample.
inline DriftReason DetectDrift(const DriftSignal& s, const DriftOptions& o) {
  if (s.probes < o.min_probes) return DriftReason::kNone;
  if (s.window_samples >= o.min_window_samples && s.live_signature >= 0.0) {
    if (s.design_signature < 0.0 ||
        std::fabs(s.live_signature - s.design_signature) >=
            kDriftSignatureBits) {
      return DriftReason::kSignatureShift;
    }
  }
  if (s.modeled_fpr >= 0.0 &&
      ObservedFpr(s) >
          o.fpr_factor * std::max(s.modeled_fpr, kDriftFprFloor)) {
    return DriftReason::kFprExceeded;
  }
  return DriftReason::kNone;
}

}  // namespace proteus

#endif  // PROTEUS_LSM_DRIFT_H_
