// Unit tests for the pure-model half of adaptive self-design: the drift
// detector's documented thresholds (src/lsm/drift.h).

#include <gtest/gtest.h>

#include "lsm/drift.h"

namespace proteus {
namespace {

// ---------------------------------------------------------------------------
// ObservedFpr: false positives over empty-range checks.
// ---------------------------------------------------------------------------

TEST(ObservedFprTest, ConditionsOnEmptyChecks) {
  DriftSignal s;
  s.checks = 1000;
  s.probes = 500;          // 400 true positives, 100 false positives
  s.false_positives = 100;
  // Empty-range checks = 1000 - 400 = 600; 100 of them passed.
  EXPECT_DOUBLE_EQ(ObservedFpr(s), 100.0 / 600.0);
}

TEST(ObservedFprTest, AllEmptyWorkloadIsNotAutomaticallyOne) {
  // Every query empty, filter rejects most: probes == false_positives,
  // but the rate is fp / checks — a good filter scores low even though
  // every probe it let through was by definition a false positive.
  DriftSignal s;
  s.checks = 10000;
  s.probes = 50;
  s.false_positives = 50;
  EXPECT_DOUBLE_EQ(ObservedFpr(s), 50.0 / 10000.0);
}

TEST(ObservedFprTest, NoEmptyChecksIsZero) {
  DriftSignal s;
  s.checks = 100;
  s.probes = 100;  // every check found a key: no empty-range evidence
  s.false_positives = 0;
  EXPECT_DOUBLE_EQ(ObservedFpr(s), 0.0);
  EXPECT_DOUBLE_EQ(ObservedFpr(DriftSignal{}), 0.0);  // no traffic at all
}

// ---------------------------------------------------------------------------
// DetectDrift: synthetic counters through the documented thresholds.
// Defaults: fpr_factor 4, min_probes 256, min_window_samples 64;
// constants: kDriftFprFloor 0.01, kDriftSignatureBits 8.
// ---------------------------------------------------------------------------

DriftSignal CalmSignal() {
  // A file living its modeled life: FPR at the promise, window unmoved.
  DriftSignal s;
  s.checks = 100000;
  s.probes = 2000;
  s.false_positives = 2000;  // 0.02 observed on all-empty traffic
  s.modeled_fpr = 0.02;
  s.design_signature = 40.0;
  s.live_signature = 40.0;
  s.window_samples = 1000;
  return s;
}

TEST(DetectDriftTest, CalmFileIsNotFlagged) {
  EXPECT_EQ(DetectDrift(CalmSignal(), DriftOptions{}), DriftReason::kNone);
}

TEST(DetectDriftTest, MinProbesGatesEverything) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.false_positives = s.probes;   // blown-out FPR...
  s.checks = s.probes;            // ...of exactly 1.0
  s.live_signature = 0.0;         // and a shifted window
  s.probes = o.min_probes - 1;
  s.false_positives = s.probes;
  s.checks = s.probes;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
  s.probes = o.min_probes;  // one more probe arms both triggers
  s.false_positives = s.probes;
  s.checks = s.probes;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
}

TEST(DetectDriftTest, FprTriggerIsStrictlyAboveFactorTimesModeled) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  // Observed = fp / checks (all-empty traffic). Modeled 0.02 -> the
  // trigger line is exactly 0.08.
  s.checks = 100000;
  s.false_positives = 8000;
  s.probes = 8000;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);  // == factor * modeled
  s.false_positives = 8001;
  s.probes = 8001;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kFprExceeded);
}

TEST(DetectDriftTest, FprFloorShieldsTightModels) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.modeled_fpr = kDriftFprFloor / 100;  // promise far below the floor
  s.checks = 100000;
  // 3x the floor observed: 300x the model...
  s.false_positives = static_cast<uint64_t>(3 * kDriftFprFloor * s.checks);
  s.probes = s.false_positives;
  // ...but under factor x floor, so no flag.
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
  // 0.041 > 4 * 0.01
  s.false_positives =
      static_cast<uint64_t>(o.fpr_factor * kDriftFprFloor * s.checks) + 100;
  s.probes = s.false_positives;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kFprExceeded);
}

TEST(DetectDriftTest, NoModelMeansNoFprTrigger) {
  DriftSignal s = CalmSignal();
  s.modeled_fpr = -1.0;
  s.false_positives = s.probes;
  s.checks = s.probes;  // observed 1.0, nothing to compare against
  EXPECT_EQ(DetectDrift(s, DriftOptions{}), DriftReason::kNone);
}

TEST(DetectDriftTest, SignatureShiftNeedsWindowSamples) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.live_signature = s.design_signature + kDriftSignatureBits;  // shifted
  s.window_samples = o.min_window_samples - 1;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
  s.window_samples = o.min_window_samples;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
  // Strictly inside the band: no shift.
  s.live_signature = s.design_signature + kDriftSignatureBits - 0.5;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
}

TEST(DetectDriftTest, PreWindowDesignCountsAsShiftedOnceWindowExists) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.design_signature = -1.0;  // designed before any query was sampled
  s.live_signature = 40.0;
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
  s.live_signature = -1.0;  // still no window: nothing to compare
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kNone);
}

TEST(DetectDriftTest, SignatureCheckedBeforeFpr) {
  DriftOptions o;
  DriftSignal s = CalmSignal();
  s.false_positives = s.probes;
  s.checks = s.probes;  // FPR blowout...
  s.live_signature = s.design_signature + 2.0 * kDriftSignatureBits;
  // ...but a shifted window wins the reason.
  EXPECT_EQ(DetectDrift(s, o), DriftReason::kSignatureShift);
}

}  // namespace
}  // namespace proteus
