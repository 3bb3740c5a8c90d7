#include "core/two_pbf.h"

#include <algorithm>

#include "core/filter_builder.h"
#include "model/cpfpr.h"
#include "util/bits.h"
#include "util/serial.h"

namespace proteus {

std::unique_ptr<TwoPbfFilter> TwoPbfFilter::BuildFromSpec(
    const FilterSpec& spec, FilterBuilder& builder, std::string* error) {
  if (!spec.ExpectKeys({"bpk", "l1", "l2", "frac1"}, error)) return nullptr;
  double bpk;
  if (!spec.GetDouble("bpk", 12.0, &bpk, error)) return nullptr;
  if (bpk <= 0.0) {
    if (error != nullptr) *error = "twopbf bpk must be positive";
    return nullptr;
  }
  if (spec.Has("l1") || spec.Has("l2") || spec.Has("frac1")) {
    Config config;
    if (!spec.GetUint32("l1", 0, &config.l1, error) ||
        !spec.GetUint32("l2", 64, &config.l2, error) ||
        !spec.GetDouble("frac1", 0.5, &config.frac1, error)) {
      return nullptr;
    }
    if (config.frac1 < 0.0 || config.frac1 >= 1.0) {
      if (error != nullptr) *error = "twopbf frac1 must be in [0, 1)";
      return nullptr;
    }
    if (config.l1 > 64 || config.l2 == 0 || config.l2 > 64) {
      if (error != nullptr) *error = "twopbf l1/l2 must be in [0, 64] / [1, 64]";
      return nullptr;
    }
    return BuildWithConfig(builder.keys(), config, bpk);
  }

  const CpfprModel* model = builder.DesignOrNull();
  if (model == nullptr) {
    return BuildWithConfig(builder.keys(), Config{0, 64, 0.5}, bpk);
  }
  uint64_t budget = static_cast<uint64_t>(
      bpk * static_cast<double>(builder.keys().size()));
  TwoPbfDesign design = model->SelectTwoPbf(budget);
  auto filter = BuildWithConfig(
      builder.keys(), Config{design.l1, design.l2, design.frac1}, bpk);
  filter->modeled_fpr_ = design.expected_fpr;
  return filter;
}

std::unique_ptr<TwoPbfFilter> TwoPbfFilter::BuildWithConfig(
    const std::vector<uint64_t>& sorted_keys, Config config,
    double bits_per_key) {
  auto filter = std::unique_ptr<TwoPbfFilter>(new TwoPbfFilter());
  filter->config_ = config;
  uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));
  if (config.l1 == 0) {
    filter->bf2_ = PrefixBloom(sorted_keys, budget, config.l2);
    return filter;
  }
  uint64_t m1 = static_cast<uint64_t>(static_cast<double>(budget) *
                                      config.frac1);
  filter->bf1_ = PrefixBloom(sorted_keys, m1, config.l1);
  filter->bf2_ = PrefixBloom(sorted_keys, budget - m1, config.l2);
  return filter;
}

bool TwoPbfFilter::MayContain(uint64_t lo, uint64_t hi) const {
  const uint32_t l1 = config_.l1;
  if (l1 == 0) return bf2_.MayContain(lo, hi);
  uint64_t first = PrefixBits64(lo, l1);
  uint64_t last = PrefixBits64(hi, l1);
  if (last - first + 1 > PrefixBloom::kDefaultProbeLimit) return true;
  // Pipelined coarse walk (the ProbeRange arrangement, open-coded because
  // each positive detours into the fine filter): hash prefix v+1 and pull
  // its cache line in while probe v resolves, so the memory access of the
  // next coarse probe overlaps this one's compute — and survives the
  // fine-filter detour already in flight.
  uint64_t h1, h2;
  bf1_.HashPrefix(first, &h1, &h2);
  bf1_.PrefetchHash(h1);
  for (uint64_t v = first;; ++v) {
    uint64_t nh1 = 0, nh2 = 0;
    if (v != last) {
      bf1_.HashPrefix(v + 1, &nh1, &nh2);
      bf1_.PrefetchHash(nh1);
    }
    if (bf1_.ProbeHash(h1, h2)) {
      // Doubt the coarse positive at the fine filter.
      uint64_t region_lo = PrefixRangeLo64(v, l1);
      uint64_t region_hi = PrefixRangeHi64(v, l1);
      uint64_t probe_lo = std::max(lo, region_lo);
      uint64_t probe_hi = std::min(hi, region_hi);
      if (bf2_.MayContain(probe_lo, probe_hi)) return true;
    }
    if (v == last) break;
    h1 = nh1;
    h2 = nh2;
  }
  return false;
}

void TwoPbfFilter::MultiMayContain(const uint64_t* lo, const uint64_t* hi,
                                   size_t n, uint8_t* out) const {
  const uint32_t l1 = config_.l1;
  if (l1 == 0) {
    // Degenerate 1PBF: flatten fine-filter prefixes across queries.
    bf2_.MultiMayContain(lo, hi, n, out);
    return;
  }
  // Flatten narrow queries' coarse prefixes across query boundaries and
  // resolve them through the multi-query kernel; each coarse positive is
  // then doubted at the fine filter exactly as the scalar walk would,
  // clipped to the intersection of its region and its owner query. Fine
  // detours only run for lanes whose owner is still negative, so a query
  // never probes the fine filter more than the scalar short-circuit walk
  // plus at most one extra region per chunk.
  constexpr size_t kChunk = 256;
  uint64_t vals[kChunk];
  uint32_t owner[kChunk];
  uint8_t res[kChunk];
  size_t m = 0;
  auto flush = [&] {
    bf1_.MultiProbePrefix(vals, m, res);
    for (size_t j = 0; j < m; ++j) {
      const size_t i = owner[j];
      if (res[j] == 0 || out[i] != 0) continue;
      const uint64_t region_lo = PrefixRangeLo64(vals[j], l1);
      const uint64_t region_hi = PrefixRangeHi64(vals[j], l1);
      if (bf2_.MayContain(std::max(lo[i], region_lo),
                          std::min(hi[i], region_hi))) {
        out[i] = 1;
      }
    }
    m = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    const uint64_t first = PrefixBits64(lo[i], l1);
    const uint64_t last = PrefixBits64(hi[i], l1);
    if (last - first >= PrefixBloom::kFlattenLimit) {
      out[i] = MayContain(lo[i], hi[i]) ? 1 : 0;
      continue;
    }
    out[i] = 0;
    for (uint64_t p = first;; ++p) {
      vals[m] = p;
      owner[m] = static_cast<uint32_t>(i);
      if (++m == kChunk) flush();
      if (p == last) break;
    }
  }
  if (m > 0) flush();
}

void TwoPbfFilter::SerializePayload(std::string* out) const {
  PutFixed32(out, config_.l1);
  PutFixed32(out, config_.l2);
  PutDouble(out, config_.frac1);
  PutFixed32(out, modeled_fpr_.has_value() ? 1 : 0);
  PutDouble(out, modeled_fpr_.value_or(0.0));
  bf1_.AppendTo(out);
  bf2_.AppendTo(out);
}

std::unique_ptr<TwoPbfFilter> TwoPbfFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::unique_ptr<TwoPbfFilter>(new TwoPbfFilter());
  uint32_t has_fpr;
  double fpr;
  if (!GetFixed32(in, &filter->config_.l1) ||
      !GetFixed32(in, &filter->config_.l2) ||
      !GetDouble(in, &filter->config_.frac1) || !GetFixed32(in, &has_fpr) ||
      !GetDouble(in, &fpr) || !PrefixBloom::ParseFrom(in, &filter->bf1_) ||
      !PrefixBloom::ParseFrom(in, &filter->bf2_)) {
    return nullptr;
  }
  if (has_fpr != 0) filter->modeled_fpr_ = fpr;
  return filter;
}

}  // namespace proteus
