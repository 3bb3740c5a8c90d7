#include "core/one_pbf.h"

#include "core/filter_builder.h"
#include "model/cpfpr.h"
#include "util/serial.h"

namespace proteus {

std::unique_ptr<OnePbfFilter> OnePbfFilter::BuildFromSpec(
    const FilterSpec& spec, FilterBuilder& builder, std::string* error) {
  if (!spec.ExpectKeys({"bpk", "prefix"}, error)) return nullptr;
  double bpk;
  if (!spec.GetDouble("bpk", 12.0, &bpk, error)) return nullptr;
  if (bpk <= 0.0) {
    if (error != nullptr) *error = "onepbf bpk must be positive";
    return nullptr;
  }
  if (spec.Has("prefix")) {
    uint32_t prefix_len;
    if (!spec.GetUint32("prefix", 64, &prefix_len, error)) return nullptr;
    if (prefix_len == 0 || prefix_len > 64) {
      if (error != nullptr) *error = "onepbf prefix must be in [1, 64]";
      return nullptr;
    }
    return BuildWithConfig(builder.keys(), prefix_len, bpk);
  }

  const CpfprModel* model = builder.DesignOrNull();
  if (model == nullptr) {
    // Full-key Bloom fallback.
    return BuildWithConfig(builder.keys(), 64, bpk);
  }
  uint64_t budget = static_cast<uint64_t>(
      bpk * static_cast<double>(builder.keys().size()));
  OnePbfDesign design = model->SelectOnePbf(budget);
  auto filter = BuildWithConfig(builder.keys(), design.prefix_len, bpk);
  filter->modeled_fpr_ = design.expected_fpr;
  return filter;
}

std::unique_ptr<OnePbfFilter> OnePbfFilter::BuildWithConfig(
    const std::vector<uint64_t>& sorted_keys, uint32_t prefix_len,
    double bits_per_key) {
  auto filter = std::unique_ptr<OnePbfFilter>(new OnePbfFilter());
  uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));
  filter->bf_ = PrefixBloom(sorted_keys, budget, prefix_len);
  return filter;
}

bool OnePbfFilter::MayContain(uint64_t lo, uint64_t hi) const {
  return bf_.MayContain(lo, hi);
}

void OnePbfFilter::MultiMayContain(const uint64_t* lo, const uint64_t* hi,
                                   size_t n, uint8_t* out) const {
  // Narrow queries' prefixes are flattened across query boundaries and
  // resolved through the multi-query kernel; see
  // PrefixBloom::MultiMayContain.
  bf_.MultiMayContain(lo, hi, n, out);
}

void OnePbfFilter::SerializePayload(std::string* out) const {
  PutFixed32(out, modeled_fpr_.has_value() ? 1 : 0);
  PutDouble(out, modeled_fpr_.value_or(0.0));
  bf_.AppendTo(out);
}

std::unique_ptr<OnePbfFilter> OnePbfFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::unique_ptr<OnePbfFilter>(new OnePbfFilter());
  uint32_t has_fpr;
  double fpr;
  if (!GetFixed32(in, &has_fpr) || !GetDouble(in, &fpr) ||
      !PrefixBloom::ParseFrom(in, &filter->bf_)) {
    return nullptr;
  }
  if (has_fpr != 0) filter->modeled_fpr_ = fpr;
  return filter;
}

}  // namespace proteus
