// 1PBF — a self-designing single prefix Bloom filter (Section 4): the
// simplest Protean Range Filter. The CPFPR model (Eq. 1) selects the one
// prefix length that minimizes expected FPR on the sampled queries.
//
// Spec parameters: bpk (default 12), prefix (forced prefix length, skips
// the model — Figure 4a sweeps).

#ifndef PROTEUS_CORE_ONE_PBF_H_
#define PROTEUS_CORE_ONE_PBF_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bloom/prefix_bloom.h"
#include "core/filter_spec.h"
#include "core/query.h"
#include "core/range_filter.h"

namespace proteus {

class FilterBuilder;

class OnePbfFilter : public RangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 2;

  static std::unique_ptr<OnePbfFilter> BuildFromSpec(const FilterSpec& spec,
                                                     FilterBuilder& builder,
                                                     std::string* error);

  /// Forced prefix length (Figure 4a sweeps).
  static std::unique_ptr<OnePbfFilter> BuildWithConfig(
      const std::vector<uint64_t>& sorted_keys, uint32_t prefix_len,
      double bits_per_key);

  bool MayContain(uint64_t lo, uint64_t hi) const override;
  /// Batched across queries: narrow queries' prefixes are flattened into
  /// one array and resolved through the AVX2 multi-query kernel
  /// (PrefixBloom::MultiMayContain); wide queries keep the scalar walk.
  void MultiMayContain(const uint64_t* lo, const uint64_t* hi, size_t n,
                       uint8_t* out) const override;
  uint64_t SizeBits() const override { return bf_.SizeBits(); }
  std::string Name() const override {
    return "1PBF(l" + std::to_string(bf_.prefix_len()) + ")";
  }

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<OnePbfFilter> DeserializePayload(
      std::string_view* in);

  uint32_t prefix_len() const { return bf_.prefix_len(); }
  std::optional<double> modeled_fpr() const { return modeled_fpr_; }
  std::optional<double> ModeledFpr() const override { return modeled_fpr_; }

 private:
  OnePbfFilter() = default;

  PrefixBloom bf_;
  std::optional<double> modeled_fpr_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_ONE_PBF_H_
