// 2PBF — a self-designing pair of prefix Bloom filters (Section 4),
// equivalent to a two-level Rosetta. A range query first probes the
// coarse (l1) filter per region; every coarse positive is "doubted" by
// probing the fine (l2) filter over the region's l2-prefixes. The CPFPR
// model (Eq. 4) selects (l1, l2) and the memory split.
//
// Spec parameters: bpk (default 12); l1, l2, frac1 force the
// configuration and skip the model.

#ifndef PROTEUS_CORE_TWO_PBF_H_
#define PROTEUS_CORE_TWO_PBF_H_

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

class TwoPbfFilter : public RangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 3;

  struct Config {
    uint32_t l1 = 0;  // 0 = no coarse filter (degenerates to 1PBF)
    uint32_t l2 = 64;
    double frac1 = 0.5;
  };

  static std::unique_ptr<TwoPbfFilter> BuildFromSpec(const FilterSpec& spec,
                                                     FilterBuilder& builder,
                                                     std::string* error);

  static std::unique_ptr<TwoPbfFilter> BuildWithConfig(
      const std::vector<uint64_t>& sorted_keys, Config config,
      double bits_per_key);

  bool MayContain(uint64_t lo, uint64_t hi) const override;
  /// Batched coarse walk: narrow queries' l1-prefixes are flattened into
  /// one array and resolved through the AVX2 multi-query kernel; only the
  /// (rare) coarse positives detour into the fine filter, scalar, exactly
  /// as MayContain would. Wide queries keep the scalar pipelined walk.
  void MultiMayContain(const uint64_t* lo, const uint64_t* hi, size_t n,
                       uint8_t* out) const override;
  uint64_t SizeBits() const override {
    return bf1_.SizeBits() + bf2_.SizeBits();
  }
  std::string Name() const override {
    return "2PBF(l" + std::to_string(config_.l1) + ",l" +
           std::to_string(config_.l2) + ")";
  }

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<TwoPbfFilter> DeserializePayload(
      std::string_view* in);

  const Config& config() const { return config_; }
  std::optional<double> modeled_fpr() const { return modeled_fpr_; }
  std::optional<double> ModeledFpr() const override { return modeled_fpr_; }

 private:
  TwoPbfFilter() = default;

  Config config_;
  PrefixBloom bf1_;  // coarse; unused when l1 == 0
  PrefixBloom bf2_;  // fine
  std::optional<double> modeled_fpr_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_TWO_PBF_H_
