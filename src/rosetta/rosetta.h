// Rosetta — the Robust Space-Time Optimized range filter baseline (Luo et
// al., SIGMOD 2020), reimplemented for the paper's comparisons.
//
// Rosetta encodes the nodes of an implicit binary segment tree over the
// key space: each used level l holds a Bloom filter of the unique l-bit
// key prefixes. A range query decomposes into dyadic nodes at the top
// used level; every positive probe is "doubted" by descending into the
// node's children until the leaf level (l = 64) confirms, so a query
// returns positive iff some leaf-level probe is positive.
//
// Configuration follows the paper's usage (Sections 2.1, 5.2): the filter
// is given the same empty sample queries as Proteus; the deepest used
// level is derived from the largest sampled range, and the memory split
// across levels is chosen from a set of allocation profiles (uniform
// through strongly bottom-heavy) by a closed-form FPR estimate on the
// samples. In line with the original's findings, the bottom-heavy
// profiles win almost always. Every level's Bloom filter is cache-line
// blocked, the same layout as Proteus's, and the profile estimator prices
// that layout's FPR.

#ifndef PROTEUS_ROSETTA_ROSETTA_H_
#define PROTEUS_ROSETTA_ROSETTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bloom/prefix_bloom.h"
#include "core/filter_spec.h"
#include "core/query.h"
#include "core/range_filter.h"

namespace proteus {

class FilterBuilder;

class RosettaFilter : public RangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 4;

  struct Config {
    uint32_t min_level = 64;                // top used level
    std::vector<double> level_weights;      // index 0 = min_level ... 64
  };

  /// Registry/FilterBuilder hook. Spec parameters: bpk (default 12).
  static std::unique_ptr<RosettaFilter> BuildFromSpec(const FilterSpec& spec,
                                                      FilterBuilder& builder,
                                                      std::string* error);

  /// Self-configuring build from sample queries (the paper's setup).
  static std::unique_ptr<RosettaFilter> BuildSelfConfigured(
      const std::vector<uint64_t>& sorted_keys,
      const std::vector<RangeQuery>& sample_queries, double bits_per_key);

  /// Forced configuration (tests / ablations).
  static std::unique_ptr<RosettaFilter> BuildWithConfig(
      const std::vector<uint64_t>& sorted_keys, const Config& config,
      double bits_per_key);

  bool MayContain(uint64_t lo, uint64_t hi) const override;
  uint64_t SizeBits() const override;
  std::string Name() const override {
    return "Rosetta(L" + std::to_string(min_level_) + ")";
  }

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<RosettaFilter> DeserializePayload(
      std::string_view* in);

  uint32_t min_level() const { return min_level_; }

  /// Bloom probes issued by the last MayContain call (CPU-cost
  /// diagnostics; Section 6.3 discusses Rosetta's probe amplification).
  uint64_t last_probe_count() const { return probes_; }

  static constexpr uint64_t kProbeLimit = uint64_t{1} << 22;

 private:
  RosettaFilter() = default;

  /// Doubting descent: true if the subtree of `prefix` (an l-bit value)
  /// may contain a key within [lo, hi].
  bool CheckNode(uint32_t level, uint64_t prefix, uint64_t lo,
                 uint64_t hi) const;

  /// Level-by-level doubting walk over a dense top-level span: the whole
  /// frontier of live nodes at each level is resolved with one batched
  /// probe call (PrefixBloom::MultiProbePrefix → the AVX2 multi-query
  /// kernel), survivors expand their in-range children into the next
  /// frontier. Falls back to the recursive descent if a frontier ever
  /// outgrows kMaxFrontier. Same answer as the descent; only the probe
  /// count near kProbeLimit can differ (both stay conservative-true).
  bool MayContainBfs(uint64_t first, uint64_t last, uint64_t lo,
                     uint64_t hi) const;

  /// Top-level spans at least this dense take the batched BFS walk.
  static constexpr uint64_t kBatchSpanMin = 16;
  /// BFS frontier cap (bounds the materialized node list to 512 KiB).
  static constexpr size_t kMaxFrontier = size_t{1} << 16;

  /// Probes level l for an l-bit prefix; levels without a filter cannot
  /// rule anything out and answer true.
  bool ProbeLevel(uint32_t level, uint64_t prefix) const;

  uint32_t min_level_ = 64;
  // filters_[l - min_level_] for l in [min_level_, 64]; empty filter =
  // unfiltered level.
  std::vector<PrefixBloom> filters_;
  mutable uint64_t probes_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_ROSETTA_ROSETTA_H_
