// Full-key Bloom filters lifted into the range-filter interface: the
// paper's point-filtering baseline (a plain Bloom filter cannot rule out
// any range wider than a point, so MayContain(lo, hi) with lo != hi is
// always positive). Previously this existed only as an ad-hoc SstFilter
// inside the LSM filter policies; as first-class RangeFilter /
// StrRangeFilter implementations it participates in the registry, spec
// strings, and serialization like every other family.

#ifndef PROTEUS_BLOOM_BLOOM_RANGE_H_
#define PROTEUS_BLOOM_BLOOM_RANGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/filter_spec.h"
#include "core/range_filter.h"

namespace proteus {

class FilterBuilder;
class StrFilterBuilder;

/// Point-only Bloom filter over 64-bit integer keys.
class BloomIntFilter : public RangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 8;

  static std::unique_ptr<BloomIntFilter> Build(
      const std::vector<uint64_t>& keys, double bits_per_key);
  static std::unique_ptr<BloomIntFilter> BuildFromSpec(const FilterSpec& spec,
                                                       FilterBuilder& builder,
                                                       std::string* error);

  bool MayContain(uint64_t lo, uint64_t hi) const override {
    if (lo != hi) return true;  // point filter: cannot rule out ranges
    return bf_.MayContainInt(lo);
  }
  /// Batched point probes: point queries' hashes are compacted into
  /// stack chunks and resolved through BloomFilter::MultiContainHash
  /// (AVX2 multi-query gathers where the CPU has them).
  void MultiMayContain(const uint64_t* lo, const uint64_t* hi, size_t n,
                       uint8_t* out) const override;
  uint64_t SizeBits() const override { return bf_.SizeBits(); }
  std::string Name() const override { return "Bloom"; }

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<BloomIntFilter> DeserializePayload(
      std::string_view* in);

 private:
  BloomFilter bf_;
};

/// Point-only Bloom filter over raw byte-string keys.
class BloomStrFilter : public StrRangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 9;

  static std::unique_ptr<BloomStrFilter> Build(
      const std::vector<std::string>& keys, double bits_per_key);
  static std::unique_ptr<BloomStrFilter> BuildFromSpec(
      const FilterSpec& spec, StrFilterBuilder& builder, std::string* error);

  bool MayContain(std::string_view lo, std::string_view hi) const override {
    if (lo != hi) return true;
    return bf_.MayContainBytes(lo);
  }
  /// See BloomIntFilter::MultiMayContain.
  void MultiMayContain(const std::string_view* lo, const std::string_view* hi,
                       size_t n, uint8_t* out) const override;
  uint64_t SizeBits() const override { return bf_.SizeBits(); }
  std::string Name() const override { return "Bloom-str"; }

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<BloomStrFilter> DeserializePayload(
      std::string_view* in);

 private:
  BloomFilter bf_;
};

}  // namespace proteus

#endif  // PROTEUS_BLOOM_BLOOM_RANGE_H_
