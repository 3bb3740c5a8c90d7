// The common base class of every filter in the library.
//
// Filter carries what is shared by the integer and string interfaces
// (previously duplicated between RangeFilter and StrRangeFilter in
// range_filter.h): size accounting, naming, and serialization. The query
// interfaces themselves live in the two kind-specific subclasses declared
// in core/range_filter.h.
//
// Serialization wire format (versioned):
//   u32 magic "PFLT" | u32 version | u32 family id | family payload
// Each family's row in the fixed filter catalogue (core/filter_registry.h)
// holds its payload deserializer under its wire id; Filter::Deserialize
// reads the header and dispatches through that table, so persisting an
// SST's filter block and reloading it never rebuilds from keys.

#ifndef PROTEUS_CORE_FILTER_H_
#define PROTEUS_CORE_FILTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "util/serial.h"

namespace proteus {

class Filter {
 public:
  /// Which key domain the filter answers queries over.
  enum class KeyKind { kInt, kStr };

  static constexpr uint32_t kMagic = 0x544C4650;  // "PFLT", little-endian
  static constexpr uint32_t kVersion = 1;

  virtual ~Filter() = default;

  virtual KeyKind kind() const = 0;

  /// Memory footprint of the filter in bits (all components included).
  virtual uint64_t SizeBits() const = 0;

  /// Human-readable filter name, e.g. "Proteus(t16,b48)" or "SuRF-Real8".
  virtual std::string Name() const = 0;

  /// Bits per key, given the number of keys the filter was built on.
  double Bpk(uint64_t n_keys) const {
    return n_keys == 0 ? 0.0 : static_cast<double>(SizeBits()) / n_keys;
  }

  /// The FPR the design model predicted for this filter under the sample
  /// it was built from, when the family self-designs (Proteus, 1PBF,
  /// 2PBF). Families without a model (Bloom, SuRF, Rosetta) return
  /// nullopt. The LSM compares this against the observed per-SST FPR to
  /// detect workload drift.
  virtual std::optional<double> ModeledFpr() const { return std::nullopt; }

  /// Stable identifier of the filter family on the wire (the catalogue
  /// in core/filter_registry.h maps ids to families).
  virtual uint32_t FamilyId() const = 0;

  /// Appends the family payload (everything after the header).
  virtual void SerializePayload(std::string* out) const = 0;

  /// Appends the versioned header plus the family payload.
  void Serialize(std::string* out) const {
    PutFixed32(out, kMagic);
    PutFixed32(out, kVersion);
    PutFixed32(out, FamilyId());
    SerializePayload(out);
  }

  /// Reconstructs a filter from Serialize() output. Returns null (and
  /// fills `error` when given) on a bad header, unknown family, or corrupt
  /// payload. Implemented in filter_registry.cc.
  static std::unique_ptr<Filter> Deserialize(std::string_view in,
                                             std::string* error = nullptr);
};

}  // namespace proteus

#endif  // PROTEUS_CORE_FILTER_H_
