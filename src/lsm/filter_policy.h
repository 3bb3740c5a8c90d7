// Per-SST filter construction — miniLSM's analogue of RocksDB's
// FilterPolicy, extended to range filters fed by the sample query queue.
//
// Policies are selected by spec strings (RocksDB option-string style)
// resolved against the filter catalogue (core/filter_registry.h), so every
// family is available to the LSM with zero extra plumbing:
//
//   MakeFilterPolicy("bloom-str:bpk=12")
//   MakeFilterPolicy("proteus:bpk=14")
//   MakeFilterPolicy("surf:mode=real,suffix=4")
//   MakeFilterPolicy("proteus-str:bpk=14,max_key_bits=512,stride=4")
//
// MakeFilterPolicy("none") returns null with an OK status: a Db with a
// null policy builds and loads no filters. Integer families decode LSM
// keys as 8-byte big-endian uint64 (order-preserving); string families
// see raw keys. Built filters serialize through Filter::Serialize, so SST
// filter blocks are persisted and reloaded with DeserializeSstFilter
// instead of rebuilt.

#ifndef PROTEUS_LSM_FILTER_POLICY_H_
#define PROTEUS_LSM_FILTER_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/range_filter.h"
#include "util/bits.h"
#include "util/status.h"

namespace proteus {

/// A built filter attached to one SST file. Queries arrive as encoded LSM
/// keys: an integer filter sees their 8-byte big-endian heads, a string
/// filter the raw keys.
class SstFilter final {
 public:
  explicit SstFilter(std::unique_ptr<Filter> filter);

  bool MayContain(std::string_view lo, std::string_view hi) const {
    if (int_ != nullptr) {
      return int_->MayContain(DecodeKeyBE(lo), DecodeKeyBE(hi));
    }
    return str_->MayContain(lo, hi);
  }

  /// Batch verdicts for MultiSeek: out[i] = MayContain(lo[i], hi[i]),
  /// through the wrapped filter's MultiMayContain, which Bloom-backed
  /// families pipeline.
  void MultiMayContain(const std::string_view* lo, const std::string_view* hi,
                       size_t n, uint8_t* out) const;

  uint64_t SizeBits() const { return filter_->SizeBits(); }

  /// The design model's predicted FPR for this filter (nullopt for
  /// families without a model, or for filters deserialized from disk —
  /// the MANIFEST carries the value across reopen instead).
  std::optional<double> ModeledFpr() const { return filter_->ModeledFpr(); }

  /// Appends the filter's persistent form (Filter::Serialize wire format).
  void Serialize(std::string* out) const { filter_->Serialize(out); }

 private:
  std::unique_ptr<Filter> filter_;
  const RangeFilter* int_ = nullptr;     // filter_, when an integer filter
  const StrRangeFilter* str_ = nullptr;  // filter_, when a string filter
};

class FilterPolicy {
 public:
  virtual ~FilterPolicy() = default;

  /// Builds a filter over the SST's sorted keys. `sample_queries` is the
  /// query-queue snapshot (encoded keys, same representation as `keys`).
  virtual std::unique_ptr<SstFilter> Build(
      const std::vector<std::string>& keys,
      const std::vector<std::pair<std::string, std::string>>& sample_queries)
      const = 0;
};

/// Builds a policy from a spec string. "none" returns null with an OK
/// `status` (no filters). Returns null and fills `status`
/// (InvalidArgument) on an unknown family or a malformed spec.
std::unique_ptr<FilterPolicy> MakeFilterPolicy(const std::string& spec,
                                               Status* status = nullptr);

/// Reconstructs a persisted SST filter block (Filter::Serialize output)
/// without rebuilding from keys. Returns null and fills `status`
/// (Corruption) when the blob does not parse.
std::unique_ptr<SstFilter> DeserializeSstFilter(std::string_view blob,
                                                Status* status = nullptr);

}  // namespace proteus

#endif  // PROTEUS_LSM_FILTER_POLICY_H_
