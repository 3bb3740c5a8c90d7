// Pluggable per-SST filter construction — miniLSM's analogue of RocksDB's
// FilterPolicy, extended to range filters fed by the sample query queue.
//
// Policies are selected by registry spec strings (RocksDB option-string
// style), so every family in the FilterRegistry — and any family
// registered later — is available to the LSM with zero extra plumbing:
//
//   MakeFilterPolicy("none")
//   MakeFilterPolicy("bloom-str:bpk=12")
//   MakeFilterPolicy("proteus:bpk=14")
//   MakeFilterPolicy("surf:mode=real,suffix=4")
//   MakeFilterPolicy("proteus-str:bpk=14,max_key_bits=512,stride=4")
//
// Integer families decode LSM keys as 8-byte big-endian uint64
// (order-preserving); string families see raw keys. Built filters
// serialize through Filter::Serialize, so SST filter blocks can be
// persisted and reloaded with DeserializeSstFilter instead of rebuilt.

#ifndef PROTEUS_LSM_FILTER_POLICY_H_
#define PROTEUS_LSM_FILTER_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace proteus {

/// A built filter attached to one SST file.
class SstFilter {
 public:
  virtual ~SstFilter() = default;
  virtual bool MayContain(std::string_view lo, std::string_view hi) const = 0;

  /// Batch verdicts for MultiSeek: out[i] = MayContain(lo[i], hi[i]).
  /// The default loops; the adapters forward to the wrapped filter's
  /// MultiMayContain, which Bloom-backed families pipeline.
  virtual void MultiMayContain(const std::string_view* lo,
                               const std::string_view* hi, size_t n,
                               uint8_t* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = MayContain(lo[i], hi[i]) ? 1 : 0;
  }

  virtual uint64_t SizeBits() const = 0;

  /// The design model's predicted FPR for this filter (nullopt for
  /// families without a model, or for filters deserialized from disk —
  /// the MANIFEST carries the value across reopen instead).
  virtual std::optional<double> ModeledFpr() const { return std::nullopt; }

  /// Appends the filter's persistent form (Filter::Serialize wire
  /// format). Returns false if this filter cannot be serialized.
  virtual bool Serialize(std::string* /*out*/) const { return false; }
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

  virtual std::string Name() const = 0;
};

/// Builds a policy from a registry spec string ("none" disables
/// filtering). Returns null and fills `status` (InvalidArgument) on an
/// unknown family or a malformed spec.
std::unique_ptr<FilterPolicy> MakeFilterPolicy(const std::string& spec,
                                               Status* status = nullptr);

/// Reconstructs a persisted SST filter block (SstFilter::Serialize
/// output) without rebuilding from keys. Returns null and fills
/// `status` (Corruption) when the blob does not parse.
std::unique_ptr<SstFilter> DeserializeSstFilter(std::string_view blob,
                                                Status* status = nullptr);

}  // namespace proteus

#endif  // PROTEUS_LSM_FILTER_POLICY_H_
