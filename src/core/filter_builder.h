// FilterBuilder: the one copy of the Sample() -> Design() -> Build()
// control flow that every self-designing filter family used to duplicate
// as a BuildSelfDesigned / BuildFromModel / BuildWithConfig static trio.
//
//   FilterBuilder builder(sorted_keys);
//   builder.Sample(query_log);               // observe the workload
//   auto proteus = builder.Build("proteus:bpk=12");
//   auto two_pbf = builder.Build("twopbf:bpk=12");   // model reused
//   for (double bpk : {8.0, 12.0, 16.0})             // budget sweep,
//     sweep.push_back(builder.Build("proteus:bpk=" + Fmt(bpk)));  // one model
//
// Design() runs the CPFPR model over the keys and samples exactly once and
// caches it; families that model (proteus, onepbf, twopbf) pull it through
// DesignOrNull(), families that don't (surf, bloom) ignore it. Build()
// resolves the spec against the filter catalogue (core/filter_registry.h),
// so the same call works for every integer family; StrFilterBuilder does
// the same for the string families.
//
// The builder borrows `sorted_keys`; the caller keeps the vector alive and
// unchanged until the last Build() call.

#ifndef PROTEUS_CORE_FILTER_BUILDER_H_
#define PROTEUS_CORE_FILTER_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_spec.h"
#include "core/query.h"
#include "core/range_filter.h"

namespace proteus {

class CpfprModel;

class FilterBuilder {
 public:
  explicit FilterBuilder(const std::vector<uint64_t>& sorted_keys);
  ~FilterBuilder();
  FilterBuilder(const FilterBuilder&) = delete;
  FilterBuilder& operator=(const FilterBuilder&) = delete;

  /// Appends sampled (empty) range queries; invalidates the cached model.
  FilterBuilder& Sample(const std::vector<RangeQuery>& queries);

  /// Runs the CPFPR model over keys and samples; cached across Build()
  /// calls until Sample() adds more queries.
  const CpfprModel& Design();

  /// The cached model, or null when no queries were sampled (families then
  /// fall back to their no-workload default design).
  const CpfprModel* DesignOrNull();

  /// Materializes a filter for the spec via the filter catalogue. Returns
  /// null and fills `error` on an unknown family, a string family, or bad
  /// parameters.
  std::unique_ptr<RangeFilter> Build(std::string_view spec,
                                     std::string* error = nullptr);
  std::unique_ptr<RangeFilter> Build(const FilterSpec& spec,
                                     std::string* error = nullptr);

  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<RangeQuery>& samples() const { return samples_; }

 private:
  const std::vector<uint64_t>& keys_;
  std::vector<RangeQuery> samples_;
  std::unique_ptr<CpfprModel> model_;
};

class StrCpfprModel;
struct StrCpfprOptions;

/// String-key counterpart. Unlike the int model, the string CPFPR model
/// is parameterized (max key bits, search grid), so the cache is keyed
/// on those parameters: repeated Build() calls with the same geometry —
/// a bpk sweep, or per-SST rebuilds over a stable key shape — reuse one
/// model instead of re-deriving it per build.
class StrFilterBuilder {
 public:
  explicit StrFilterBuilder(const std::vector<std::string>& sorted_keys);
  ~StrFilterBuilder();
  StrFilterBuilder(const StrFilterBuilder&) = delete;
  StrFilterBuilder& operator=(const StrFilterBuilder&) = delete;

  /// Appends sampled (empty) range queries; invalidates the cached model.
  StrFilterBuilder& Sample(const std::vector<StrRangeQuery>& queries);

  /// Runs the string CPFPR model over keys and samples for this
  /// geometry; cached across Build() calls until Sample() adds more
  /// queries or the parameters change.
  const StrCpfprModel& Design(uint32_t max_bits,
                              const StrCpfprOptions& options);

  std::unique_ptr<StrRangeFilter> Build(std::string_view spec,
                                        std::string* error = nullptr);
  std::unique_ptr<StrRangeFilter> Build(const FilterSpec& spec,
                                        std::string* error = nullptr);

  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<StrRangeQuery>& samples() const { return samples_; }

 private:
  const std::vector<std::string>& keys_;
  std::vector<StrRangeQuery> samples_;
  std::unique_ptr<StrCpfprModel> model_;
  uint32_t model_max_bits_ = 0;
  uint32_t model_bloom_grid_ = 0;
  uint32_t model_trie_grid_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_FILTER_BUILDER_H_
