// Proteus over variable-length string keys (Section 7): the same hybrid
// trie + prefix Bloom filter, with bit-level prefixes of the padded key
// space and lexicographic order. The Bloom filter is cache-line blocked.
//
// Spec parameters: bpk (default 12); max_key_bits (default: longest key,
// rounded up to whole bytes); stride (coarsens the Bloom-prefix search
// grid: grid = 128 / stride); trie/bloom force the configuration.

#ifndef PROTEUS_CORE_PROTEUS_STR_H_
#define PROTEUS_CORE_PROTEUS_STR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bloom/prefix_bloom.h"
#include "core/filter_spec.h"
#include "core/query.h"
#include "core/range_filter.h"
#include "model/cpfpr_str.h"
#include "trie/bit_trie.h"

namespace proteus {

class StrFilterBuilder;

class ProteusStrFilter : public StrRangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 7;

  struct Config {
    uint32_t trie_depth = 0;     // bits; 0 = no trie
    uint32_t bf_prefix_len = 0;  // bits; 0 = no Bloom filter
    uint32_t max_key_bits = 0;
  };

  /// Registry/StrFilterBuilder hook.
  static std::unique_ptr<ProteusStrFilter> BuildFromSpec(
      const FilterSpec& spec, StrFilterBuilder& builder, std::string* error);

  /// Self-designing build over sorted string keys and empty sample
  /// queries. `max_key_bits` bounds the padded key space; `model_options`
  /// controls the coarse design grid (Section 7.2).
  static std::unique_ptr<ProteusStrFilter> BuildSelfDesigned(
      const std::vector<std::string>& sorted_keys,
      const std::vector<StrRangeQuery>& sample_queries, double bits_per_key,
      uint32_t max_key_bits,
      StrCpfprOptions model_options = StrCpfprOptions());

  /// Self-designing build over an already-derived model (the
  /// StrFilterBuilder cache hands the same model to every build with the
  /// same geometry instead of re-deriving it per build).
  static std::unique_ptr<ProteusStrFilter> BuildFromModel(
      const std::vector<std::string>& sorted_keys, const StrCpfprModel& model,
      double bits_per_key);

  static std::unique_ptr<ProteusStrFilter> BuildWithConfig(
      const std::vector<std::string>& sorted_keys, Config config,
      double bits_per_key);

  bool MayContain(std::string_view lo, std::string_view hi) const override;
  uint64_t SizeBits() const override;
  std::string Name() const override;

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<ProteusStrFilter> DeserializePayload(
      std::string_view* in);

  const Config& config() const { return config_; }
  std::optional<double> modeled_fpr() const { return modeled_fpr_; }
  std::optional<double> ModeledFpr() const override { return modeled_fpr_; }

 private:
  ProteusStrFilter() = default;

  Config config_;
  StrBitTrie trie_;
  StrPrefixBloom bf_;
  std::optional<double> modeled_fpr_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_PROTEUS_STR_H_
