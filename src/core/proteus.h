// The Proteus self-designing range filter (Section 4): a uniform-depth
// bit trie over l1-bit prefixes combined with a prefix Bloom filter over
// l2-bit prefixes, l1 < l2. Either component may be absent; the CPFPR
// model picks (l1, l2) from sampled queries to minimize expected FPR
// within a memory budget.
//
// Query algorithm (Section 4.2): walk the trie for members of Q_l1 in
// order; for every trie hit, probe the Bloom filter for the l2-prefixes of
// Q below that hit; positive on the first Bloom hit (or trie hit when no
// Bloom filter is configured); negative when the trie walk is exhausted.
//
// Construction goes through the shared FilterBuilder flow
// (Sample() -> Design() -> Build()); BuildWithConfig remains for forced
// configurations (Figure 4c sweeps, tests). The Bloom filter is
// cache-line blocked, and the CPFPR model prices that layout's FPR into
// its selection. Spec parameters:
//   bpk   — memory budget in bits per key (default 12)
//   trie  — forced trie depth l1 (skips the model)
//   bloom — forced Bloom prefix length l2 (skips the model)

#ifndef PROTEUS_CORE_PROTEUS_H_
#define PROTEUS_CORE_PROTEUS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bloom/prefix_bloom.h"
#include "core/filter_spec.h"
#include "core/query.h"
#include "core/range_filter.h"
#include "trie/bit_trie.h"

namespace proteus {

class CpfprModel;
class FilterBuilder;

class ProteusFilter : public RangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 1;

  struct Config {
    uint32_t trie_depth = 0;     // l1; 0 = no trie
    uint32_t bf_prefix_len = 0;  // l2; 0 = no Bloom filter
  };

  /// Registry/FilterBuilder hook: self-designs from the builder's sampled
  /// queries (the paper's headline construction path), or forces the
  /// configuration given by the spec's trie=/bloom= parameters.
  static std::unique_ptr<ProteusFilter> BuildFromSpec(const FilterSpec& spec,
                                                      FilterBuilder& builder,
                                                      std::string* error);

  /// Forced-configuration build, used for the Figure 4c design-space sweep
  /// and for tests. The Bloom filter receives whatever remains of the
  /// budget after the (measured) trie.
  static std::unique_ptr<ProteusFilter> BuildWithConfig(
      const std::vector<uint64_t>& sorted_keys, Config config,
      double bits_per_key);

  bool MayContain(uint64_t lo, uint64_t hi) const override;
  /// Batch form: the queries' trie descents run in lockstep through
  /// BitTrie::MultiSeekGeq (dense-level popcount ranks + batched rank9
  /// lookups via RankSelect::MultiRank1), then each positioned cursor
  /// finishes its leaf walk and Bloom doubting exactly as MayContain
  /// would. Trie-less configurations delegate to the prefix Bloom batch
  /// path. Same answers as per-query MayContain in every configuration.
  void MultiMayContain(const uint64_t* lo, const uint64_t* hi, size_t n,
                       uint8_t* out) const override;
  uint64_t SizeBits() const override;
  std::string Name() const override;

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override;
  static std::unique_ptr<ProteusFilter> DeserializePayload(
      std::string_view* in);

  const Config& config() const { return config_; }
  /// The model's expected FPR; empty when built with a forced config.
  std::optional<double> modeled_fpr() const { return modeled_fpr_; }
  std::optional<double> ModeledFpr() const override { return modeled_fpr_; }

 private:
  ProteusFilter() = default;

  /// The leaf walk of MayContain, starting from a cursor already
  /// positioned by SeekGeq/MultiSeekGeq on the first candidate l1-prefix.
  bool WalkFrom(BitTrie::Cursor* cur, uint64_t lo, uint64_t hi) const;

  Config config_;
  BitTrie trie_;
  PrefixBloom bf_;
  std::optional<double> modeled_fpr_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_PROTEUS_H_
