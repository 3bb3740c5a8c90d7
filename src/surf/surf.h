// SuRF — the Succinct Range Filter baseline (Zhang et al., SIGMOD 2018),
// reimplemented from scratch for the paper's comparisons (Sections 2.2,
// 5.2, 6, 7).
//
// Structure. Keys are pruned to their minimum unique byte-prefix and the
// pruned set is stored as a Fast Succinct Trie: the top levels use
// LOUDS-Dense (256-bit label and has-child bitmaps per node), the rest
// LOUDS-Sparse (byte labels with has-child and louds bitvectors). A key
// that is a strict prefix of another key terminates at an interior node;
// unlike the original (which reserves the 0xFF label), we record
// terminations in a per-node prefix-key bitvector in both encodings, so
// arbitrary byte values — including 0xFF in fixed-length integer keys —
// are supported. Costs are within one bit per terminated key of the
// original layout.
//
// Suffix modes (Section 2.2): kNone (SuRF-Base), kReal (the next n key
// bits after the pruned prefix — helps point and range queries), kHash
// (n hash bits of the full key — helps point queries only).
//
// Pruned leaves denote a *range* of possible keys, so all order
// comparisons against query bounds are conservative: ambiguity resolves
// toward "may contain" (never a false negative).

#ifndef PROTEUS_SURF_SURF_H_
#define PROTEUS_SURF_SURF_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_spec.h"
#include "core/range_filter.h"
#include "util/bit_vector.h"
#include "util/bits.h"  // DecodeKeyBE
#include "util/rank_select.h"

namespace proteus {

class FilterBuilder;
class StrFilterBuilder;

enum class SurfSuffixMode {
  kNone,  // SuRF-Base
  kReal,  // SuRF-Real
  kHash,  // SuRF-Hash
};

class Surf {
 public:
  struct Options {
    SurfSuffixMode suffix_mode = SurfSuffixMode::kNone;
    uint32_t suffix_bits = 0;
    /// A level is LOUDS-Dense while its dense encoding costs at most
    /// `dense_ratio` times its sparse encoding (the FST space-efficiency
    /// knob; SuRF fixes the ratio, Proteus tunes its trie's split —
    /// Section 4.3).
    uint32_t dense_ratio = 16;
  };

  Surf() = default;

  /// Builds over sorted, distinct, non-empty byte-string keys.
  void Build(const std::vector<std::string>& sorted_keys, Options options);

  /// Exact-key membership (approximate: may false-positive).
  bool Lookup(std::string_view key) const;

  /// True if a stored key may lie in [lo, hi] (inclusive, byte order).
  bool MayContain(std::string_view lo, std::string_view hi) const;

  uint64_t SizeBits() const;
  const Options& options() const { return options_; }
  uint64_t n_keys() const { return n_keys_; }
  uint64_t n_dense_nodes() const { return n_dense_nodes_; }

  /// Serialization of the whole FST; rank indexes are rebuilt on parse.
  void AppendTo(std::string* out) const;
  static bool ParseFrom(std::string_view* in, Surf* out);

 private:
  struct Leaf {
    std::string path;     // pruned key bytes
    uint64_t suffix = 0;  // real-suffix bits (numeric, MSB-aligned low word)
    uint32_t n_suffix = 0;
    bool exact = false;   // terminator: the stored key is exactly `path`
  };

  bool IsDenseNode(uint64_t node) const { return node < n_dense_nodes_; }
  uint64_t DenseChild(uint64_t node, uint32_t label) const {
    return d_has_child_rank_.Rank1(node * 256 + label + 1);
  }
  void SparseEdgeRange(uint64_t node, uint64_t* begin, uint64_t* end) const;
  uint64_t SparseChild(uint64_t edge) const {
    return n_dense_children_ + s_has_child_rank_.Rank1(edge + 1);
  }
  bool HasTerminator(uint64_t node) const;

  uint64_t DenseLeafValueIndex(uint64_t pos) const {
    return d_labels_rank_.Rank1(pos + 1) - d_has_child_rank_.Rank1(pos + 1) - 1;
  }
  uint64_t SparseLeafValueIndex(uint64_t edge) const {
    return edge - s_has_child_rank_.Rank1(edge);
  }

  uint64_t ReadSuffixStore(const BitVector& store, uint64_t index) const;
  uint64_t QueryRealSuffix(std::string_view key, uint64_t bit_from) const;
  uint64_t QueryHashSuffix(std::string_view key) const;

  /// Conservative three-way comparison of a stored leaf against query
  /// bytes: -1 = certainly smaller, +1 certainly greater, 0 = ambiguous
  /// (or possibly equal).
  static int CompareConservative(const Leaf& leaf, std::string_view query);

  /// Smallest stored leaf whose conservative comparison with `lo` is >= 0.
  bool SeekGeq(std::string_view lo, Leaf* out) const;

  /// Descends to the smallest leaf under `node`; `path` holds the bytes
  /// spelled so far.
  void LeftmostLeaf(uint64_t node, std::string path, Leaf* out) const;

  /// Fills a Leaf for a matched leaf edge.
  void FillLeafEdge(bool dense, uint64_t node, uint32_t label, uint64_t pos,
                    std::string path, Leaf* out) const;

  Options options_;
  uint64_t n_keys_ = 0;
  uint64_t n_dense_nodes_ = 0;
  uint64_t n_dense_children_ = 0;
  uint64_t n_sparse_edges_ = 0;
  uint64_t n_dense_terms_ = 0;

  // Dense levels.
  BitVector d_labels_;
  RankSelect d_labels_rank_;
  BitVector d_has_child_;
  RankSelect d_has_child_rank_;
  BitVector d_prefix_key_;   // 1 bit per dense node
  RankSelect d_prefix_key_rank_;
  BitVector d_suffixes_;     // dense leaf-edge suffixes

  // Sparse levels.
  std::vector<uint8_t> s_labels_;
  BitVector s_has_child_;
  RankSelect s_has_child_rank_;
  BitVector s_louds_;
  RankSelect s_louds_rank_;
  BitVector s_prefix_key_;   // 1 bit per sparse node
  RankSelect s_prefix_key_rank_;
  BitVector s_suffixes_;     // sparse leaf-edge suffixes

  // Terminator (prefix-key) suffixes: dense nodes first, then sparse.
  BitVector t_suffixes_;

  friend class SurfBuilder;
};

/// Parses spec parameters shared by both SuRF adapters:
///   mode   — base | real | hash (or 0 | 1 | 2); default base
///   suffix — suffix bits per key (default 8 when mode != base, else 0)
///   dense  — LOUDS-Dense/Sparse cost ratio (default 16)
bool ParseSurfSpec(const FilterSpec& spec, Surf::Options* out,
                   std::string* error);

/// RangeFilter adapter over 64-bit integer keys (8-byte big-endian).
class SurfIntFilter : public RangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 5;

  static std::unique_ptr<SurfIntFilter> Build(
      const std::vector<uint64_t>& sorted_keys, Surf::Options options);
  static std::unique_ptr<SurfIntFilter> BuildFromSpec(const FilterSpec& spec,
                                                      FilterBuilder& builder,
                                                      std::string* error);

  bool MayContain(uint64_t lo, uint64_t hi) const override;
  uint64_t SizeBits() const override { return surf_.SizeBits(); }
  std::string Name() const override;

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override {
    surf_.AppendTo(out);
  }
  static std::unique_ptr<SurfIntFilter> DeserializePayload(
      std::string_view* in);

  const Surf& surf() const { return surf_; }

 private:
  Surf surf_;
};

/// StrRangeFilter adapter over byte-string keys.
class SurfStrFilter : public StrRangeFilter {
 public:
  static constexpr uint32_t kFamilyId = 6;

  static std::unique_ptr<SurfStrFilter> Build(
      const std::vector<std::string>& sorted_keys, Surf::Options options);
  static std::unique_ptr<SurfStrFilter> BuildFromSpec(
      const FilterSpec& spec, StrFilterBuilder& builder, std::string* error);

  bool MayContain(std::string_view lo, std::string_view hi) const override;
  uint64_t SizeBits() const override { return surf_.SizeBits(); }
  std::string Name() const override;

  uint32_t FamilyId() const override { return kFamilyId; }
  void SerializePayload(std::string* out) const override {
    surf_.AppendTo(out);
  }
  static std::unique_ptr<SurfStrFilter> DeserializePayload(
      std::string_view* in);

  const Surf& surf() const { return surf_; }

 private:
  Surf surf_;
};

/// Encodes a 64-bit key as an 8-byte big-endian string (order-preserving);
/// DecodeKeyBE (util/bits.h) reads it back.
std::string EncodeKeyBE(uint64_t key);

}  // namespace proteus

#endif  // PROTEUS_SURF_SURF_H_
