#include "surf/surf.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/filter_builder.h"
#include "hash/clhash.h"
#include "util/bitstring.h"
#include "util/serial.h"

namespace proteus {
namespace {

constexpr uint64_t kSurfHashSeed = 0x5F3A0C9B1D2E4A77ull;

size_t ByteLcp(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

class SurfBuilder {
 public:
  SurfBuilder(const std::vector<std::string>& keys, Surf* out)
      : keys_(keys), surf_(out) {}

  void Build() {
    const size_t n = keys_.size();
    prune_len_.resize(n);
    is_prefix_.resize(n);
    std::vector<size_t> lcp(n + 1, 0);  // lcp[i] = byte LCP of keys i-1, i
    for (size_t i = 1; i < n; ++i) lcp[i] = ByteLcp(keys_[i - 1], keys_[i]);
    for (size_t i = 0; i < n; ++i) {
      size_t maxlcp = std::max(lcp[i], i + 1 < n ? lcp[i + 1] : 0);
      is_prefix_[i] = i + 1 < n && lcp[i + 1] == keys_[i].size();
      prune_len_[i] = is_prefix_[i]
                          ? static_cast<uint32_t>(keys_[i].size())
                          : static_cast<uint32_t>(std::min(
                                maxlcp + 1, keys_[i].size()));
    }

    // Prepass: per-level node/edge/terminator counts, for the dense/sparse
    // cutoff decision.
    std::vector<uint64_t> nodes_per_level, edges_per_level, terms_per_level;
    WalkLevels(/*emit=*/false, /*cutoff=*/0, &nodes_per_level,
               &edges_per_level, &terms_per_level);

    uint32_t cutoff = 0;
    for (size_t l = 0; l < nodes_per_level.size(); ++l) {
      double dense_cost = static_cast<double>(nodes_per_level[l]) * 513.0;
      double sparse_cost = static_cast<double>(edges_per_level[l]) * 10.0 +
                           static_cast<double>(nodes_per_level[l]);
      if (dense_cost <=
          static_cast<double>(surf_->options_.dense_ratio) * sparse_cost) {
        cutoff = static_cast<uint32_t>(l + 1);
      } else {
        break;
      }
    }

    WalkLevels(/*emit=*/true, cutoff, nullptr, nullptr, nullptr);

    surf_->n_keys_ = n;
    surf_->n_sparse_edges_ = surf_->s_labels_.size();
    surf_->d_labels_rank_.Build(&surf_->d_labels_);
    surf_->d_has_child_rank_.Build(&surf_->d_has_child_);
    surf_->d_prefix_key_rank_.Build(&surf_->d_prefix_key_);
    surf_->s_has_child_rank_.Build(&surf_->s_has_child_);
    surf_->s_louds_rank_.Build(&surf_->s_louds_);
    surf_->s_prefix_key_rank_.Build(&surf_->s_prefix_key_);
    surf_->n_dense_children_ = surf_->d_has_child_rank_.ones();
    surf_->n_dense_terms_ = surf_->d_prefix_key_rank_.ones();
  }

 private:
  struct Range {
    uint32_t begin, end;
  };

  uint32_t SuffixBits() const {
    return surf_->options_.suffix_mode == SurfSuffixMode::kNone
               ? 0
               : surf_->options_.suffix_bits;
  }

  void AppendSuffix(BitVector* store, size_t key_index, uint64_t from_bit) {
    const uint32_t sb = SuffixBits();
    if (sb == 0) return;
    uint64_t v = 0;
    if (surf_->options_.suffix_mode == SurfSuffixMode::kReal) {
      for (uint32_t j = 0; j < sb; ++j) {
        v = (v << 1) | (StrGetBit(keys_[key_index], from_bit + j) ? 1 : 0);
      }
    } else {  // kHash
      v = ClHash64(keys_[key_index], kSurfHashSeed) &
          ((sb == 64) ? ~uint64_t{0} : ((uint64_t{1} << sb) - 1));
    }
    for (uint32_t j = 0; j < sb; ++j) {
      store->PushBack((v >> (sb - 1 - j)) & 1);
    }
  }

  void WalkLevels(bool emit, uint32_t cutoff,
                  std::vector<uint64_t>* nodes_per_level,
                  std::vector<uint64_t>* edges_per_level,
                  std::vector<uint64_t>* terms_per_level) {
    if (keys_.empty()) return;
    std::vector<Range> current = {{0, static_cast<uint32_t>(keys_.size())}};
    uint64_t dense_nodes = 0;
    for (uint32_t level = 0; !current.empty(); ++level) {
      const bool dense = level < cutoff;
      if (!emit) {
        nodes_per_level->push_back(current.size());
        edges_per_level->push_back(0);
        terms_per_level->push_back(0);
      }
      std::vector<Range> next;
      next.reserve(current.size());
      for (Range r : current) {
        bool term = keys_[r.begin].size() == level;
        if (term) r.begin += 1;  // the exhausted key terminates at this node
        if (!emit) {
          if (term) (*terms_per_level)[level]++;
        }
        std::array<uint64_t, 4> labels{};
        std::array<uint64_t, 4> children{};
        bool first_edge = true;
        uint32_t g = r.begin;
        while (g < r.end) {
          uint8_t c = static_cast<uint8_t>(keys_[g][level]);
          uint32_t h = g;
          while (h < r.end &&
                 static_cast<uint8_t>(keys_[h][level]) == c) {
            ++h;
          }
          const bool leaf = (h - g == 1) && !is_prefix_[g] &&
                            prune_len_[g] == level + 1;
          if (!emit) {
            (*edges_per_level)[level]++;
          } else if (dense) {
            labels[c >> 6] |= uint64_t{1} << (c & 63);
            if (!leaf) children[c >> 6] |= uint64_t{1} << (c & 63);
            if (leaf) {
              AppendSuffix(&surf_->d_suffixes_, g,
                           static_cast<uint64_t>(level + 1) * 8);
            }
          } else {
            surf_->s_labels_.push_back(c);
            surf_->s_has_child_.PushBack(!leaf);
            surf_->s_louds_.PushBack(first_edge);
            first_edge = false;
            if (leaf) {
              AppendSuffix(&surf_->s_suffixes_, g,
                           static_cast<uint64_t>(level + 1) * 8);
            }
          }
          if (!leaf) next.push_back({g, h});
          g = h;
        }
        if (emit) {
          if (dense) {
            for (uint64_t w : labels) surf_->d_labels_.PushBits(w, 64);
            for (uint64_t w : children) surf_->d_has_child_.PushBits(w, 64);
            surf_->d_prefix_key_.PushBack(term);
            ++dense_nodes;
          } else {
            surf_->s_prefix_key_.PushBack(term);
          }
          if (term) {
            AppendSuffix(&surf_->t_suffixes_, r.begin - 1,
                         static_cast<uint64_t>(level) * 8);
          }
        }
      }
      current = std::move(next);
    }
    if (emit) surf_->n_dense_nodes_ = dense_nodes;
  }

  const std::vector<std::string>& keys_;
  std::vector<uint32_t> prune_len_;
  std::vector<bool> is_prefix_;
  Surf* surf_;
};

void Surf::Build(const std::vector<std::string>& sorted_keys,
                 Options options) {
  *this = Surf();
  options_ = options;
  SurfBuilder builder(sorted_keys, this);
  builder.Build();
}

// ---------------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------------

void Surf::SparseEdgeRange(uint64_t node, uint64_t* begin,
                           uint64_t* end) const {
  uint64_t snode = node - n_dense_nodes_;
  *begin = s_louds_rank_.Select1(snode + 1);
  *end = snode + 2 <= s_louds_rank_.ones() ? s_louds_rank_.Select1(snode + 2)
                                           : n_sparse_edges_;
}

bool Surf::HasTerminator(uint64_t node) const {
  if (IsDenseNode(node)) return d_prefix_key_.Get(node);
  return s_prefix_key_.Get(node - n_dense_nodes_);
}

uint64_t Surf::ReadSuffixStore(const BitVector& store, uint64_t index) const {
  const uint32_t sb = options_.suffix_bits;
  if (sb == 0 || options_.suffix_mode == SurfSuffixMode::kNone) return 0;
  uint64_t v = 0;
  uint64_t base = index * sb;
  for (uint32_t j = 0; j < sb; ++j) {
    v = (v << 1) | (store.Get(base + j) ? 1 : 0);
  }
  return v;
}

uint64_t Surf::QueryRealSuffix(std::string_view key, uint64_t bit_from) const {
  const uint32_t sb = options_.suffix_bits;
  uint64_t v = 0;
  for (uint32_t j = 0; j < sb; ++j) {
    v = (v << 1) | (StrGetBit(key, bit_from + j) ? 1 : 0);
  }
  return v;
}

uint64_t Surf::QueryHashSuffix(std::string_view key) const {
  const uint32_t sb = options_.suffix_bits;
  return ClHash64(key, kSurfHashSeed) &
         ((sb >= 64) ? ~uint64_t{0} : ((uint64_t{1} << sb) - 1));
}

bool Surf::Lookup(std::string_view key) const {
  if (n_keys_ == 0) return false;
  uint64_t node = 0;
  size_t level = 0;
  for (;;) {
    if (level == key.size()) {
      if (!HasTerminator(node)) return false;
      if (options_.suffix_mode == SurfSuffixMode::kHash) {
        uint64_t idx = IsDenseNode(node)
                           ? d_prefix_key_rank_.Rank1(node)
                           : n_dense_terms_ +
                                 s_prefix_key_rank_.Rank1(node -
                                                          n_dense_nodes_);
        return ReadSuffixStore(t_suffixes_, idx) == QueryHashSuffix(key);
      }
      return true;  // kReal suffixes of terminators are all padding zeros
    }
    uint8_t c = static_cast<uint8_t>(key[level]);
    if (IsDenseNode(node)) {
      uint64_t pos = node * 256 + c;
      if (!d_labels_.Get(pos)) return false;
      if (!d_has_child_.Get(pos)) {
        uint64_t idx = DenseLeafValueIndex(pos);
        switch (options_.suffix_mode) {
          case SurfSuffixMode::kNone:
            return true;
          case SurfSuffixMode::kReal:
            return ReadSuffixStore(d_suffixes_, idx) ==
                   QueryRealSuffix(key, (level + 1) * 8);
          case SurfSuffixMode::kHash:
            return ReadSuffixStore(d_suffixes_, idx) == QueryHashSuffix(key);
        }
      }
      node = DenseChild(node, c);
      ++level;
      continue;
    }
    uint64_t begin, end;
    SparseEdgeRange(node, &begin, &end);
    uint64_t edge = end;
    for (uint64_t e = begin; e < end; ++e) {
      if (s_labels_[e] == c) {
        edge = e;
        break;
      }
      if (s_labels_[e] > c) break;
    }
    if (edge == end) return false;
    if (!s_has_child_.Get(edge)) {
      uint64_t idx = SparseLeafValueIndex(edge);
      switch (options_.suffix_mode) {
        case SurfSuffixMode::kNone:
          return true;
        case SurfSuffixMode::kReal:
          return ReadSuffixStore(s_suffixes_, idx) ==
                 QueryRealSuffix(key, (level + 1) * 8);
        case SurfSuffixMode::kHash:
          return ReadSuffixStore(s_suffixes_, idx) == QueryHashSuffix(key);
      }
    }
    node = SparseChild(edge);
    ++level;
  }
}

int Surf::CompareConservative(const Leaf& leaf, std::string_view query) {
  const std::string& path = leaf.path;
  size_t nb = std::min(path.size(), query.size());
  int c = std::memcmp(path.data(), query.data(), nb);
  if (c != 0) return c < 0 ? -1 : 1;
  if (path.size() > query.size()) return 1;  // stored extends the query
  // Path consumed; compare real-suffix bits against the query's bits.
  for (uint32_t j = 0; j < leaf.n_suffix; ++j) {
    uint64_t qbit_index = path.size() * 8 + j;
    bool sbit = (leaf.suffix >> (leaf.n_suffix - 1 - j)) & 1;
    if (qbit_index >= query.size() * 8) {
      // Query exhausted. A known 1-bit proves the stored key extends past
      // the query; a 0-bit may be suffix padding.
      if (sbit) return 1;
      continue;
    }
    bool qbit = StrGetBit(query, qbit_index);
    if (sbit != qbit) return sbit ? 1 : -1;
  }
  if (leaf.exact) {
    return path.size() == query.size() ? 0 : -1;  // exact prefix is smaller
  }
  return 0;  // truncated: ambiguous
}

void Surf::FillLeafEdge(bool dense, uint64_t /*node*/, uint32_t label,
                        uint64_t pos, std::string path, Leaf* out) const {
  path.push_back(static_cast<char>(label));
  out->path = std::move(path);
  out->exact = false;
  if (options_.suffix_mode == SurfSuffixMode::kReal &&
      options_.suffix_bits > 0) {
    uint64_t idx = dense ? DenseLeafValueIndex(pos) : SparseLeafValueIndex(pos);
    out->suffix = ReadSuffixStore(dense ? d_suffixes_ : s_suffixes_, idx);
    out->n_suffix = options_.suffix_bits;
  } else {
    out->suffix = 0;
    out->n_suffix = 0;
  }
}

void Surf::LeftmostLeaf(uint64_t node, std::string path, Leaf* out) const {
  for (;;) {
    if (HasTerminator(node)) {
      out->path = std::move(path);
      out->suffix = 0;
      out->n_suffix = 0;
      out->exact = true;
      return;
    }
    if (IsDenseNode(node)) {
      uint64_t pos = d_labels_.NextSetBit(node * 256, (node + 1) * 256);
      uint32_t label = static_cast<uint32_t>(pos - node * 256);
      if (!d_has_child_.Get(pos)) {
        FillLeafEdge(true, node, label, pos, std::move(path), out);
        return;
      }
      path.push_back(static_cast<char>(label));
      node = DenseChild(node, label);
    } else {
      uint64_t begin, end;
      SparseEdgeRange(node, &begin, &end);
      uint32_t label = s_labels_[begin];
      if (!s_has_child_.Get(begin)) {
        FillLeafEdge(false, node, label, begin, std::move(path), out);
        return;
      }
      path.push_back(static_cast<char>(label));
      node = SparseChild(begin);
    }
  }
}

bool Surf::SeekGeq(std::string_view lo, Leaf* out) const {
  if (n_keys_ == 0) return false;
  uint64_t node = 0;
  size_t level = 0;
  std::string path;
  std::vector<uint64_t> stack;  // node at each level of the exact descent

  // Finds the first edge with label >= c; returns true and fills
  // (label, pos). pos is a dense bitmap position or a sparse edge index.
  auto find_geq = [&](uint64_t nd, uint32_t c, uint32_t* label,
                      uint64_t* pos) {
    if (IsDenseNode(nd)) {
      uint64_t p = d_labels_.NextSetBit(nd * 256 + c, (nd + 1) * 256);
      if (p == (nd + 1) * 256) return false;
      *label = static_cast<uint32_t>(p - nd * 256);
      *pos = p;
      return true;
    }
    uint64_t begin, end;
    SparseEdgeRange(nd, &begin, &end);
    for (uint64_t e = begin; e < end; ++e) {
      if (s_labels_[e] >= c) {
        *label = s_labels_[e];
        *pos = e;
        return true;
      }
    }
    return false;
  };

  auto is_leaf_edge = [&](uint64_t nd, uint64_t pos) {
    return IsDenseNode(nd) ? !d_has_child_.Get(pos) : !s_has_child_.Get(pos);
  };
  auto child_of = [&](uint64_t nd, uint32_t label, uint64_t pos) {
    return IsDenseNode(nd) ? DenseChild(nd, label) : SparseChild(pos);
  };

  for (;;) {
    if (level == lo.size()) {
      // Every descendant extends path == lo: the leftmost is the bound.
      LeftmostLeaf(node, std::move(path), out);
      return true;
    }
    // A terminator here spells a key that is a strict prefix of lo: skip.
    uint32_t c = static_cast<uint8_t>(lo[level]);
    uint32_t label;
    uint64_t pos;
    if (find_geq(node, c, &label, &pos)) {
      if (label > c) {
        if (is_leaf_edge(node, pos)) {
          FillLeafEdge(IsDenseNode(node), node, label, pos, std::move(path),
                       out);
        } else {
          std::string child_path = std::move(path);
          child_path.push_back(static_cast<char>(label));
          LeftmostLeaf(child_of(node, label, pos), std::move(child_path), out);
        }
        return true;
      }
      // label == c: exact descent.
      if (is_leaf_edge(node, pos)) {
        Leaf candidate;
        FillLeafEdge(IsDenseNode(node), node, label, pos, path, &candidate);
        if (CompareConservative(candidate, lo) >= 0) {
          *out = std::move(candidate);
          return true;
        }
        // Certainly smaller than lo: try the next edge in this node.
        if (c < 255 && find_geq(node, c + 1, &label, &pos)) {
          if (is_leaf_edge(node, pos)) {
            FillLeafEdge(IsDenseNode(node), node, label, pos, std::move(path),
                         out);
          } else {
            std::string child_path = std::move(path);
            child_path.push_back(static_cast<char>(label));
            LeftmostLeaf(child_of(node, label, pos), std::move(child_path),
                         out);
          }
          return true;
        }
        // Fall through to backtracking.
      } else {
        stack.push_back(node);
        path.push_back(static_cast<char>(label));
        node = child_of(node, label, pos);
        ++level;
        continue;
      }
    }
    // Backtrack: find an elder sibling branch greater than lo's byte.
    for (;;) {
      if (stack.empty()) return false;
      node = stack.back();
      stack.pop_back();
      --level;
      path.resize(level);
      uint32_t bc = static_cast<uint8_t>(lo[level]);
      if (bc < 255 && find_geq(node, bc + 1, &label, &pos)) {
        if (is_leaf_edge(node, pos)) {
          FillLeafEdge(IsDenseNode(node), node, label, pos, std::move(path),
                       out);
        } else {
          std::string child_path = std::move(path);
          child_path.push_back(static_cast<char>(label));
          LeftmostLeaf(child_of(node, label, pos), std::move(child_path), out);
        }
        return true;
      }
    }
  }
}

bool Surf::MayContain(std::string_view lo, std::string_view hi) const {
  if (n_keys_ == 0) return false;
  if (lo == hi && options_.suffix_mode == SurfSuffixMode::kHash) {
    return Lookup(lo);
  }
  Leaf leaf;
  if (!SeekGeq(lo, &leaf)) return false;
  return CompareConservative(leaf, hi) <= 0;
}

uint64_t Surf::SizeBits() const {
  return d_labels_.SizeBits() + d_labels_rank_.SizeBits() +
         d_has_child_.SizeBits() + d_has_child_rank_.SizeBits() +
         d_prefix_key_.SizeBits() + d_prefix_key_rank_.SizeBits() +
         d_suffixes_.SizeBits() + s_labels_.size() * 8 +
         s_has_child_.SizeBits() + s_has_child_rank_.SizeBits() +
         s_louds_.SizeBits() + s_louds_rank_.SizeBits() +
         s_prefix_key_.SizeBits() + s_prefix_key_rank_.SizeBits() +
         s_suffixes_.SizeBits() + t_suffixes_.SizeBits();
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

std::string EncodeKeyBE(uint64_t key) {
  std::string s(8, '\0');
  for (int i = 0; i < 8; ++i) {
    s[i] = static_cast<char>((key >> (56 - 8 * i)) & 0xFF);
  }
  return s;
}

std::unique_ptr<SurfIntFilter> SurfIntFilter::Build(
    const std::vector<uint64_t>& sorted_keys, Surf::Options options) {
  auto filter = std::make_unique<SurfIntFilter>();
  std::vector<std::string> encoded;
  encoded.reserve(sorted_keys.size());
  for (uint64_t k : sorted_keys) encoded.push_back(EncodeKeyBE(k));
  filter->surf_.Build(encoded, options);
  return filter;
}

bool SurfIntFilter::MayContain(uint64_t lo, uint64_t hi) const {
  return surf_.MayContain(EncodeKeyBE(lo), EncodeKeyBE(hi));
}

namespace {
std::string SurfName(const Surf::Options& options) {
  switch (options.suffix_mode) {
    case SurfSuffixMode::kNone:
      return "SuRF";
    case SurfSuffixMode::kReal:
      return "SuRF-Real" + std::to_string(options.suffix_bits);
    case SurfSuffixMode::kHash:
      return "SuRF-Hash" + std::to_string(options.suffix_bits);
  }
  return "SuRF";
}
}  // namespace

std::string SurfIntFilter::Name() const { return SurfName(surf_.options()); }

std::unique_ptr<SurfStrFilter> SurfStrFilter::Build(
    const std::vector<std::string>& sorted_keys, Surf::Options options) {
  auto filter = std::make_unique<SurfStrFilter>();
  filter->surf_.Build(sorted_keys, options);
  return filter;
}

bool SurfStrFilter::MayContain(std::string_view lo,
                               std::string_view hi) const {
  return surf_.MayContain(lo, hi);
}

std::string SurfStrFilter::Name() const {
  return SurfName(surf_.options()) + "-str";
}

// ---------------------------------------------------------------------------
// Spec parsing and serialization
// ---------------------------------------------------------------------------

bool ParseSurfSpec(const FilterSpec& spec, Surf::Options* out,
                   std::string* error) {
  if (!spec.ExpectKeys({"mode", "suffix", "dense"}, error)) return false;
  std::string mode = spec.GetString("mode", "base");
  if (mode == "base" || mode == "none" || mode == "0") {
    out->suffix_mode = SurfSuffixMode::kNone;
  } else if (mode == "real" || mode == "1") {
    out->suffix_mode = SurfSuffixMode::kReal;
  } else if (mode == "hash" || mode == "2") {
    out->suffix_mode = SurfSuffixMode::kHash;
  } else {
    if (error != nullptr) {
      *error = "surf mode must be base|real|hash, got \"" + mode + "\"";
    }
    return false;
  }
  uint32_t default_suffix =
      out->suffix_mode == SurfSuffixMode::kNone ? 0 : 8;
  if (!spec.GetUint32("suffix", default_suffix, &out->suffix_bits, error) ||
      !spec.GetUint32("dense", 16, &out->dense_ratio, error)) {
    return false;
  }
  if (out->suffix_bits > 64) {
    if (error != nullptr) *error = "surf suffix bits must be <= 64";
    return false;
  }
  return true;
}

std::unique_ptr<SurfIntFilter> SurfIntFilter::BuildFromSpec(
    const FilterSpec& spec, FilterBuilder& builder, std::string* error) {
  Surf::Options options;
  if (!ParseSurfSpec(spec, &options, error)) return nullptr;
  return Build(builder.keys(), options);
}

std::unique_ptr<SurfIntFilter> SurfIntFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::make_unique<SurfIntFilter>();
  if (!Surf::ParseFrom(in, &filter->surf_)) return nullptr;
  return filter;
}

std::unique_ptr<SurfStrFilter> SurfStrFilter::BuildFromSpec(
    const FilterSpec& spec, StrFilterBuilder& builder, std::string* error) {
  Surf::Options options;
  if (!ParseSurfSpec(spec, &options, error)) return nullptr;
  return Build(builder.keys(), options);
}

std::unique_ptr<SurfStrFilter> SurfStrFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::make_unique<SurfStrFilter>();
  if (!Surf::ParseFrom(in, &filter->surf_)) return nullptr;
  return filter;
}

void Surf::AppendTo(std::string* out) const {
  PutFixed32(out, static_cast<uint32_t>(options_.suffix_mode));
  PutFixed32(out, options_.suffix_bits);
  PutFixed32(out, options_.dense_ratio);
  PutFixed64(out, n_keys_);
  PutFixed64(out, n_dense_nodes_);
  PutFixed64(out, n_dense_children_);
  PutFixed64(out, n_sparse_edges_);
  PutFixed64(out, n_dense_terms_);
  d_labels_.AppendTo(out);
  d_has_child_.AppendTo(out);
  d_prefix_key_.AppendTo(out);
  d_suffixes_.AppendTo(out);
  PutLengthPrefixed(out, std::string_view(
                             reinterpret_cast<const char*>(s_labels_.data()),
                             s_labels_.size()));
  s_has_child_.AppendTo(out);
  s_louds_.AppendTo(out);
  s_prefix_key_.AppendTo(out);
  s_suffixes_.AppendTo(out);
  t_suffixes_.AppendTo(out);
}

bool Surf::ParseFrom(std::string_view* in, Surf* out) {
  *out = Surf();
  uint32_t suffix_mode;
  if (!GetFixed32(in, &suffix_mode) ||
      !GetFixed32(in, &out->options_.suffix_bits) ||
      !GetFixed32(in, &out->options_.dense_ratio)) {
    return false;
  }
  if (suffix_mode > static_cast<uint32_t>(SurfSuffixMode::kHash)) return false;
  out->options_.suffix_mode = static_cast<SurfSuffixMode>(suffix_mode);
  if (!GetFixed64(in, &out->n_keys_) || !GetFixed64(in, &out->n_dense_nodes_) ||
      !GetFixed64(in, &out->n_dense_children_) ||
      !GetFixed64(in, &out->n_sparse_edges_) ||
      !GetFixed64(in, &out->n_dense_terms_)) {
    return false;
  }
  std::string labels;
  if (!BitVector::ParseFrom(in, &out->d_labels_) ||
      !BitVector::ParseFrom(in, &out->d_has_child_) ||
      !BitVector::ParseFrom(in, &out->d_prefix_key_) ||
      !BitVector::ParseFrom(in, &out->d_suffixes_) ||
      !GetLengthPrefixed(in, &labels) ||
      !BitVector::ParseFrom(in, &out->s_has_child_) ||
      !BitVector::ParseFrom(in, &out->s_louds_) ||
      !BitVector::ParseFrom(in, &out->s_prefix_key_) ||
      !BitVector::ParseFrom(in, &out->s_suffixes_) ||
      !BitVector::ParseFrom(in, &out->t_suffixes_)) {
    return false;
  }
  // Cross-validate the counts against the parsed structures so a blob
  // whose individually well-formed pieces disagree is rejected instead of
  // reading out of bounds at query time.
  if (out->n_sparse_edges_ != labels.size() ||
      out->s_has_child_.size() != out->n_sparse_edges_ ||
      out->s_louds_.size() != out->n_sparse_edges_ ||
      out->n_dense_nodes_ != out->d_prefix_key_.size() ||
      out->d_labels_.size() != out->d_prefix_key_.size() * 256 ||
      out->d_has_child_.size() != out->d_prefix_key_.size() * 256) {
    return false;
  }
  out->s_labels_.assign(labels.begin(), labels.end());
  out->d_labels_rank_.Build(&out->d_labels_);
  out->d_has_child_rank_.Build(&out->d_has_child_);
  out->d_prefix_key_rank_.Build(&out->d_prefix_key_);
  out->s_has_child_rank_.Build(&out->s_has_child_);
  out->s_louds_rank_.Build(&out->s_louds_);
  out->s_prefix_key_rank_.Build(&out->s_prefix_key_);
  if (out->n_dense_children_ != out->d_has_child_rank_.ones() ||
      out->n_dense_terms_ != out->d_prefix_key_rank_.ones()) {
    return false;
  }
  return true;
}

}  // namespace proteus
