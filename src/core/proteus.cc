#include "core/proteus.h"

#include <algorithm>

#include "core/filter_builder.h"
#include "model/cpfpr.h"
#include "util/bits.h"
#include "util/serial.h"

namespace proteus {
namespace {

bool ParseBudget(const FilterSpec& spec, const FilterBuilder& builder,
                 double* bpk, uint64_t* budget, std::string* error) {
  if (!spec.GetDouble("bpk", 12.0, bpk, error)) return false;
  if (*bpk <= 0.0) {
    if (error != nullptr) *error = "proteus bpk must be positive";
    return false;
  }
  *budget = static_cast<uint64_t>(
      *bpk * static_cast<double>(builder.keys().size()));
  return true;
}

}  // namespace

std::unique_ptr<ProteusFilter> ProteusFilter::BuildFromSpec(
    const FilterSpec& spec, FilterBuilder& builder, std::string* error) {
  if (!spec.ExpectKeys({"bpk", "trie", "bloom"}, error)) return nullptr;
  double bpk;
  uint64_t budget;
  if (!ParseBudget(spec, builder, &bpk, &budget, error)) return nullptr;
  if (spec.Has("trie") || spec.Has("bloom")) {
    Config config;
    if (!spec.GetUint32("trie", 0, &config.trie_depth, error) ||
        !spec.GetUint32("bloom", 0, &config.bf_prefix_len, error)) {
      return nullptr;
    }
    if (config.trie_depth > 64 || config.bf_prefix_len > 64) {
      if (error != nullptr) *error = "proteus trie/bloom lengths must be <= 64";
      return nullptr;
    }
    return BuildWithConfig(builder.keys(), config, bpk);
  }

  const CpfprModel* model = builder.DesignOrNull();
  if (model == nullptr) {
    // No workload signal: default to a full-key prefix Bloom filter.
    return BuildWithConfig(builder.keys(), Config{0, 64}, bpk);
  }
  ProteusDesign design = model->SelectProteus(budget);
  auto filter = BuildWithConfig(
      builder.keys(), Config{design.trie_depth, design.bf_prefix_len}, bpk);
  filter->modeled_fpr_ = design.expected_fpr;
  return filter;
}

std::unique_ptr<ProteusFilter> ProteusFilter::BuildWithConfig(
    const std::vector<uint64_t>& sorted_keys, Config config,
    double bits_per_key) {
  auto filter = std::unique_ptr<ProteusFilter>(new ProteusFilter());
  filter->config_ = config;
  uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));
  if (config.trie_depth > 0) {
    filter->trie_.Build(UniquePrefixes(sorted_keys, config.trie_depth),
                        config.trie_depth);
  }
  if (config.bf_prefix_len > 0) {
    uint64_t trie_bits = filter->trie_.SizeBits();
    uint64_t bf_bits = budget > trie_bits ? budget - trie_bits : 64;
    filter->bf_ = PrefixBloom(sorted_keys, bf_bits, config.bf_prefix_len);
  }
  return filter;
}

bool ProteusFilter::MayContain(uint64_t lo, uint64_t hi) const {
  const uint32_t l1 = config_.trie_depth;
  const uint32_t l2 = config_.bf_prefix_len;
  if (l1 == 0) {
    if (l2 == 0) return true;  // no structure: always positive
    return bf_.MayContain(lo, hi);
  }
  // One cursor serves the whole leaf walk: Next() resumes from the current
  // leaf instead of re-descending from the root per visited leaf. Stack-
  // allocated and allocation-free for integer tries.
  BitTrie::Cursor cur(&trie_);
  if (!cur.SeekGeq(PrefixBits64(lo, l1))) return false;
  return WalkFrom(&cur, lo, hi);
}

bool ProteusFilter::WalkFrom(BitTrie::Cursor* cur, uint64_t lo,
                             uint64_t hi) const {
  const uint32_t l1 = config_.trie_depth;
  const uint32_t l2 = config_.bf_prefix_len;
  const uint64_t to = PrefixBits64(hi, l1);
  while (cur->value() <= to) {
    if (l2 == 0) return true;  // trie hit and nothing to refine with
    // Probe the l2-prefixes of Q that fall under the matched l1-prefix.
    const uint64_t v = cur->value();
    uint64_t region_lo = PrefixRangeLo64(v, l1);
    uint64_t region_hi = PrefixRangeHi64(v, l1);
    uint64_t probe_lo = std::max(lo, region_lo);
    uint64_t probe_hi = std::min(hi, region_hi);
    uint64_t first = PrefixBits64(probe_lo, l2);
    uint64_t last = PrefixBits64(probe_hi, l2);
    // No +1: a full-domain count wraps to 0 and must still trip the limit.
    if (last - first >= PrefixBloom::kDefaultProbeLimit) return true;
    if (bf_.ProbeRange(first, last)) return true;
    // Advance to the next trie leaf.
    if (v == to || !cur->Next()) break;
  }
  return false;
}

void ProteusFilter::MultiMayContain(const uint64_t* lo, const uint64_t* hi,
                                    size_t n, uint8_t* out) const {
  const uint32_t l1 = config_.trie_depth;
  if (l1 == 0) {
    if (config_.bf_prefix_len == 0) {
      for (size_t i = 0; i < n; ++i) out[i] = 1;
      return;
    }
    bf_.MultiMayContain(lo, hi, n, out);
    return;
  }
  // Batch the trie descents kChunk queries at a time; each positioned
  // cursor then finishes its (usually single-leaf) walk independently.
  constexpr size_t kChunk = 64;
  uint64_t targets[kChunk];
  std::vector<BitTrie::Cursor> cursors;
  cursors.reserve(std::min(n, kChunk));
  for (size_t q = 0; q < std::min(n, kChunk); ++q) {
    cursors.emplace_back(&trie_);
  }
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    for (size_t q = 0; q < m; ++q) {
      targets[q] = PrefixBits64(lo[base + q], l1);
    }
    trie_.MultiSeekGeq(targets, m, cursors.data());
    for (size_t q = 0; q < m; ++q) {
      out[base + q] =
          cursors[q].valid() &&
                  WalkFrom(&cursors[q], lo[base + q], hi[base + q])
              ? 1
              : 0;
    }
  }
}

uint64_t ProteusFilter::SizeBits() const {
  return trie_.SizeBits() + bf_.SizeBits();
}

std::string ProteusFilter::Name() const {
  return "Proteus(t" + std::to_string(config_.trie_depth) + ",b" +
         std::to_string(config_.bf_prefix_len) + ")";
}

void ProteusFilter::SerializePayload(std::string* out) const {
  PutFixed32(out, config_.trie_depth);
  PutFixed32(out, config_.bf_prefix_len);
  PutFixed32(out, modeled_fpr_.has_value() ? 1 : 0);
  PutDouble(out, modeled_fpr_.value_or(0.0));
  trie_.AppendTo(out);
  bf_.AppendTo(out);
}

std::unique_ptr<ProteusFilter> ProteusFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::unique_ptr<ProteusFilter>(new ProteusFilter());
  uint32_t has_fpr;
  double fpr;
  if (!GetFixed32(in, &filter->config_.trie_depth) ||
      !GetFixed32(in, &filter->config_.bf_prefix_len) ||
      !GetFixed32(in, &has_fpr) || !GetDouble(in, &fpr) ||
      !BitTrie::ParseFrom(in, &filter->trie_) ||
      !PrefixBloom::ParseFrom(in, &filter->bf_)) {
    return nullptr;
  }
  if (has_fpr != 0) filter->modeled_fpr_ = fpr;
  return filter;
}

}  // namespace proteus
