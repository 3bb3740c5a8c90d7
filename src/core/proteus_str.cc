#include "core/proteus_str.h"

#include <algorithm>

#include "core/filter_builder.h"
#include "util/bitstring.h"
#include "util/serial.h"

namespace proteus {

std::unique_ptr<ProteusStrFilter> ProteusStrFilter::BuildFromSpec(
    const FilterSpec& spec, StrFilterBuilder& builder, std::string* error) {
  if (!spec.ExpectKeys({"bpk", "max_key_bits", "stride", "trie_grid", "trie",
                        "bloom"},
                       error)) {
    return nullptr;
  }
  double bpk;
  if (!spec.GetDouble("bpk", 12.0, &bpk, error)) return nullptr;
  if (bpk <= 0.0) {
    if (error != nullptr) *error = "proteus-str bpk must be positive";
    return nullptr;
  }
  uint32_t max_key_bits, stride, trie_grid;
  if (!spec.GetUint32("max_key_bits", 0, &max_key_bits, error) ||
      !spec.GetUint32("stride", 1, &stride, error) ||
      !spec.GetUint32("trie_grid", 0, &trie_grid, error)) {
    return nullptr;
  }
  if (max_key_bits == 0) {
    // Default: the longest key bounds the padded key space.
    size_t longest = 0;
    for (const std::string& k : builder.keys()) {
      longest = std::max(longest, k.size());
    }
    max_key_bits = static_cast<uint32_t>(longest * 8);
  }

  if (spec.Has("trie") || spec.Has("bloom")) {
    Config config;
    config.max_key_bits = max_key_bits;
    if (!spec.GetUint32("trie", 0, &config.trie_depth, error) ||
        !spec.GetUint32("bloom", 0, &config.bf_prefix_len, error)) {
      return nullptr;
    }
    return BuildWithConfig(builder.keys(), config, bpk);
  }

  if (builder.samples().empty()) {
    // No workload signal: default to a full-padded-key prefix Bloom filter.
    return BuildWithConfig(builder.keys(),
                           Config{0, max_key_bits, max_key_bits}, bpk);
  }
  StrCpfprOptions options;
  options.bloom_grid = std::max<uint32_t>(1, 128 / std::max<uint32_t>(1, stride));
  if (trie_grid > 0) options.trie_grid = trie_grid;  // 0 = model default
  return BuildFromModel(builder.keys(),
                        builder.Design(max_key_bits, options), bpk);
}

std::unique_ptr<ProteusStrFilter> ProteusStrFilter::BuildSelfDesigned(
    const std::vector<std::string>& sorted_keys,
    const std::vector<StrRangeQuery>& sample_queries, double bits_per_key,
    uint32_t max_key_bits, StrCpfprOptions model_options) {
  StrCpfprModel model(sorted_keys, sample_queries, max_key_bits,
                      model_options);
  return BuildFromModel(sorted_keys, model, bits_per_key);
}

std::unique_ptr<ProteusStrFilter> ProteusStrFilter::BuildFromModel(
    const std::vector<std::string>& sorted_keys, const StrCpfprModel& model,
    double bits_per_key) {
  uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));
  ProteusDesign design = model.SelectProteus(budget);
  auto filter = BuildWithConfig(
      sorted_keys,
      Config{design.trie_depth, design.bf_prefix_len, model.max_bits()},
      bits_per_key);
  filter->modeled_fpr_ = design.expected_fpr;
  return filter;
}

std::unique_ptr<ProteusStrFilter> ProteusStrFilter::BuildWithConfig(
    const std::vector<std::string>& sorted_keys, Config config,
    double bits_per_key) {
  auto filter = std::unique_ptr<ProteusStrFilter>(new ProteusStrFilter());
  filter->config_ = config;
  uint64_t budget = static_cast<uint64_t>(
      bits_per_key * static_cast<double>(sorted_keys.size()));
  if (config.trie_depth > 0) {
    filter->trie_.Build(StrUniquePrefixes(sorted_keys, config.trie_depth),
                        config.trie_depth);
  }
  if (config.bf_prefix_len > 0) {
    uint64_t trie_bits = filter->trie_.SizeBits();
    uint64_t bf_bits = budget > trie_bits ? budget - trie_bits : 64;
    filter->bf_ = StrPrefixBloom(sorted_keys, bf_bits, config.bf_prefix_len);
  }
  return filter;
}

bool ProteusStrFilter::MayContain(std::string_view lo,
                                  std::string_view hi) const {
  const uint32_t l1 = config_.trie_depth;
  const uint32_t l2 = config_.bf_prefix_len;
  if (l1 == 0) {
    if (l2 == 0) return true;
    return bf_.MayContain(lo, hi);
  }
  std::string from = StrPrefix(lo, l1);
  std::string to = StrPrefix(hi, l1);
  // A cursor walk: each subsequent leaf is one Next() from the current
  // leaf instead of a fresh root descent on the successor prefix.
  StrBitTrie::Cursor cur(&trie_);
  if (!cur.SeekGeq(from)) return false;
  while (cur.value() <= to) {
    const std::string& v = cur.value();
    if (l2 == 0) return true;
    // Probe the l2-prefixes of Q under this trie leaf.
    // Region bounds: v zero-padded (== v under padding semantics) through
    // v followed by all-one bits.
    std::string probe_lo;
    if (StrComparePrefix(lo, v, l1) == 0) {
      probe_lo = StrPrefix(lo, l2);
    } else {
      probe_lo = StrPrefix(v, l2);  // region start: v + zero padding
    }
    std::string probe_hi;
    if (StrComparePrefix(hi, v, l1) == 0) {
      probe_hi = StrPrefix(hi, l2);
    } else {
      // Region end: v's bits then ones up to l2.
      std::string region_end((l2 + 7) / 8, '\xFF');
      for (uint32_t b = 0; b < l1; ++b) {
        if (!StrGetBit(v, b)) {
          region_end[b >> 3] = static_cast<char>(
              static_cast<uint8_t>(region_end[b >> 3]) & ~(1u << (7 - (b & 7))));
        }
      }
      probe_hi = StrPrefix(region_end, l2);
    }
    uint64_t n_probes = StrPrefixCountInRange(probe_lo, probe_hi, l2);
    if (n_probes > StrPrefixBloom::kDefaultProbeLimit) return true;
    if (bf_.ProbeRange(probe_lo, probe_hi)) return true;
    // Next trie leaf.
    if (v == to || !cur.Next()) break;
  }
  return false;
}

uint64_t ProteusStrFilter::SizeBits() const {
  return trie_.SizeBits() + bf_.SizeBits();
}

std::string ProteusStrFilter::Name() const {
  return "Proteus-str(t" + std::to_string(config_.trie_depth) + ",b" +
         std::to_string(config_.bf_prefix_len) + ")";
}

void ProteusStrFilter::SerializePayload(std::string* out) const {
  PutFixed32(out, config_.trie_depth);
  PutFixed32(out, config_.bf_prefix_len);
  PutFixed32(out, config_.max_key_bits);
  PutFixed32(out, modeled_fpr_.has_value() ? 1 : 0);
  PutDouble(out, modeled_fpr_.value_or(0.0));
  trie_.AppendTo(out);
  bf_.AppendTo(out);
}

std::unique_ptr<ProteusStrFilter> ProteusStrFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::unique_ptr<ProteusStrFilter>(new ProteusStrFilter());
  uint32_t has_fpr;
  double fpr;
  if (!GetFixed32(in, &filter->config_.trie_depth) ||
      !GetFixed32(in, &filter->config_.bf_prefix_len) ||
      !GetFixed32(in, &filter->config_.max_key_bits) ||
      !GetFixed32(in, &has_fpr) || !GetDouble(in, &fpr) ||
      !StrBitTrie::ParseFrom(in, &filter->trie_) ||
      !StrPrefixBloom::ParseFrom(in, &filter->bf_)) {
    return nullptr;
  }
  if (has_fpr != 0) filter->modeled_fpr_ = fpr;
  return filter;
}

}  // namespace proteus
