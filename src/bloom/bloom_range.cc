#include "bloom/bloom_range.h"

#include "core/filter_builder.h"

namespace proteus {
namespace {

/// Shared "bpk" parameter handling for both key kinds.
bool ParseBpk(const FilterSpec& spec, double* bpk, std::string* error) {
  if (!spec.ExpectKeys({"bpk"}, error)) return false;
  if (!spec.GetDouble("bpk", 12.0, bpk, error)) return false;
  if (*bpk <= 0.0) {
    if (error != nullptr) *error = "bloom bpk must be positive";
    return false;
  }
  return true;
}

BloomFilter MakeBloom(uint64_t n_keys, double bits_per_key) {
  uint64_t bits = static_cast<uint64_t>(bits_per_key *
                                        static_cast<double>(n_keys));
  return BloomFilter(bits, BloomFilter::OptimalHashes(bits, n_keys));
}

}  // namespace

std::unique_ptr<BloomIntFilter> BloomIntFilter::Build(
    const std::vector<uint64_t>& keys, double bits_per_key) {
  auto filter = std::make_unique<BloomIntFilter>();
  filter->bf_ = MakeBloom(keys.size(), bits_per_key);
  for (uint64_t k : keys) filter->bf_.InsertInt(k);
  return filter;
}

std::unique_ptr<BloomIntFilter> BloomIntFilter::BuildFromSpec(
    const FilterSpec& spec, FilterBuilder& builder, std::string* error) {
  double bpk;
  if (!ParseBpk(spec, &bpk, error)) return nullptr;
  return Build(builder.keys(), bpk);
}

void BloomIntFilter::MultiMayContain(const uint64_t* lo, const uint64_t* hi,
                                     size_t n, uint8_t* out) const {
  // Compact the point queries' hashes into stack chunks and resolve each
  // chunk through the multi-query kernel (AVX2 gathers where the CPU
  // has them, the pipelined scalar loop otherwise — see
  // BloomFilter::MultiContainHash). Non-point queries answer true without
  // touching the filter and without occupying a chunk slot.
  constexpr size_t kChunk = 64;
  uint64_t h1[kChunk], h2[kChunk];
  size_t query[kChunk];
  uint8_t res[kChunk];
  size_t m = 0;
  auto flush = [&] {
    bf_.MultiContainHash(h1, h2, m, res);
    for (size_t j = 0; j < m; ++j) out[query[j]] = res[j];
    m = 0;
  };
  for (size_t j = 0; j < n; ++j) {
    if (lo[j] != hi[j]) {
      out[j] = 1;  // point filter: cannot rule out ranges
      continue;
    }
    BloomFilter::HashInt(lo[j], &h1[m], &h2[m]);
    query[m] = j;
    if (++m == kChunk) flush();
  }
  if (m > 0) flush();
}

void BloomIntFilter::SerializePayload(std::string* out) const {
  bf_.AppendTo(out);
}

std::unique_ptr<BloomIntFilter> BloomIntFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::make_unique<BloomIntFilter>();
  if (!BloomFilter::ParseFrom(in, &filter->bf_)) return nullptr;
  return filter;
}

std::unique_ptr<BloomStrFilter> BloomStrFilter::Build(
    const std::vector<std::string>& keys, double bits_per_key) {
  auto filter = std::make_unique<BloomStrFilter>();
  filter->bf_ = MakeBloom(keys.size(), bits_per_key);
  for (const std::string& k : keys) filter->bf_.InsertBytes(k);
  return filter;
}

std::unique_ptr<BloomStrFilter> BloomStrFilter::BuildFromSpec(
    const FilterSpec& spec, StrFilterBuilder& builder, std::string* error) {
  double bpk;
  if (!ParseBpk(spec, &bpk, error)) return nullptr;
  return Build(builder.keys(), bpk);
}

void BloomStrFilter::MultiMayContain(const std::string_view* lo,
                                     const std::string_view* hi, size_t n,
                                     uint8_t* out) const {
  // Same chunked batching as BloomIntFilter::MultiMayContain, over byte
  // strings.
  constexpr size_t kChunk = 64;
  uint64_t h1[kChunk], h2[kChunk];
  size_t query[kChunk];
  uint8_t res[kChunk];
  size_t m = 0;
  auto flush = [&] {
    bf_.MultiContainHash(h1, h2, m, res);
    for (size_t j = 0; j < m; ++j) out[query[j]] = res[j];
    m = 0;
  };
  for (size_t j = 0; j < n; ++j) {
    if (lo[j] != hi[j]) {
      out[j] = 1;
      continue;
    }
    BloomFilter::HashBytes(lo[j], &h1[m], &h2[m]);
    query[m] = j;
    if (++m == kChunk) flush();
  }
  if (m > 0) flush();
}

void BloomStrFilter::SerializePayload(std::string* out) const {
  bf_.AppendTo(out);
}

std::unique_ptr<BloomStrFilter> BloomStrFilter::DeserializePayload(
    std::string_view* in) {
  auto filter = std::make_unique<BloomStrFilter>();
  if (!BloomFilter::ParseFrom(in, &filter->bf_)) return nullptr;
  return filter;
}

}  // namespace proteus
