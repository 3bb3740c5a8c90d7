#include "bloom/prefix_bloom.h"

#include <algorithm>

#include "util/serial.h"

namespace proteus {

namespace {
// Salts so that prefixes of different lengths never collide when multiple
// prefix Bloom filters share hashing code.
constexpr uint64_t kSeed1 = 0x71AFD7ED558CCD5Dull;
constexpr uint64_t kSeed2 = 0xEB382D699DDFEA08ull;

inline uint64_t SaltedLen(uint64_t seed, uint32_t l) {
  return seed ^ (uint64_t{l} * 0x9E3779B97F4A7C15ull);
}
}  // namespace

PrefixBloom::PrefixBloom(const std::vector<uint64_t>& sorted_keys,
                         uint64_t n_bits, uint32_t prefix_len)
    : prefix_len_(prefix_len) {
  n_items_ = CountUniquePrefixes(sorted_keys, prefix_len);
  bf_ = BloomFilter(n_bits, BloomFilter::OptimalHashes(n_bits, n_items_));
  uint64_t prev = 0;
  bool first = true;
  for (uint64_t key : sorted_keys) {
    uint64_t p = PrefixBits64(key, prefix_len);
    if (first || p != prev) {
      bf_.InsertHash(Murmur3Int64(p, SaltedLen(kSeed1, prefix_len_)),
                     Murmur3Int64(p, SaltedLen(kSeed2, prefix_len_)));
      prev = p;
      first = false;
    }
  }
}

bool PrefixBloom::ProbePrefix(uint64_t prefix_value) const {
  return bf_.MayContainHash(
      Murmur3Int64(prefix_value, SaltedLen(kSeed1, prefix_len_)),
      Murmur3Int64(prefix_value, SaltedLen(kSeed2, prefix_len_)));
}

void PrefixBloom::PrefetchPrefix(uint64_t prefix_value) const {
  bf_.PrefetchHash(Murmur3Int64(prefix_value, SaltedLen(kSeed1, prefix_len_)));
}

void PrefixBloom::HashPrefix(uint64_t prefix_value, uint64_t* h1,
                             uint64_t* h2) const {
  *h1 = Murmur3Int64(prefix_value, SaltedLen(kSeed1, prefix_len_));
  *h2 = Murmur3Int64(prefix_value, SaltedLen(kSeed2, prefix_len_));
}

void PrefixBloom::MultiProbePrefix(const uint64_t* prefix_values, size_t n,
                                   uint8_t* out) const {
  const uint64_t s1 = SaltedLen(kSeed1, prefix_len_);
  const uint64_t s2 = SaltedLen(kSeed2, prefix_len_);
  constexpr size_t kChunk = 64;
  uint64_t h1[kChunk], h2[kChunk];
  for (size_t i = 0; i < n; i += kChunk) {
    const size_t m = std::min(n - i, kChunk);
    for (size_t j = 0; j < m; ++j) {
      h1[j] = Murmur3Int64(prefix_values[i + j], s1);
      h2[j] = Murmur3Int64(prefix_values[i + j], s2);
    }
    bf_.MultiContainHash(h1, h2, m, out + i);
  }
}

bool PrefixBloom::ProbeRange(uint64_t first, uint64_t last) const {
  const uint64_t s1 = SaltedLen(kSeed1, prefix_len_);
  const uint64_t s2 = SaltedLen(kSeed2, prefix_len_);
  // Dense walks batch consecutive prefixes through the multi-query
  // kernel, short-circuiting at chunk granularity; `last - first` (not
  // the +1 count) so a full-domain range cannot wrap the comparison.
  if (last - first >= 15) {
    constexpr size_t kChunk = 64;
    uint64_t h1[kChunk], h2[kChunk];
    uint8_t res[kChunk];
    for (uint64_t p = first;;) {
      const uint64_t remaining = last - p;  // prefixes after p
      const size_t m =
          remaining >= kChunk - 1 ? kChunk : static_cast<size_t>(remaining) + 1;
      for (size_t j = 0; j < m; ++j) {
        h1[j] = Murmur3Int64(p + j, s1);
        h2[j] = Murmur3Int64(p + j, s2);
      }
      bf_.MultiContainHash(h1, h2, m, res);
      for (size_t j = 0; j < m; ++j) {
        if (res[j] != 0) return true;
      }
      if (remaining < kChunk) return false;
      p += kChunk;
    }
  }
  // Short walks keep the software pipeline: while probe p resolves, hash
  // p + 1 and pull its cache line in.
  uint64_t h1 = Murmur3Int64(first, s1);
  uint64_t h2 = Murmur3Int64(first, s2);
  bf_.PrefetchHash(h1);
  for (uint64_t p = first;; ++p) {
    uint64_t nh1 = 0, nh2 = 0;
    if (p != last) {
      nh1 = Murmur3Int64(p + 1, s1);
      nh2 = Murmur3Int64(p + 1, s2);
      bf_.PrefetchHash(nh1);
    }
    if (bf_.MayContainHash(h1, h2)) return true;
    if (p == last) return false;
    h1 = nh1;
    h2 = nh2;
  }
}

bool PrefixBloom::MayContain(uint64_t lo, uint64_t hi,
                             uint64_t probe_limit) const {
  uint64_t first = PrefixBits64(lo, prefix_len_);
  uint64_t last = PrefixBits64(hi, prefix_len_);
  // Phrased without the +1 so a full-domain range (count 2^64, which
  // wraps to 0) still trips the limit instead of walking forever.
  if (last - first >= probe_limit) return true;
  return ProbeRange(first, last);
}

void PrefixBloom::MultiMayContain(const uint64_t* lo, const uint64_t* hi,
                                  size_t n, uint8_t* out) const {
  constexpr size_t kChunk = 256;
  uint64_t vals[kChunk];
  uint32_t owner[kChunk];
  uint8_t res[kChunk];
  size_t m = 0;
  auto flush = [&] {
    MultiProbePrefix(vals, m, res);
    for (size_t j = 0; j < m; ++j) out[owner[j]] |= res[j];
    m = 0;
  };
  for (size_t i = 0; i < n; ++i) {
    const uint64_t first = PrefixBits64(lo[i], prefix_len_);
    const uint64_t last = PrefixBits64(hi[i], prefix_len_);
    if (last - first >= kFlattenLimit) {
      out[i] = MayContain(lo[i], hi[i]) ? 1 : 0;
      continue;
    }
    out[i] = 0;
    for (uint64_t p = first;; ++p) {
      vals[m] = p;
      owner[m] = static_cast<uint32_t>(i);
      if (++m == kChunk) flush();
      if (p == last) break;
    }
  }
  if (m > 0) flush();
}

StrPrefixBloom::StrPrefixBloom(const std::vector<std::string>& sorted_keys,
                               uint64_t n_bits, uint32_t prefix_len)
    : prefix_len_(prefix_len) {
  // Count unique prefixes first (keys are sorted, so equal prefixes are
  // adjacent), then insert.
  std::string prev;
  bool first = true;
  n_items_ = 0;
  for (const std::string& key : sorted_keys) {
    std::string p = StrPrefix(key, prefix_len);
    if (first || p != prev) {
      ++n_items_;
      prev = std::move(p);
      first = false;
    }
  }
  bf_ = BloomFilter(n_bits, BloomFilter::OptimalHashes(n_bits, n_items_));
  first = true;
  prev.clear();
  for (const std::string& key : sorted_keys) {
    std::string p = StrPrefix(key, prefix_len);
    if (first || p != prev) {
      bf_.InsertHash(ClHash64(p, SaltedLen(kSeed1, prefix_len_)),
                     ClHash64(p, SaltedLen(kSeed2, prefix_len_)));
      prev = std::move(p);
      first = false;
    }
  }
}

bool StrPrefixBloom::ProbePrefix(std::string_view padded_prefix) const {
  return bf_.MayContainHash(
      ClHash64(padded_prefix, SaltedLen(kSeed1, prefix_len_)),
      ClHash64(padded_prefix, SaltedLen(kSeed2, prefix_len_)));
}

void StrPrefixBloom::PrefetchPrefix(std::string_view padded_prefix) const {
  bf_.PrefetchHash(ClHash64(padded_prefix, SaltedLen(kSeed1, prefix_len_)));
}

bool StrPrefixBloom::ProbeRange(std::string_view first,
                                std::string_view last) const {
  const uint64_t s1 = SaltedLen(kSeed1, prefix_len_);
  const uint64_t s2 = SaltedLen(kSeed2, prefix_len_);
  std::string cur(first);
  std::string next;
  uint64_t h1 = ClHash64(cur, s1);
  uint64_t h2 = ClHash64(cur, s2);
  bf_.PrefetchHash(h1);
  // Most walks resolve within a handful of prefixes; pipeline those one
  // ahead as before, and only a walk that survives kScalarProbes falls
  // through to chunked multi-query probes below.
  constexpr int kScalarProbes = 8;
  for (int probes = 0; probes < kScalarProbes; ++probes) {
    const bool at_last = cur == last;
    uint64_t nh1 = 0, nh2 = 0;
    bool have_next = false;
    if (!at_last) {
      next = cur;
      have_next = StrPrefixIncrement(&next, prefix_len_);
      if (have_next) {
        nh1 = ClHash64(next, s1);
        nh2 = ClHash64(next, s2);
        bf_.PrefetchHash(nh1);
      }
    }
    if (bf_.MayContainHash(h1, h2)) return true;
    if (at_last || !have_next) return false;
    cur.swap(next);
    h1 = nh1;
    h2 = nh2;
  }
  // Long walk: hash successors in chunks and resolve each chunk through
  // the multi-query kernel, short-circuiting at chunk granularity.
  constexpr size_t kChunk = 32;
  uint64_t h1v[kChunk], h2v[kChunk];
  uint8_t res[kChunk];
  for (;;) {
    size_t m = 0;
    bool at_end = false;
    while (m < kChunk) {
      h1v[m] = ClHash64(cur, s1);
      h2v[m] = ClHash64(cur, s2);
      ++m;
      if (cur == last || !StrPrefixIncrement(&cur, prefix_len_)) {
        at_end = true;
        break;
      }
    }
    bf_.MultiContainHash(h1v, h2v, m, res);
    for (size_t j = 0; j < m; ++j) {
      if (res[j] != 0) return true;
    }
    if (at_end) return false;
  }
}

bool StrPrefixBloom::MayContain(std::string_view lo, std::string_view hi,
                                uint64_t probe_limit) const {
  uint64_t count = StrPrefixCountInRange(lo, hi, prefix_len_);
  if (count > probe_limit) return true;
  std::string p = StrPrefix(lo, prefix_len_);
  std::string last = StrPrefix(hi, prefix_len_);
  return ProbeRange(p, last);
}

uint64_t CountUniquePrefixes(const std::vector<uint64_t>& sorted_keys,
                             uint32_t l) {
  if (sorted_keys.empty() || l == 0) return sorted_keys.empty() ? 0 : 1;
  uint64_t count = 1;
  for (size_t i = 1; i < sorted_keys.size(); ++i) {
    if (PrefixBits64(sorted_keys[i], l) !=
        PrefixBits64(sorted_keys[i - 1], l)) {
      ++count;
    }
  }
  return count;
}

std::vector<uint64_t> CountUniquePrefixesAll(
    const std::vector<uint64_t>& sorted_keys) {
  std::vector<uint64_t> counts(65, 0);
  if (sorted_keys.empty()) return counts;
  // A key contributes a new l-prefix exactly when l > lcp(prev, key); so
  // |K_l| = 1 + #{i : lcp(k_{i-1}, k_i) < l}. Histogram the LCPs and prefix-
  // sum (Section 4.3, "Count Key Prefixes").
  std::vector<uint64_t> lcp_hist(65, 0);
  for (size_t i = 1; i < sorted_keys.size(); ++i) {
    lcp_hist[LcpBits64(sorted_keys[i - 1], sorted_keys[i])]++;
  }
  uint64_t below = 0;  // #{i : lcp < l}
  for (uint32_t l = 0; l <= 64; ++l) {
    counts[l] = 1 + below;
    if (l < 64) below += lcp_hist[l];
  }
  counts[0] = 1;
  return counts;
}

std::vector<uint64_t> StrCountUniquePrefixesAll(
    const std::vector<std::string>& sorted_keys, uint32_t max_bits) {
  std::vector<uint64_t> counts(max_bits + 1, 0);
  if (sorted_keys.empty()) return counts;
  std::vector<uint64_t> lcp_hist(max_bits + 1, 0);
  for (size_t i = 1; i < sorted_keys.size(); ++i) {
    uint64_t lcp = StrLcpBits(sorted_keys[i - 1], sorted_keys[i], max_bits);
    lcp_hist[lcp]++;
  }
  uint64_t below = 0;
  for (uint32_t l = 0; l <= max_bits; ++l) {
    counts[l] = 1 + below;
    if (l < max_bits) below += lcp_hist[l];
  }
  counts[0] = 1;
  return counts;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void PrefixBloom::AppendTo(std::string* out) const {
  PutFixed32(out, prefix_len_);
  PutFixed64(out, n_items_);
  bf_.AppendTo(out);
}

bool PrefixBloom::ParseFrom(std::string_view* in, PrefixBloom* out) {
  return GetFixed32(in, &out->prefix_len_) && GetFixed64(in, &out->n_items_) &&
         BloomFilter::ParseFrom(in, &out->bf_);
}

void StrPrefixBloom::AppendTo(std::string* out) const {
  PutFixed32(out, prefix_len_);
  PutFixed64(out, n_items_);
  bf_.AppendTo(out);
}

bool StrPrefixBloom::ParseFrom(std::string_view* in, StrPrefixBloom* out) {
  return GetFixed32(in, &out->prefix_len_) && GetFixed64(in, &out->n_items_) &&
         BloomFilter::ParseFrom(in, &out->bf_);
}

}  // namespace proteus
