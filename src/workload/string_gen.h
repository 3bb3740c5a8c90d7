// String-key workload generators for Section 7.
//
// Fixed-length synthetic keys (80 / 200 / 1440 bits):
//   Uniform — uniformly random bytes.
//   Normal  — first 8 bytes follow the Normal(2^63, 0.01*2^64) integer
//             distribution (big-endian), remaining bytes uniform; the mean
//             key is 0x80 followed by NULs, as the paper specifies.
//
// Variable-length keys: a synthetic `.org` domain generator standing in
// for the Domains Project crawl: log-normal
// length distribution with median ~21 bytes, clamped to [5, 253].
//
// String range queries are [left, left + offset] where the offset is added
// to the *padded* key interpreted as a big integer (Section 7.2's padding
// construction), with offset ~ U[2, RMAX].

#ifndef PROTEUS_WORKLOAD_STRING_GEN_H_
#define PROTEUS_WORKLOAD_STRING_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"

namespace proteus {

enum class StrDataset {
  kUniform,
  kNormal,
  kDomains,
};

/// Generates `n` sorted distinct fixed-length keys of `key_bytes` bytes
/// (ignored for kDomains, which draws variable lengths).
std::vector<std::string> GenerateStrKeys(StrDataset dataset, size_t n,
                                         size_t key_bytes, uint64_t seed);

/// Adds `delta` to the `max_bytes`-padded value of `key` (big-endian
/// arithmetic from the last byte). Returns false on overflow.
bool StrAddDelta(std::string_view key, size_t max_bytes, uint64_t delta,
                 std::string* out);

enum class StrQueryDist {
  kUniform,     // left uniform over the padded key space
  kCorrelated,  // left = key + U[1, corr_degree]
  kSplit,       // 50/50 correlated-small / uniform-large
  kReal,        // left drawn from a disjoint sample of the key distribution
};

struct StrQuerySpec {
  StrQueryDist dist = StrQueryDist::kUniform;
  uint64_t range_max = uint64_t{1} << 30;   // RMAX (Section 7.2)
  uint64_t corr_degree = uint64_t{1} << 29; // CORRDEGREE
  uint64_t split_corr_range_max = uint64_t{1} << 10;
  size_t max_bytes = 0;  // padded key length; 0 = derive from keys
  bool require_empty = true;
};

/// Generates `n` queries over the sorted padded key set. `real_points`
/// supplies left bounds for kReal.
std::vector<StrRangeQuery> GenerateStrQueries(
    const std::vector<std::string>& sorted_keys, const StrQuerySpec& spec,
    size_t n, uint64_t seed,
    const std::vector<std::string>& real_points = {});

/// True if no key lies within [lo, hi] (lexicographic, padded semantics).
bool StrRangeIsEmpty(const std::vector<std::string>& sorted_keys,
                     std::string_view lo, std::string_view hi);

}  // namespace proteus

#endif  // PROTEUS_WORKLOAD_STRING_GEN_H_
