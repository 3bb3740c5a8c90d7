// Key-set generators reproducing Section 5's datasets.
//
// Uniform and Normal follow the paper exactly. Books and Facebook are
// synthetic stand-ins for the SOSD datasets:
//   BooksLike    — heavy low-skew (log-normal body): "many more low
//                  popularity scores than high".
//   FacebookLike — dense IDs covering a narrow range with uniformly
//                  distributed gaps.
// All generators are deterministic in (n, seed) and return sorted,
// deduplicated keys.

#ifndef PROTEUS_WORKLOAD_DATASETS_H_
#define PROTEUS_WORKLOAD_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace proteus {

enum class Dataset {
  kUniform,
  kNormal,
  kBooks,
  kFacebook,
};

/// Parses "uniform" / "normal" / "books" / "facebook".
bool ParseDataset(const std::string& name, Dataset* out);
const char* DatasetName(Dataset d);

/// Generates `n` sorted distinct keys from the given distribution.
std::vector<uint64_t> GenerateKeys(Dataset dataset, size_t n, uint64_t seed);

/// Generates `n` sorted distinct keys plus `n_extra` extra values drawn
/// from the same distribution (disjoint from the keys), used as the "Real"
/// workload's query left bounds (Section 5, Workloads).
void GenerateKeysAndQueryPoints(Dataset dataset, size_t n, size_t n_extra,
                                uint64_t seed, std::vector<uint64_t>* keys,
                                std::vector<uint64_t>* query_points);

/// A value payload in the paper's Section 6.2 style: `size` bytes, first
/// half zero, second half pseudo-random (compression ratio ~0.5).
std::string MakeValuePayload(uint64_t key, size_t size);

}  // namespace proteus

#endif  // PROTEUS_WORKLOAD_DATASETS_H_
