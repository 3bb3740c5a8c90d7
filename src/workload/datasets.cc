#include "workload/datasets.h"

#include <algorithm>
#include <cmath>

#include "hash/murmur3.h"
#include "util/random.h"

namespace proteus {

bool ParseDataset(const std::string& name, Dataset* out) {
  if (name == "uniform") {
    *out = Dataset::kUniform;
  } else if (name == "normal") {
    *out = Dataset::kNormal;
  } else if (name == "books") {
    *out = Dataset::kBooks;
  } else if (name == "facebook") {
    *out = Dataset::kFacebook;
  } else {
    return false;
  }
  return true;
}

const char* DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kUniform: return "uniform";
    case Dataset::kNormal: return "normal";
    case Dataset::kBooks: return "books";
    case Dataset::kFacebook: return "facebook";
  }
  return "?";
}

namespace {

uint64_t DrawKey(Dataset dataset, Rng& rng) {
  switch (dataset) {
    case Dataset::kUniform:
      return rng.Next();
    case Dataset::kNormal: {
      // Mean 2^63, sd 0.01 * 2^64 (Section 5, Datasets).
      double v = 9.223372036854776e18 + rng.NextGaussian() * 1.8446744073709552e17;
      if (v < 0) v = 0;
      if (v >= 1.8446744073709552e19) v = 1.8446744073709552e19 - 1;
      return static_cast<uint64_t>(v);
    }
    case Dataset::kBooks: {
      // Log-normal popularity scores: most keys small, a long right tail
      // reaching high into the key space.
      double v = rng.NextLogNormal(/*mu=*/std::log(1e12), /*sigma=*/2.5);
      if (v >= 1.8446744073709552e19) v = 1.8446744073709552e19 - 1;
      return static_cast<uint64_t>(v);
    }
    case Dataset::kFacebook:
      // Handled separately (sequential gaps).
      return 0;
  }
  return 0;
}

// Draws until `n` distinct values not in `exclude` (sorted) have been
// seen, and returns them sorted. Each round draws exactly the shortfall,
// so the last draw is the one that completes the set: the result and the
// number of draws taken from `rng` match inserting draw after draw into
// a std::set until it holds n values.
std::vector<uint64_t> DrawDistinct(Dataset dataset, size_t n, Rng& rng,
                                   const std::vector<uint64_t>& exclude = {}) {
  std::vector<uint64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    for (size_t shortfall = n - out.size(); shortfall > 0; --shortfall) {
      const uint64_t v = DrawKey(dataset, rng);
      if (!std::binary_search(exclude.begin(), exclude.end(), v)) {
        out.push_back(v);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

}  // namespace

std::vector<uint64_t> GenerateKeys(Dataset dataset, size_t n, uint64_t seed) {
  Rng rng(seed ^ 0xDA7A5E7Bu);
  if (dataset == Dataset::kFacebook) {
    // Dense IDs: a narrow band starting at an arbitrary base with uniform
    // gaps in [1, 16].
    std::vector<uint64_t> keys;
    keys.reserve(n);
    uint64_t v = uint64_t{1} << 40;
    for (size_t i = 0; i < n; ++i) {
      v += 1 + rng.NextBelow(16);
      keys.push_back(v);
    }
    return keys;  // strictly increasing by construction
  }
  return DrawDistinct(dataset, n, rng);
}

void GenerateKeysAndQueryPoints(Dataset dataset, size_t n, size_t n_extra,
                                uint64_t seed, std::vector<uint64_t>* keys,
                                std::vector<uint64_t>* query_points) {
  Rng rng(seed ^ 0xDA7A5E7Bu);
  if (dataset == Dataset::kFacebook) {
    // Draw a dense run, then split it between keys and query points the way
    // the paper samples disjoint subsets of one dataset.
    std::vector<uint64_t> all;
    all.reserve(n + n_extra);
    uint64_t v = uint64_t{1} << 40;
    for (size_t i = 0; i < n + n_extra; ++i) {
      v += 1 + rng.NextBelow(16);
      all.push_back(v);
    }
    keys->clear();
    query_points->clear();
    for (size_t i = 0; i < all.size(); ++i) {
      // Interleaved assignment keeps both samples covering the full band.
      if (query_points->size() * n < keys->size() * n_extra ||
          keys->size() >= n) {
        query_points->push_back(all[i]);
      } else {
        keys->push_back(all[i]);
      }
    }
    return;
  }
  *keys = DrawDistinct(dataset, n, rng);
  *query_points = DrawDistinct(dataset, n_extra, rng, *keys);
}

std::string MakeValuePayload(uint64_t key, size_t size) {
  std::string value(size, '\0');
  // Second half pseudo-random, derived from the key so payloads are
  // reproducible without storing them.
  uint64_t state = Murmur3Int64(key, 0xC0FFEE);
  for (size_t i = size / 2; i < size; ++i) {
    value[i] = static_cast<char>(SplitMix64(state) & 0xFF);
  }
  return value;
}

}  // namespace proteus
