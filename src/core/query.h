// Range query value types shared by the model, filters, workloads, and
// benchmarks. Ranges are inclusive on both ends: [lo, hi].

#ifndef PROTEUS_CORE_QUERY_H_
#define PROTEUS_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace proteus {

struct RangeQuery {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

struct StrRangeQuery {
  std::string lo;
  std::string hi;
};

/// A batch of inclusive range queries over encoded (byte-string) keys:
/// the unit of Db::MultiSeek and of the query engine.
using QueryBatch = std::vector<StrRangeQuery>;

}  // namespace proteus

#endif  // PROTEUS_CORE_QUERY_H_
