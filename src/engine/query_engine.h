// QueryEngine: the batched front door to a Db. It drives Db::MultiSeek,
// which runs every batch in key order, and measures what each batch
// cost — filter negatives, data blocks touched, wall time — as the
// per-batch stats the server and the load generator report.

#ifndef PROTEUS_ENGINE_QUERY_ENGINE_H_
#define PROTEUS_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "lsm/db.h"
#include "util/status.h"

namespace proteus {

/// What one batch (or an accumulated run) cost. Counter fields are
/// deltas of the DB's and block cache's counters across the batch.
struct BatchStats {
  uint64_t queries = 0;
  uint64_t found = 0;
  uint64_t empty = 0;
  uint64_t filter_checks = 0;
  uint64_t filter_negatives = 0;
  uint64_t sst_seeks = 0;
  uint64_t false_positive_files = 0;
  uint64_t blocks_touched = 0;  // cache hits + misses (data-block reads)
  uint64_t cache_misses = 0;    // of those, fetched from disk
  uint64_t wall_ns = 0;

  double Qps() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(queries) * 1e9 /
                              static_cast<double>(wall_ns);
  }

  void Accumulate(const BatchStats& other);
};

class QueryEngine {
 public:
  /// Builds an engine over `db`. `order` must be "sorted", the key order
  /// Db::MultiSeek always runs. The parameter remains so that a caller
  /// naming another order (say "fifo" or "grouped") learns that it is
  /// not available, with null and InvalidArgument in `status`, instead
  /// of silently getting key order. The caller keeps `db` alive for the
  /// engine's lifetime.
  static std::unique_ptr<QueryEngine> Create(Db* db, const std::string& order,
                                             Status* status = nullptr);

  explicit QueryEngine(Db* db) : db_(db) {}

  /// Runs one batch through Db::MultiSeek. Fills `stats` (when non-null)
  /// with the batch's cost and folds it into totals(). `options`
  /// (snapshot, checksum/cache knobs) applies to the whole batch — one
  /// pinned view, one sequence horizon.
  void Run(const QueryBatch& batch, std::vector<MultiSeekResult>* results,
           BatchStats* stats = nullptr, const ReadOptions& options = {});

  Db& db() { return *db_; }

  /// Accumulated stats across every Run since construction.
  const BatchStats& totals() const { return totals_; }

 private:
  Db* db_;
  BatchStats totals_;
};

}  // namespace proteus

#endif  // PROTEUS_ENGINE_QUERY_ENGINE_H_
