#include "engine/query_engine.h"

#include "util/timer.h"

namespace proteus {

void BatchStats::Accumulate(const BatchStats& other) {
  queries += other.queries;
  found += other.found;
  empty += other.empty;
  filter_checks += other.filter_checks;
  filter_negatives += other.filter_negatives;
  sst_seeks += other.sst_seeks;
  false_positive_files += other.false_positive_files;
  blocks_touched += other.blocks_touched;
  cache_misses += other.cache_misses;
  wall_ns += other.wall_ns;
}

std::unique_ptr<QueryEngine> QueryEngine::Create(Db* db,
                                                const std::string& order,
                                                Status* status) {
  if (order != "sorted") {
    if (status != nullptr) {
      *status = Status::InvalidArgument(
          "unknown batch order \"" + order +
          "\"; MultiSeek runs queries sorted by key (\"sorted\")");
    }
    return nullptr;
  }
  if (status != nullptr) *status = Status::OK();
  return std::make_unique<QueryEngine>(db);
}

void QueryEngine::Run(const QueryBatch& batch,
                      std::vector<MultiSeekResult>* results,
                      BatchStats* stats, const ReadOptions& options) {
  const DbStats before = db_->stats();
  const BlockCache::Stats cache_before = db_->cache().stats();
  Stopwatch timer;
  db_->MultiSeek(batch, results, options);
  BatchStats delta;
  delta.wall_ns = timer.ElapsedNanos();
  delta.queries = batch.size();
  for (const MultiSeekResult& r : *results) {
    if (r.found) ++delta.found;
  }
  delta.empty = delta.queries - delta.found;
  const DbStats& after = db_->stats();
  delta.filter_checks = after.filter_checks - before.filter_checks;
  delta.filter_negatives = after.filter_negatives - before.filter_negatives;
  delta.sst_seeks = after.sst_seeks - before.sst_seeks;
  delta.false_positive_files =
      after.false_positive_files - before.false_positive_files;
  const BlockCache::Stats& cache_after = db_->cache().stats();
  delta.blocks_touched = (cache_after.hits - cache_before.hits) +
                         (cache_after.misses - cache_before.misses);
  delta.cache_misses = cache_after.misses - cache_before.misses;
  totals_.Accumulate(delta);
  if (stats != nullptr) *stats = delta;
}

}  // namespace proteus
