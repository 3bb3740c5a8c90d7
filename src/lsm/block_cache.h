// A byte-capacity LRU cache for decompressed data blocks, keyed by
// (file id, block offset) — miniLSM's stand-in for the RocksDB block
// cache (Section 6.2 warms and sizes it explicitly).
//
// Thread-safe: one internal mutex serializes lookups, inserts, and
// eviction (readers on many threads share the cache once maintenance
// runs in the background). Payloads are shared_ptr<const string>, so a
// block handed out stays valid after eviction.
//
// Every cached payload is a verified block: SstReader inserts a block
// only after it passed its checks on the way in from disk, and readers
// share the immutable payload on a hit (BlockReader::Attach) instead of
// copying and re-checking it.

#ifndef PROTEUS_LSM_BLOCK_CACHE_H_
#define PROTEUS_LSM_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace proteus {

class BlockCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };

  explicit BlockCache(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Returns the cached block payload or nullptr.
  std::shared_ptr<const std::string> Get(uint64_t file_id, uint64_t offset);

  void Insert(uint64_t file_id, uint64_t offset,
              std::shared_ptr<const std::string> payload);

  /// Drops all blocks of a deleted file (and releases its pinned charge).
  void EraseFile(uint64_t file_id);

  /// Charges `bytes` of memory pinned on behalf of `file_id` (index and
  /// filter blocks held for the file's lifetime) against the cache
  /// budget. Pinned bytes are never evicted themselves but squeeze the
  /// room left for LRU data blocks, mirroring RocksDB's
  /// cache_index_and_filter_blocks accounting. Cumulative per file.
  void AddPinnedBytes(uint64_t file_id, uint64_t bytes);

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = Stats{};
  }
  uint64_t used_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }
  uint64_t pinned_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pinned_total_;
  }
  uint64_t capacity() const { return capacity_; }

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.first * 0x9E3779B97F4A7C15ull ^
                                   k.second);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const std::string> payload;
  };

  void EvictIfNeeded();                        // callers hold mu_
  void ReleasePinnedLocked(uint64_t file_id);  // callers hold mu_

  mutable std::mutex mu_;
  const uint64_t capacity_;
  uint64_t used_ = 0;
  uint64_t pinned_total_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  std::unordered_map<uint64_t, uint64_t> pinned_;  // file_id -> bytes
  Stats stats_;
};

}  // namespace proteus

#endif  // PROTEUS_LSM_BLOCK_CACHE_H_
