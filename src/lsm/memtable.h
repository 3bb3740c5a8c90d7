// MemTable — the active write buffer: one skiplist with one writer.
//
// A MemTable is one multi-version SkipList whose nodes are carved from
// the memtable's own arena. Only one thread writes it at a time: the
// group-commit leader, which applies its whole batch in seqno order
// (db.cc's CommitBatch), or recovery's WAL replay. A Seek makes one
// descent; flush streams the list's (key asc, seqno desc) order through
// db.cc's MemTableMergeSource, one iterator per immutable memtable.
//
// Thread safety: Add needs external synchronization (the Db calls it
// under pipeline_mu_); readers are wait-free against the writer.
// wal_segment is set once at rotation before the memtable is published.

#ifndef PROTEUS_LSM_MEMTABLE_H_
#define PROTEUS_LSM_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "lsm/skiplist.h"
#include "util/arena.h"

namespace proteus {

class MemTable {
 public:
  /// Inserts one version: the stored internal value is `tag | user value`
  /// (written straight into the arena node, no intermediate string).
  /// One writer at a time.
  void Add(std::string_view key, uint64_t seqno, uint8_t tag,
           std::string_view user_value) {
    const char tag_byte = static_cast<char>(tag);
    bytes_.fetch_add(list_.Add(key, seqno, {&tag_byte, 1}, user_value),
                     std::memory_order_relaxed);
  }

  /// Smallest key >= `key` with a version visible at `snapshot`.
  bool SeekGeq(std::string_view key, uint64_t snapshot,
               SkipList::Entry* out) const {
    return list_.SeekGeq(key, snapshot, out);
  }

  /// Entry versions stored.
  uint64_t size() const { return list_.size(); }

  /// Logical byte cost of the stored entries (flush-trigger accounting).
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// Bytes reserved by the backing arena (DbStats observability).
  size_t ArenaBytes() const { return arena_.MemoryUsage(); }

  /// The flush path's merge source reads the sorted stream through
  /// SkipList::Iterator.
  const SkipList& list() const { return list_; }

  /// Oldest WAL segment holding this memtable's writes; segments below
  /// the minimum across live memtables are obsolete after a flush. Set
  /// once before the memtable is published (db.cc's rotation).
  uint64_t wal_segment = 0;

 private:
  Arena arena_;  // declared before list_: the list's nodes live here
  SkipList list_{&arena_};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace proteus

#endif  // PROTEUS_LSM_MEMTABLE_H_
