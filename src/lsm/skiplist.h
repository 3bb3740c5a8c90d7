// A multi-version skiplist over byte-string keys — the MemTable
// substrate (RocksDB's InlineSkipList memtable is the model; Section 6.1).
//
// Nodes are ordered by (user key ascending, seqno descending), and an
// insert NEVER overwrites: every write adds a new version, so a reader
// pinned at an older sequence horizon keeps seeing the version that was
// newest for it. Tombstones are versions like any other (the Db layer
// tags them in the value bytes).
//
// Memory: nodes are carved from an append-only Arena (util/arena.h) in
// ONE allocation each — the variable-height link array sits in front of
// the node header and the key/value bytes trail it, so the write hot
// path performs no per-node malloc and the whole memtable's memory is
// returned in a single sweep when the retired memtable's arena dies.
//
// Concurrency contract (the LevelDB arrangement):
//   - Add() needs external synchronization: ONE writer at a time (the
//     Db's group-commit leader, or recovery's replay).
//   - readers need NO synchronization against the writer: an insert
//     fills the new node, then links it bottom-up with release stores;
//     readers traverse with acquire loads, and nodes are never deleted
//     or mutated while the list is alive. A reader concurrent with an
//     insert sees either the old or the new list at every level — both
//     are valid states.
//   - destruction requires that no readers remain (the Db retires
//     memtables by dropping the last shared_ptr instead).

#ifndef PROTEUS_LSM_SKIPLIST_H_
#define PROTEUS_LSM_SKIPLIST_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "lsm/ikey.h"
#include "util/arena.h"
#include "util/random.h"

namespace proteus {

class SkipList {
 private:
  struct Node;  // defined below; the public Iterator holds a pointer

 public:
  static constexpr int kMaxHeight = 12;

  /// `arena` is where nodes live; it must outlive the list. Passing null
  /// gives the list a private arena (tests and benches).
  explicit SkipList(Arena* arena = nullptr)
      : owned_arena_(arena == nullptr ? std::make_unique<Arena>() : nullptr),
        arena_(arena != nullptr ? arena : owned_arena_.get()),
        head_(NewNode("", "", "", 0, kMaxHeight)) {}

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts a new version of `key`. The stored value bytes are the
  /// concatenation `v1 | v2` (the Db passes the tag byte and the user
  /// value separately so no intermediate string is built). Returns the
  /// byte cost added (memtable accounting). One writer at a time; safe
  /// against concurrent readers; (key, seqno) must be unique.
  int64_t Add(std::string_view key, uint64_t seqno, std::string_view v1,
              std::string_view v2 = {}) {
    // Filling the node first lets its stores overlap the search's cache
    // misses.
    const int height = RandomHeight();
    Node* fresh = NewNode(key, v1, v2, seqno, height);
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, seqno, prev);
    for (int level = 0; level < height; ++level) {
      // Point the new node at its successor BEFORE publishing: the
      // release store makes key/value/seqno and the lower links visible
      // to any reader that acquires the pointer.
      fresh->NoBarrierSetNext(level, prev[level]->Next(level));
      prev[level]->SetNext(level, fresh);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<int64_t>(key.size() + v1.size() + v2.size() + 8);
  }

  struct Entry {
    std::string_view key;
    std::string_view value;  // internal (tagged) bytes
    uint64_t seqno = 0;
  };

  /// Newest version with seqno <= `snapshot` of the smallest key >= `key`.
  /// Keys whose every version is newer than the snapshot are skipped.
  bool SeekGeq(std::string_view key, uint64_t snapshot, Entry* out) const {
    Node* node = FindGreaterOrEqual(key, kMaxSequence);
    while (node != nullptr) {
      if (node->seqno <= snapshot) {
        out->key = node->key();
        out->value = node->value();
        out->seqno = node->seqno;
        return true;
      }
      // This version is invisible; later versions of the SAME key are
      // older (seqno descends within a key) — the next node is either
      // the visible version we want or the start of the next key.
      node = node->Next(0);
    }
    return false;
  }

  /// Newest version of exactly `key` visible at `snapshot`.
  bool Get(std::string_view key, uint64_t snapshot, Entry* out) const {
    Node* node = FindGreaterOrEqual(key, snapshot);
    if (node == nullptr || node->key() != key) return false;
    out->key = node->key();
    out->value = node->value();
    out->seqno = node->seqno;
    return true;
  }

  /// Number of versions stored (not distinct keys).
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  /// In-order visitation of every version: key ascending, seqno
  /// descending within a key (flush path). Safe against the writer.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Node* n = head_->Next(0); n != nullptr; n = n->Next(0)) {
      fn(n->key(), n->seqno, n->value());
    }
  }

  /// Streaming cursor in internal order (key asc, seqno desc) — the
  /// flush path's merge input. Safe against a concurrent writer.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list)
        : node_(list->head_->Next(0)) {}
    bool Valid() const { return node_ != nullptr; }
    std::string_view key() const { return node_->key(); }
    uint64_t seqno() const { return node_->seqno; }
    std::string_view value() const { return node_->value(); }  // internal
    void Next() { node_ = node_->Next(0); }

   private:
    const Node* node_;
  };

 private:
  // Node memory layout, one arena allocation (InlineSkipList-style):
  //
  //   [ next level h-1 ] ... [ next level 1 ]   <- higher links GROW DOWN
  //   [ Node: next_[0] (level 0), seqno, key_len, value_len ]
  //   [ key bytes ][ value bytes ]
  //
  // next_ MUST be the first member: Link(level) addresses level `level`'s
  // link in the prefix region before the struct, so the header
  // offset — and with it key()/value() — is independent of the node's
  // height, and a node is reached at level L only through level-L links,
  // so nobody ever reads a link above the node's height.
  struct Node {
    std::atomic<Node*> next_[1];
    uint64_t seqno;
    uint32_t key_len;
    uint32_t value_len;

    // Links are reached from a base pointer: indexing next_ itself below
    // 0 is an out-of-bounds array access.
    std::atomic<Node*>* Link(int level) { return &next_[0] - level; }
    const std::atomic<Node*>* Link(int level) const {
      return &next_[0] - level;
    }
    Node* Next(int level) const {
      return Link(level)->load(std::memory_order_acquire);
    }
    // Publishes `n` at this level: a reader that acquires the link sees
    // everything written to `n` before the store.
    void SetNext(int level, Node* n) {
      Link(level)->store(n, std::memory_order_release);
    }
    // For a node no reader can reach yet.
    void NoBarrierSetNext(int level, Node* n) {
      Link(level)->store(n, std::memory_order_relaxed);
    }
    const char* data() const {
      return reinterpret_cast<const char*>(this + 1);
    }
    char* data() { return reinterpret_cast<char*>(this + 1); }
    std::string_view key() const { return {data(), key_len}; }
    std::string_view value() const { return {data() + key_len, value_len}; }
  };

  Node* NewNode(std::string_view key, std::string_view v1,
                std::string_view v2, uint64_t seqno, int height) {
    const size_t prefix = sizeof(std::atomic<Node*>) *
                          static_cast<size_t>(height - 1);
    char* mem = arena_->Allocate(prefix + sizeof(Node) + key.size() +
                                 v1.size() + v2.size());
    Node* node = reinterpret_cast<Node*>(mem + prefix);
    node->seqno = seqno;
    node->key_len = static_cast<uint32_t>(key.size());
    node->value_len = static_cast<uint32_t>(v1.size() + v2.size());
    for (int i = 0; i < height; ++i) node->NoBarrierSetNext(i, nullptr);
    char* out = node->data();
    std::memcpy(out, key.data(), key.size());
    out += key.size();
    std::memcpy(out, v1.data(), v1.size());
    out += v1.size();
    if (!v2.empty()) std::memcpy(out, v2.data(), v2.size());
    return node;
  }

  // Rolled by the one writer, so a list's shape depends only on its
  // inserts, not on which thread made them.
  int RandomHeight() {
    int h = 1;
    while (h < kMaxHeight && (rng_.Next() & 3) == 0) ++h;  // p = 1/4
    return h;
  }

  // Internal order: (key asc, seqno desc). A node precedes the target
  // position when its key is smaller, or the key matches and its seqno
  // is larger (newer versions first).
  static bool Precedes(const Node* n, std::string_view key, uint64_t seqno) {
    const int c = n->key().compare(key);
    if (c != 0) return c < 0;
    return n->seqno > seqno;
  }

  /// First node at or after position (key, seqno) in internal order.
  /// With `prev`, also records the last node before that position at
  /// every level (the insert splice).
  Node* FindGreaterOrEqual(std::string_view key, uint64_t seqno,
                           Node** prev = nullptr) const {
    Node* node = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      Node* next = node->Next(level);
      while (next != nullptr && Precedes(next, key, seqno)) {
        node = next;
        next = node->Next(level);
      }
      if (prev != nullptr) prev[level] = node;
    }
    return node->Next(0);
  }

  std::unique_ptr<Arena> owned_arena_;  // only when no arena was passed
  Arena* arena_;
  Node* head_;
  Rng rng_{0xC0FFEEull};
  std::atomic<uint64_t> size_{0};
};

}  // namespace proteus

#endif  // PROTEUS_LSM_SKIPLIST_H_
