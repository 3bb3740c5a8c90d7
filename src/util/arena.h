// Append-only arena allocator for memtable nodes.
//
// A memtable's skiplist nodes share one lifetime: they are born as writes
// arrive and die together when the flushed memtable is retired. The arena
// exploits that — allocation is a bump of an atomic offset (no per-node
// malloc on the write hot path, no free list), and the whole memtable's
// memory is returned in one sweep when the arena is destroyed.
//
// Concurrency: Allocate() is safe from any number of threads (the Db's
// batch followers apply their writes to the memtable in parallel).
// The fast path is a single fetch_add into the current block; only
// minting a fresh block takes a mutex. A thread that overshoots a block's
// capacity leaves the overshot gap unused — bounded waste (< one
// allocation per racing thread per block), never a correctness issue.
//
// Deallocation of individual objects is deliberately unsupported; nodes
// must be trivially destructible or have their destructors skipped (the
// skiplist stores raw bytes, so nothing needs destruction).

#ifndef PROTEUS_UTIL_ARENA_H_
#define PROTEUS_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>

namespace proteus {

class Arena {
 public:
  static constexpr size_t kBlockBytes = 256u << 10;

  Arena() { current_.store(NewBlock(kBlockBytes, nullptr), std::memory_order_release); }
  ~Arena() {
    Block* b = current_.load(std::memory_order_relaxed);
    while (b != nullptr) {
      Block* prev = b->prev;
      ::operator delete(static_cast<void*>(b));
      b = prev;
    }
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of 8-aligned storage that lives until the arena is
  /// destroyed. Thread-safe; lock-free except when a new block is minted.
  char* Allocate(size_t bytes) {
    bytes = (bytes + 7) & ~size_t{7};
    Block* b = current_.load(std::memory_order_acquire);
    const size_t off = b->offset.fetch_add(bytes, std::memory_order_relaxed);
    if (off + bytes <= b->capacity) return b->data() + off;
    return AllocateSlow(bytes);
  }

  /// Total bytes reserved from the system (block capacities, not the
  /// bump offsets) — the memtable memory-accounting figure.
  size_t MemoryUsage() const {
    return reserved_.load(std::memory_order_relaxed);
  }

 private:
  struct Block {
    size_t capacity;
    std::atomic<size_t> offset;
    Block* prev;
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  Block* NewBlock(size_t capacity, Block* prev) {
    void* mem = ::operator new(sizeof(Block) + capacity);
    Block* b = static_cast<Block*>(mem);
    b->capacity = capacity;
    b->offset.store(0, std::memory_order_relaxed);
    b->prev = prev;
    reserved_.fetch_add(sizeof(Block) + capacity, std::memory_order_relaxed);
    return b;
  }

  char* AllocateSlow(size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    // Another loser of the fetch_add race may have minted a block already.
    Block* b = current_.load(std::memory_order_relaxed);
    size_t off = b->offset.fetch_add(bytes, std::memory_order_relaxed);
    if (off + bytes <= b->capacity) return b->data() + off;
    const size_t cap = bytes > kBlockBytes ? bytes : kBlockBytes;
    Block* fresh = NewBlock(cap, b);
    fresh->offset.store(bytes, std::memory_order_relaxed);
    current_.store(fresh, std::memory_order_release);
    return fresh->data();
  }

  std::atomic<Block*> current_{nullptr};
  std::atomic<size_t> reserved_{0};
  std::mutex mu_;
};

}  // namespace proteus

#endif  // PROTEUS_UTIL_ARENA_H_
