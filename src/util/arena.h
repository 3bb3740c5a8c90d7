// Append-only arena allocator for memtable nodes.
//
// A memtable's skiplist nodes share one lifetime: they are born as writes
// arrive and die together when the flushed memtable is retired. The arena
// exploits that — allocation is a pointer bump in the current block (no
// per-node malloc on the write hot path, no free list), and the whole
// memtable's memory is returned in one sweep when the arena is destroyed.
//
// Concurrency: Allocate() needs external synchronization — it is called
// only by the memtable's one writer (the Db's group-commit leader, or
// recovery's replay). MemoryUsage() may be read from any thread.
//
// Deallocation of individual objects is deliberately unsupported; nodes
// must be trivially destructible or have their destructors skipped (the
// skiplist stores raw bytes, so nothing needs destruction).

#ifndef PROTEUS_UTIL_ARENA_H_
#define PROTEUS_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace proteus {

class Arena {
 public:
  static constexpr size_t kBlockBytes = 256u << 10;

  Arena() : current_(NewBlock(kBlockBytes, nullptr)) {}
  ~Arena() {
    Block* b = current_;
    while (b != nullptr) {
      Block* prev = b->prev;
      ::operator delete(static_cast<void*>(b));
      b = prev;
    }
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of 8-aligned storage that lives until the arena is
  /// destroyed. One caller at a time.
  char* Allocate(size_t bytes) {
    bytes = (bytes + 7) & ~size_t{7};
    if (bytes > current_->capacity - current_->offset) {
      // The rest of the current block stays unused.
      current_ = NewBlock(bytes > kBlockBytes ? bytes : kBlockBytes, current_);
    }
    char* out = current_->data() + current_->offset;
    current_->offset += bytes;
    return out;
  }

  /// Total bytes reserved from the system (block capacities, not the
  /// bump offsets) — the memtable memory-accounting figure.
  size_t MemoryUsage() const {
    return reserved_.load(std::memory_order_relaxed);
  }

 private:
  struct Block {
    size_t capacity;
    size_t offset;
    Block* prev;
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  Block* NewBlock(size_t capacity, Block* prev) {
    void* mem = ::operator new(sizeof(Block) + capacity);
    Block* b = static_cast<Block*>(mem);
    b->capacity = capacity;
    b->offset = 0;
    b->prev = prev;
    reserved_.fetch_add(sizeof(Block) + capacity, std::memory_order_relaxed);
    return b;
  }

  // Declared first: the constructor's NewBlock counts into it. Atomic
  // because stats() reads it from other threads.
  std::atomic<size_t> reserved_{0};
  Block* current_;
};

}  // namespace proteus

#endif  // PROTEUS_UTIL_ARENA_H_
