#include "lsm/block_cache.h"

namespace proteus {

std::shared_ptr<const std::string> BlockCache::Get(uint64_t file_id,
                                                   uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find({file_id, offset});
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->payload;
}

void BlockCache::Insert(uint64_t file_id, uint64_t offset,
                        std::shared_ptr<const std::string> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  Key key{file_id, offset};
  auto it = map_.find(key);
  if (it != map_.end()) {
    used_ -= it->second->payload->size();
    used_ += payload->size();
    it->second->payload = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictIfNeeded();
    return;
  }
  ++stats_.inserts;
  used_ += payload->size();
  lru_.push_front(Entry{key, std::move(payload)});
  map_[key] = lru_.begin();
  EvictIfNeeded();
}

void BlockCache::EraseFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.first == file_id) {
      used_ -= it->payload->size();
      map_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  ReleasePinnedLocked(file_id);
}

void BlockCache::AddPinnedBytes(uint64_t file_id, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  pinned_[file_id] += bytes;
  pinned_total_ += bytes;
  used_ += bytes;
  EvictIfNeeded();
}

void BlockCache::ReleasePinnedLocked(uint64_t file_id) {
  auto it = pinned_.find(file_id);
  if (it == pinned_.end()) return;
  pinned_total_ -= it->second;
  used_ -= it->second;
  pinned_.erase(it);
}

void BlockCache::EvictIfNeeded() {
  while (used_ > capacity_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    used_ -= victim.payload->size();
    map_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace proteus
