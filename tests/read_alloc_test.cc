// Steady-state reads must not touch the heap: a Seek or a MultiSeek
// batch reuses its thread's read state, and a block-cache hit shares the
// cached block. This
// binary replaces the global operator new with one that counts the
// calling thread's allocations (background flush and compaction threads
// allocate freely and are not counted).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "surf/surf.h"

namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace proteus {
namespace {

// ASan and TSan bring their own operator new. Where their runtime wins
// over the replacement above, the counter stays at zero and only the
// count assertions are skipped; the reads themselves still run. An
// uninstrumented build must always count.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

bool CountingWorks() {
  const uint64_t before = t_allocations;
  int* volatile p = new int(1);
  delete p;
  return t_allocations != before;
}

constexpr uint64_t kKeys = 20000;
constexpr uint64_t kStride = 1000;  // keys at multiples of kStride

std::string Value(uint64_t i) {
  return "value-" + std::to_string(i) + std::string(32, 'v');  // past SSO
}

// A multi-level tree with filters plus a few keys left in the memtable.
// Redesign and sampling are off, so reads cannot change the tree.
std::unique_ptr<Db> BuildDb(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_read_alloc_" + name;
  options.memtable_bytes = 128 << 10;
  options.sst_target_bytes = 256 << 10;
  options.block_cache_bytes = 64u << 20;  // holds every block
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 512 << 10;
  options.wal_sync = false;
  options.filter_policy = MakeFilterPolicy("proteus:bpk=10");
  options.queue_options.sample_rate = std::numeric_limits<uint32_t>::max();
  options.adaptive_redesign = false;
  auto [db, st] = Db::Create(options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (db == nullptr) return nullptr;
  for (uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(db->Put(EncodeKeyBE(i * kStride), Value(i)).ok());
  }
  EXPECT_TRUE(db->Flush().ok());
  db->WaitForBackground();
  for (uint64_t i = kKeys; i < kKeys + 50; ++i) {
    EXPECT_TRUE(db->Put(EncodeKeyBE(i * kStride), Value(i)).ok());
  }
  return std::move(db);
}

TEST(ReadAllocTest, EmptySeekAllocatesNothingOnceWarm) {
  auto db = BuildDb("empty");
  ASSERT_NE(db, nullptr);
  ASSERT_GT(db->LevelFileCounts().size(), 1u);
  // Gaps between keys, some wide enough to cross a filter's prefix, so
  // a share of them are false positives that read (cached) blocks.
  auto run = [&db] {
    uint64_t found = 0;
    for (uint64_t i = 0; i < kKeys + 50; i += 7) {
      const uint64_t lo = i * kStride + 1 + (i % 5) * 3;
      const uint64_t hi = lo + 100 + (i % 11) * 80;
      found += db->Seek(EncodeKeyBE(lo), EncodeKeyBE(hi)).found;
    }
    return found;
  };
  ASSERT_EQ(run(), 0u);  // warm-up: buffers grow, blocks get cached
  const DbStats warm = db->stats();
  const uint64_t before = t_allocations;
  ASSERT_EQ(run(), 0u);
  const uint64_t allocations = t_allocations - before;
  // The measured pass did read blocks, all of them cache hits.
  EXPECT_GT(db->stats().sst_seeks, warm.sst_seeks);
  EXPECT_EQ(db->stats().read_errors, 0u);
  if (kSanitized && !CountingWorks()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; count not checked";
  }
  ASSERT_TRUE(CountingWorks());
  EXPECT_EQ(allocations, 0u);
}

TEST(ReadAllocTest, MultiSeekBatchAllocatesNothingOnceWarm) {
  auto db = BuildDb("multiseek");
  ASSERT_NE(db, nullptr);
  ASSERT_GT(db->LevelFileCounts().size(), 1u);
  // The empty ranges of the Seek case in batches of 64, each arriving in
  // descending key order so that MultiSeek's sort has work to do. The
  // batches are built before anything is counted.
  std::vector<QueryBatch> batches;
  for (uint64_t i = 0; i < kKeys + 50; i += 7) {
    if (batches.empty() || batches.back().size() == 64) batches.emplace_back();
    const uint64_t lo = i * kStride + 1 + (i % 5) * 3;
    const uint64_t hi = lo + 100 + (i % 11) * 80;
    batches.back().push_back({EncodeKeyBE(lo), EncodeKeyBE(hi)});
  }
  for (QueryBatch& batch : batches) std::reverse(batch.begin(), batch.end());
  std::vector<MultiSeekResult> results;
  auto run = [&] {
    uint64_t found = 0;
    for (const QueryBatch& batch : batches) {
      db->MultiSeek(batch, &results);
      for (const MultiSeekResult& r : results) found += r.found;
    }
    return found;
  };
  ASSERT_EQ(run(), 0u);  // warm-up: buffers grow, blocks get cached
  const DbStats warm = db->stats();
  const uint64_t before = t_allocations;
  ASSERT_EQ(run(), 0u);
  const uint64_t allocations = t_allocations - before;
  EXPECT_GT(db->stats().sst_seeks, warm.sst_seeks);
  EXPECT_EQ(db->stats().read_errors, 0u);
  if (kSanitized && !CountingWorks()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; count not checked";
  }
  ASSERT_TRUE(CountingWorks());
  EXPECT_EQ(allocations, 0u) << "over " << batches.size() << " batches";
}

TEST(ReadAllocTest, FoundSeekAllocatesOnlyItsValue) {
  auto db = BuildDb("found");
  ASSERT_NE(db, nullptr);
  auto seek = [&db](uint64_t i) {
    const std::string key = EncodeKeyBE(i * kStride);
    const uint64_t before = t_allocations;
    SeekResult r = db->Seek(key, key);
    const uint64_t allocations = t_allocations - before;
    EXPECT_TRUE(r.found) << i;
    EXPECT_EQ(r.value, Value(i)) << i;
    return allocations;
  };
  for (uint64_t i = 0; i < kKeys + 50; i += 13) seek(i);  // warm-up
  uint64_t most = 0;
  for (uint64_t i = 0; i < kKeys + 50; i += 13) {
    most = std::max(most, seek(i));
  }
  if (kSanitized && !CountingWorks()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; count not checked";
  }
  ASSERT_TRUE(CountingWorks());
  EXPECT_LE(most, 1u);  // the result's value; the 8-byte key fits SSO
}

}  // namespace
}  // namespace proteus
