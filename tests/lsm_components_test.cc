// Unit tests for miniLSM's building blocks: skiplist, RLE codec, blocks,
// SST files, block cache, and the sample query queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lsm/block.h"
#include "lsm/block_cache.h"
#include "lsm/query_queue.h"
#include "lsm/rle.h"
#include "lsm/skiplist.h"
#include "lsm/sst.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

// One lookup through a fresh RangeCursor: the newest version visible at
// `snapshot` of the smallest key in [lo, hi] (0 = found, 1 = none, -1 =
// read error).
int SeekInRange(const SstReader& reader, std::string_view lo,
                std::string_view hi, uint64_t snapshot,
                const BlockReadOptions& opts, SstReader::SeekEntry* out,
                Status* status = nullptr) {
  SstReader::RangeCursor cursor;
  cursor.Init(&reader, opts, snapshot);
  const int rc = cursor.Seek(lo, hi, status);
  if (rc == 0) *out = cursor.entry();
  return rc;
}


TEST(SkipListTest, AddGetOrdered) {
  SkipList list;
  Rng rng(1);
  std::map<std::string, std::string> ref;
  uint64_t seqno = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string k = EncodeKeyBE(rng.NextBelow(10000));
    std::string v = "v" + std::to_string(i);
    list.Add(k, ++seqno, v);
    ref[k] = v;
  }
  // Every Add is a new version; size counts versions, not keys.
  ASSERT_EQ(list.size(), 5000u);
  for (const auto& [k, v] : ref) {
    SkipList::Entry got;
    ASSERT_TRUE(list.Get(k, kMaxSequence, &got));
    EXPECT_EQ(got.value, v);  // newest version wins
  }
  // SeekGeq agrees with map::lower_bound (latest horizon).
  for (int i = 0; i < 2000; ++i) {
    std::string probe = EncodeKeyBE(rng.NextBelow(11000));
    SkipList::Entry e;
    auto it = ref.lower_bound(probe);
    if (it == ref.end()) {
      EXPECT_FALSE(list.SeekGeq(probe, kMaxSequence, &e));
    } else {
      ASSERT_TRUE(list.SeekGeq(probe, kMaxSequence, &e));
      EXPECT_EQ(e.key, it->first);
      EXPECT_EQ(e.value, it->second);
    }
  }
  // Ordered iteration: key ascending, seqno descending within a key.
  std::vector<std::pair<std::string, uint64_t>> order;
  list.ForEach([&](std::string_view k, uint64_t sq, std::string_view) {
    order.emplace_back(std::string(k), ~sq);  // flip so sorted = desc seqno
  });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 5000u);
  SkipList empty;
  EXPECT_EQ(empty.size(), 0u);
  SkipList::Entry e;
  EXPECT_FALSE(empty.SeekGeq("", kMaxSequence, &e));
}

TEST(SkipListTest, ByteCostAccounting) {
  SkipList list;
  // key.size() + value.size() + 8 bytes of seqno, per version added.
  EXPECT_EQ(list.Add("key", 1, "value"), 3 + 5 + 8);
  EXPECT_EQ(list.Add("key", 2, "valuelonger"), 3 + 11 + 8);
  EXPECT_EQ(list.size(), 2u);  // versions never overwrite
}

TEST(SkipListTest, SnapshotVisibility) {
  SkipList list;
  list.Add("k", 10, "v10");
  list.Add("k", 20, "v20");
  list.Add("k", 30, "v30");
  SkipList::Entry e;
  // A horizon between versions pins the newest at-or-below it.
  ASSERT_TRUE(list.Get("k", 25, &e));
  EXPECT_EQ(e.value, "v20");
  EXPECT_EQ(e.seqno, 20u);
  ASSERT_TRUE(list.Get("k", kMaxSequence, &e));
  EXPECT_EQ(e.value, "v30");
  // A horizon older than every version sees nothing.
  EXPECT_FALSE(list.Get("k", 9, &e));
  EXPECT_FALSE(list.SeekGeq("", 9, &e));
  // SeekGeq skips keys whose every version is too new.
  list.Add("a", 50, "new-only");
  ASSERT_TRUE(list.SeekGeq("", 25, &e));
  EXPECT_EQ(e.key, "k");
  EXPECT_EQ(e.value, "v20");
}

TEST(Rle, RoundTripPayloads) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::string input;
    size_t len = rng.NextBelow(4096);
    for (size_t i = 0; i < len; ++i) {
      // Mix of zero runs and random bytes.
      if (rng.NextBelow(3) == 0) {
        input.append(rng.NextBelow(64), '\0');
      } else {
        input.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    }
    std::string compressed = RleCompress(input);
    std::string output;
    ASSERT_TRUE(RleDecompress(compressed, &output));
    ASSERT_EQ(output, input);
  }
}

TEST(Rle, HalfZeroPayloadCompressesToHalf) {
  // The paper's value layout: 512 bytes, first half zero (Section 6.2),
  // giving a compression ratio of ~0.5.
  std::string value(512, '\0');
  Rng rng(3);
  for (size_t i = 256; i < 512; ++i) {
    value[i] = static_cast<char>(1 + rng.NextBelow(255));
  }
  std::string compressed = RleCompress(value);
  double ratio = static_cast<double>(compressed.size()) / value.size();
  EXPECT_LT(ratio, 0.55);
  EXPECT_GT(ratio, 0.45);
}

TEST(Rle, IncompressibleFallsBackToRaw) {
  Rng rng(4);
  std::string input;
  for (int i = 0; i < 1000; ++i) {
    input.push_back(static_cast<char>(1 + rng.NextBelow(255)));
  }
  std::string compressed = RleCompress(input);
  EXPECT_LE(compressed.size(), input.size() + 1);
  std::string output;
  ASSERT_TRUE(RleDecompress(compressed, &output));
  EXPECT_EQ(output, input);
}

TEST(Rle, RejectsCorruptedInput) {
  std::string compressed = RleCompress(std::string(100, 'x'));
  std::string out;
  EXPECT_FALSE(RleDecompress("", &out));
  std::string bad = compressed;
  bad[0] = 7;  // invalid tag
  EXPECT_FALSE(RleDecompress(bad, &out));
  std::string truncated = compressed.substr(0, compressed.size() / 2);
  // Either detected as malformed or yields a wrong-size payload.
  if (RleDecompress(truncated, &out)) {
    EXPECT_NE(out.size(), 100u);
  }
}

TEST(Block, BuildAndSearch) {
  BlockBuilder builder;
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(EncodeKeyBE(i * 10));
  }
  for (const auto& k : keys) builder.Add(k, "val" + k);
  BlockReader reader;
  ASSERT_TRUE(reader.Init(builder.Finish()));
  ASSERT_EQ(reader.n_entries(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reader.KeyAt(i), keys[i]);
    EXPECT_EQ(reader.ValueAt(i), "val" + keys[i]);
  }
  // LowerBound: exact hits and gaps.
  EXPECT_EQ(reader.LowerBound(EncodeKeyBE(0)), 0u);
  EXPECT_EQ(reader.LowerBound(EncodeKeyBE(55)), 6u);   // between 50 and 60
  EXPECT_EQ(reader.LowerBound(EncodeKeyBE(1990)), 199u);
  EXPECT_EQ(reader.LowerBound(EncodeKeyBE(99999)), reader.n_entries());
}

// Init verifies the in-block checksum, the payload's last four bytes: a
// changed entry byte or a changed stored checksum fails it, and the
// reader is left empty. (An SST read checks the handle CRC first; this
// is the check after it.)
TEST(Block, ChecksumDetectsCorruption) {
  BlockBuilder builder;
  builder.Add("aaa", "1");
  builder.Add("bbb", "2");
  const std::string good = builder.Finish();
  for (size_t pos : {size_t{2}, good.size() - 4, good.size() - 1}) {
    std::string payload = good;
    payload[pos] ^= 0x40;
    BlockReader reader;
    EXPECT_FALSE(reader.Init(std::move(payload))) << pos;
    EXPECT_EQ(reader.n_entries(), 0u) << pos;
  }
  BlockReader reader;
  ASSERT_TRUE(reader.Init(good));
  EXPECT_EQ(reader.n_entries(), 2u);
}

TEST(Sst, WriteReadRoundTrip) {
  std::string path = "/tmp/proteus_test_sst_1.sst";
  SstWriter::Options wopts;
  wopts.block_size = 512;  // force many blocks
  SstWriter writer(path, wopts);
  std::map<std::string, std::string> ref;
  for (uint64_t i = 0; i < 3000; ++i) {
    std::string k = EncodeKeyBE(i * 7 + 1);
    std::string v = "value" + std::to_string(i);
    // An SST value is tag | seqno | user bytes.
    writer.Add(k, MakeSstValueV4(kTagValue, i + 1, v));
    ref[k] = v;
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.n_entries(), 3000u);
  EXPECT_EQ(writer.smallest(), EncodeKeyBE(1));
  EXPECT_EQ(writer.largest(), EncodeKeyBE(2999 * 7 + 1));

  BlockCache cache(1 << 20);
  SstReader reader;
  ASSERT_TRUE(reader.Open(path, 1, &cache).ok());
  ASSERT_EQ(reader.n_entries(), 3000u);
  EXPECT_GT(reader.n_blocks(), 10u);

  // Lookups across hits, gaps, and misses (latest horizon).
  const BlockReadOptions bro;
  SstReader::SeekEntry se;
  EXPECT_EQ(SeekInRange(reader, EncodeKeyBE(1), EncodeKeyBE(1), kMaxSequence,
                        bro, &se),
            0);
  EXPECT_EQ(se.key, EncodeKeyBE(1));
  EXPECT_EQ(SeekInRange(reader, EncodeKeyBE(2), EncodeKeyBE(7), kMaxSequence,
                        bro, &se),
            1);
  EXPECT_EQ(SeekInRange(reader, EncodeKeyBE(2), EncodeKeyBE(8), kMaxSequence,
                        bro, &se),
            0);
  EXPECT_EQ(se.key, EncodeKeyBE(8));
  EXPECT_EQ(SeekInRange(reader, EncodeKeyBE(999999), EncodeKeyBE(9999999),
                        kMaxSequence, bro, &se),
            1);

  // Full scan via the iterator matches the reference map (iterator
  // yields the raw stored bytes).
  SstReader::Iterator it(&reader);
  auto ref_it = ref.begin();
  size_t n = 0;
  for (; it.Valid(); it.Next(), ++ref_it, ++n) {
    ASSERT_NE(ref_it, ref.end());
    ASSERT_EQ(it.key(), ref_it->first);
    ParsedValue parsed;
    ASSERT_TRUE(ParseSstValue(it.value(), &parsed));
    ASSERT_EQ(parsed.user_value, ref_it->second);
  }
  EXPECT_EQ(n, ref.size());
  ::unlink(path.c_str());
}

TEST(Sst, MultiVersionSnapshotResolution) {
  // A file may hold several versions of one key, newest first; the
  // reader resolves visibility against the caller's horizon.
  std::string path = "/tmp/proteus_test_sst_mv.sst";
  SstWriter writer(path, SstWriter::Options{});
  writer.Add("k", MakeSstValueV4(kTagValue, 30, "v30"));
  writer.Add("k", MakeSstValueV4(kTagTombstone, 20, ""));
  writer.Add("k", MakeSstValueV4(kTagValue, 10, "v10"));
  writer.Add("z", MakeSstValueV4(kTagValue, 40, "z40"));
  ASSERT_TRUE(writer.Finish().ok());

  BlockCache cache(1 << 20);
  SstReader reader;
  ASSERT_TRUE(reader.Open(path, 3, &cache).ok());
  const BlockReadOptions bro;
  SstReader::SeekEntry se;
  ASSERT_EQ(SeekInRange(reader, "a", "zz", kMaxSequence, bro, &se), 0);
  EXPECT_EQ(se.value, "v30");
  EXPECT_EQ(se.seqno, 30u);
  EXPECT_FALSE(se.tombstone);
  // Horizon 25 sees the tombstone (newest visible version of "k").
  ASSERT_EQ(SeekInRange(reader, "a", "zz", 25, bro, &se), 0);
  EXPECT_TRUE(se.tombstone);
  EXPECT_EQ(se.seqno, 20u);
  // Horizon 15 sees v10.
  ASSERT_EQ(SeekInRange(reader, "a", "zz", 15, bro, &se), 0);
  EXPECT_EQ(se.value, "v10");
  // Horizon 5: every version of "k" is invisible; nothing else <= 5.
  EXPECT_EQ(SeekInRange(reader, "a", "zz", 5, bro, &se), 1);
  // Horizon 35: past "k", the only remaining key is "z"@40 — invisible.
  ASSERT_EQ(
      SeekInRange(reader, std::string("k\0", 2), "zz", 35, bro, &se), 1);
  ::unlink(path.c_str());
}

TEST(Sst, CompressedBlocks) {
  std::string path = "/tmp/proteus_test_sst_2.sst";
  SstWriter::Options wopts;
  wopts.compress = true;
  SstWriter writer(path, wopts);
  // Highly compressible values: mostly zeros.
  for (uint64_t i = 0; i < 1000; ++i) {
    writer.Add(EncodeKeyBE(i),
               MakeSstValueV4(kTagValue, i + 1, std::string(256, '\0') + "x"));
  }
  ASSERT_TRUE(writer.Finish().ok());
  // On-disk size far below raw data size.
  EXPECT_LT(writer.file_size(), 1000 * 260 / 2);
  BlockCache cache(1 << 20);
  SstReader reader;
  ASSERT_TRUE(reader.Open(path, 2, &cache).ok());
  SstReader::SeekEntry se;
  ASSERT_EQ(SeekInRange(reader, EncodeKeyBE(500), EncodeKeyBE(500),
                        kMaxSequence, BlockReadOptions{}, &se),
            0);
  EXPECT_EQ(se.value, std::string(256, '\0') + "x");
  ::unlink(path.c_str());
}

TEST(BlockCacheTest, LruEviction) {
  BlockCache cache(1000);
  auto block = [](size_t n) {
    return std::make_shared<const std::string>(std::string(n, 'b'));
  };
  cache.Insert(1, 0, block(400));
  cache.Insert(1, 400, block(400));
  EXPECT_NE(cache.Get(1, 0), nullptr);      // touch -> MRU
  cache.Insert(1, 800, block(400));          // evicts (1,400)
  EXPECT_NE(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(1, 400), nullptr);
  EXPECT_NE(cache.Get(1, 800), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.used_bytes(), 1000u);
}

TEST(BlockCacheTest, EraseFile) {
  BlockCache cache(10000);
  cache.Insert(7, 0, std::make_shared<const std::string>("abc"));
  cache.Insert(8, 0, std::make_shared<const std::string>("def"));
  cache.EraseFile(7);
  EXPECT_EQ(cache.Get(7, 0), nullptr);
  EXPECT_NE(cache.Get(8, 0), nullptr);
}

TEST(QueryQueueTest, ReservoirEvictionAndSampling) {
  SampleQueryQueue::Options opts;
  opts.capacity = 10;
  opts.sample_rate = 3;
  SampleQueryQueue queue(opts);
  for (int i = 0; i < 6000; ++i) {
    queue.OnEmptyQuery("lo" + std::to_string(i), "hi" + std::to_string(i));
  }
  // Every 3rd of 6000 queries = 2000 recorded; the reservoir never grows
  // past capacity, and the monotonic counters see everything.
  EXPECT_EQ(queue.size(), 10u);
  EXPECT_EQ(queue.seen(), 6000u);
  EXPECT_EQ(queue.sampled(), 2000u);
  // Geometric decay: the window is dominated by recent traffic. With
  // 2000 samples through 10 slots, expecting all survivors from the
  // last three quarters is conservative (P[slot older than 500 samples]
  // = 0.9^500 per slot).
  for (const auto& [lo, hi] : queue.Snapshot()) {
    EXPECT_GE(std::stoi(lo.substr(2)), 6000 / 4) << lo;
  }
}

TEST(QueryQueueTest, ZeroCapacityNeverGrows) {
  SampleQueryQueue::Options opts;
  opts.capacity = 0;
  opts.sample_rate = 1;
  SampleQueryQueue queue(opts);
  for (int i = 0; i < 100; ++i) queue.OnEmptyQuery("a", "b");
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.sampled(), 100u);  // signature still tracks the stream
  EXPECT_GE(queue.Signature(), 0.0);
}

TEST(QueryQueueTest, OneThreadSamplesEveryRateThQueryInOrder) {
  SampleQueryQueue::Options opts;
  opts.capacity = 1000;
  opts.sample_rate = 7;
  SampleQueryQueue queue(opts);
  for (int i = 1; i <= 700; ++i) {
    EXPECT_EQ(queue.OnEmptyQuery(std::to_string(i), "z"), i % 7 == 0) << i;
  }
  const auto window = queue.Snapshot();
  ASSERT_EQ(window.size(), 100u);
  for (size_t j = 0; j < window.size(); ++j) {
    EXPECT_EQ(window[j].first, std::to_string(7 * (j + 1)));
  }
}

TEST(QueryQueueTest, ConcurrentCallersAreEachCountedOnce) {
  SampleQueryQueue::Options opts;
  opts.sample_rate = 100;
  SampleQueryQueue queue(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&queue, t] {
      const std::string lo = "lo" + std::to_string(t);
      for (int i = 0; i < 25000; ++i) queue.OnEmptyQuery(lo, "hi");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(queue.seen(), 100000u);
  EXPECT_EQ(queue.sampled(), 1000u);
  EXPECT_EQ(queue.size(), 1000u);
}

TEST(QueryQueueTest, ZeroRateSamplesNothing) {
  SampleQueryQueue::Options opts;
  opts.sample_rate = 0;
  SampleQueryQueue queue(opts);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(queue.OnEmptyQuery("a", "b"));
  EXPECT_EQ(queue.seen(), 10u);
  EXPECT_EQ(queue.sampled(), 0u);
}

TEST(QueryQueueTest, SeedBypassesSampling) {
  SampleQueryQueue queue;
  queue.Seed({{"a", "b"}, {"c", "d"}});
  EXPECT_EQ(queue.size(), 2u);
}

}  // namespace
}  // namespace proteus
