#include "lsm/db.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/filter.h"
#include "util/bits.h"
#include "util/crc32c.h"
#include "util/posix_io.h"
#include "util/serial.h"
#include "util/timer.h"

namespace proteus {

// Abstract sorted stream of entry versions (key asc, seqno desc) feeding
// WriteSstFiles. tag()/user_value() are the decoded form regardless of
// the source's on-disk encoding.
class EntrySource {
 public:
  virtual ~EntrySource() = default;
  virtual bool Valid() const = 0;
  virtual std::string_view key() const = 0;
  virtual uint64_t seqno() const = 0;
  virtual uint8_t tag() const = 0;
  virtual std::string_view user_value() const = 0;
  virtual void Next() = 0;
  virtual Status status() const = 0;
};

namespace {

constexpr size_t kMaxLevels = 8;

// MANIFEST (byte-accurate spec in docs/FORMAT.md): one CRC32C-framed
// snapshot record naming every live SST with its level. Every tree edit
// (flush, compaction, redesign) and every clean close rewrites it whole:
// MANIFEST.tmp, fsync, rename over MANIFEST, directory fsync.
//
//   record  := length u32 | crc32c(payload) u32 | payload[length]
//   payload := kind u8 (1) | magic u64 | version u64 |
//              next_file_id u64 | last_seqno u64 |
//              n_levels u64 | per level: n_files u64, file*
//   file := id u64 | smallest lp | largest lp | n_entries u64 |
//           file_size u64 |      (lp = u64 length + raw bytes)
//           design_epoch u64 | modeled_fpr f64 |
//           design_signature f64 | design_samples u64 |
//           checks u64 | probes u64 | false_positives u64
//           (f64 = IEEE-754 bit pattern as fixed u64; -1.0 = none)
//
// A record of any other version is refused as NotSupported; version 4
// had the same payload but could be followed by delta records.
constexpr uint64_t kManifestMagic = 0x494E414D544F5250ull;  // "PROTMANI"
constexpr uint64_t kManifestVersion = 5;
constexpr uint8_t kManifestRecordSnapshot = 1;

void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

uint64_t DoubleBits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double BitsToDouble(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

void WipeDbFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    const bool sst =
        name.size() > 4 && name.substr(name.size() - 4) == ".sst";
    // "WAL" alone is the unnumbered log of older builds: left behind,
    // it would fail the next Open.
    const bool wal = name.rfind("WAL-", 0) == 0 || name == "WAL";
    if (sst || wal) ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::unlink((dir + "/MANIFEST").c_str());
  ::unlink((dir + "/MANIFEST.tmp").c_str());
}

/// Parses a WAL file name "WAL-<n>" into its segment number n. Returns
/// false for anything else.
bool ParseWalName(const std::string& name, uint64_t* number) {
  if (name.rfind("WAL-", 0) != 0) return false;
  const std::string digits = name.substr(4);
  if (digits.empty()) return false;
  char* end = nullptr;
  const uint64_t n = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || n == 0) return false;
  *number = n;
  return true;
}

/// K-way merge over immutable memtables (the flush path): each
/// memtable's skiplist streams its own (key asc, seqno desc) order, and
/// the merge interleaves them into ONE sorted stream. (key, seqno) pairs
/// are globally unique — the leader assigns each seqno once — so the
/// merge is deterministic. The iterators point into skiplist nodes the
/// caller keeps alive.
class MemTableMergeSource : public EntrySource {
 public:
  /// Add every immutable memtable's list, then Init().
  void Add(const SkipList* list) {
    Item item{SkipList::Iterator(list), kTagValue, {}};
    DecodeItem(&item);
    items_.push_back(std::move(item));
  }
  void Init() { FindBest(); }

  bool Valid() const override { return best_ >= 0; }
  std::string_view key() const override { return items_[best_].it.key(); }
  uint64_t seqno() const override { return items_[best_].it.seqno(); }
  uint8_t tag() const override { return items_[best_].tag; }
  std::string_view user_value() const override {
    return items_[best_].user_value;
  }
  void Next() override {
    Item& item = items_[best_];
    item.it.Next();
    DecodeItem(&item);
    FindBest();
  }
  Status status() const override { return Status::OK(); }

 private:
  struct Item {
    SkipList::Iterator it;
    uint8_t tag;
    std::string_view user_value;
  };

  void DecodeItem(Item* item) {
    // A malformed internal value cannot round-trip out of the arena
    // (writes always store tag|user); skip defensively like the old
    // materializing path did.
    while (item->it.Valid() &&
           !ParseInternalValue(item->it.value(), &item->tag,
                               &item->user_value)) {
      item->it.Next();
    }
  }

  void FindBest() {
    best_ = -1;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (!items_[i].it.Valid()) continue;
      if (best_ < 0) {
        best_ = static_cast<int>(i);
        continue;
      }
      const Item& a = items_[i];
      const Item& b = items_[static_cast<size_t>(best_)];
      const int c = a.it.key().compare(b.it.key());
      if (c < 0 || (c == 0 && a.it.seqno() > b.it.seqno())) {
        best_ = static_cast<int>(i);
      }
    }
  }

  std::vector<Item> items_;
  int best_ = -1;
};

/// K-way merge over SST iterators in (key asc, seqno desc) order. Equal
/// (key, seqno) pairs across sources are ONE logical write seen through
/// several files (crash-replay overlap), so their bytes are identical:
/// one copy is emitted and every input steps past it.
class MergeSource : public EntrySource {
 public:
  void Add(const SstReader* reader) {
    items_.push_back(Item{SstReader::Iterator(reader), {}});
    DecodeItem(&items_.back());
  }
  void Init() { FindBest(); }

  bool Valid() const override { return best_ >= 0 && decode_error_.ok(); }
  std::string_view key() const override { return items_[best_].it.key(); }
  uint64_t seqno() const override { return items_[best_].parsed.seqno; }
  uint8_t tag() const override { return items_[best_].parsed.tag; }
  std::string_view user_value() const override {
    return items_[best_].parsed.user_value;
  }

  void Next() override {
    const std::string cur_key(items_[best_].it.key());
    const uint64_t cur_seq = items_[best_].parsed.seqno;
    for (auto& item : items_) {
      if (item.it.Valid() && item.it.key() == cur_key &&
          item.parsed.seqno == cur_seq) {
        item.it.Next();
        DecodeItem(&item);
      }
    }
    FindBest();
  }

  /// First failure across the inputs. A merge that ends with a non-OK
  /// status stopped early and MUST NOT be committed: the missing entries
  /// would otherwise be dropped and their file unlinked.
  Status status() const override {
    if (!decode_error_.ok()) return decode_error_;
    for (const auto& item : items_) {
      if (!item.it.status().ok()) return item.it.status();
    }
    return Status::OK();
  }

 private:
  struct Item {
    SstReader::Iterator it;
    ParsedValue parsed;
  };

  void DecodeItem(Item* item) {
    if (!item->it.Valid()) return;
    if (!ParseSstValue(item->it.value(), &item->parsed)) {
      decode_error_ = Status::Corruption("SST value malformed during merge");
    }
  }

  void FindBest() {
    best_ = -1;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (!items_[i].it.Valid()) continue;
      if (best_ < 0) {
        best_ = static_cast<int>(i);
        continue;
      }
      const Item& a = items_[i];
      const Item& b = items_[static_cast<size_t>(best_)];
      const int c = a.it.key().compare(b.it.key());
      if (c < 0 || (c == 0 && a.parsed.seqno > b.parsed.seqno)) {
        best_ = static_cast<int>(i);
      }
    }
  }

  std::vector<Item> items_;
  Status decode_error_;
  int best_ = -1;
};

/// The MVCC garbage-collection filter: of each key's version run
/// (newest first), keeps the newest version per live-snapshot stripe and
/// drops the rest. With `drop_tombstones` (bottom-level compaction), a
/// key whose newest surviving version is a tombstone no snapshot
/// predates is dropped entirely — every live horizon sees it deleted.
class CollapseSource : public EntrySource {
 public:
  CollapseSource(EntrySource& in, std::vector<uint64_t> snapshots,
                 bool drop_tombstones)
      : in_(in),
        snapshots_(std::move(snapshots)),
        drop_tombstones_(drop_tombstones) {
    Advance();
  }

  bool Valid() const override { return valid_ && in_.status().ok(); }
  std::string_view key() const override { return in_.key(); }
  uint64_t seqno() const override { return in_.seqno(); }
  uint8_t tag() const override { return in_.tag(); }
  std::string_view user_value() const override { return in_.user_value(); }
  void Next() override {
    in_.Next();
    Advance();
  }
  Status status() const override { return in_.status(); }

 private:
  // Index of the first live snapshot >= seqno. Two versions of a key in
  // the same stripe are indistinguishable to every live horizon, so only
  // the newer one survives; a smaller stripe means some snapshot pins
  // the older version.
  size_t Stripe(uint64_t seqno) const {
    return static_cast<size_t>(
        std::lower_bound(snapshots_.begin(), snapshots_.end(), seqno) -
        snapshots_.begin());
  }
  bool NoSnapshotBelow(uint64_t seqno) const {
    return snapshots_.empty() || snapshots_.front() >= seqno;
  }

  void Advance() {
    valid_ = false;
    while (in_.Valid()) {
      const uint64_t sq = in_.seqno();
      if (!have_prev_ || in_.key() != prev_key_) {
        // Newest version of a new key.
        prev_key_.assign(in_.key());
        have_prev_ = true;
        prev_seqno_ = sq;
        prev_stripe_ = Stripe(sq);
        if (drop_tombstones_ && in_.tag() == kTagTombstone &&
            NoSnapshotBelow(sq)) {
          // The deletion is final for every live horizon; the shadow
          // state above makes the stripe test drop the older versions.
          in_.Next();
          continue;
        }
        valid_ = true;
        return;
      }
      // An older version of the same key.
      if (sq == prev_seqno_) {  // one write seen twice: keep one copy
        in_.Next();
        continue;
      }
      const size_t stripe = Stripe(sq);
      if (stripe == prev_stripe_) {  // no snapshot between the two versions
        in_.Next();
        continue;
      }
      prev_seqno_ = sq;
      prev_stripe_ = stripe;
      valid_ = true;
      return;
    }
  }

  EntrySource& in_;
  const std::vector<uint64_t> snapshots_;  // sorted ascending
  const bool drop_tombstones_;
  bool valid_ = false;
  bool have_prev_ = false;
  std::string prev_key_;
  uint64_t prev_seqno_ = 0;
  size_t prev_stripe_ = 0;
};

/// A counter incremented from many threads without ordering needs.
struct RelaxedCounter {
  std::atomic<uint64_t> v{0};
  void operator++() { v.fetch_add(1, std::memory_order_relaxed); }
  void operator+=(uint64_t n) { v.fetch_add(n, std::memory_order_relaxed); }
  uint64_t load() const { return v.load(std::memory_order_relaxed); }
  void reset() { v.store(0, std::memory_order_relaxed); }
};

#define PROTEUS_DB_STAT_FIELDS(X)                                      \
  X(puts)                                                              \
  X(deletes)                                                           \
  X(seeks)                                                             \
  X(empty_seeks)                                                       \
  X(filter_checks)                                                     \
  X(filter_negatives)                                                  \
  X(sst_seeks)                                                         \
  X(false_positive_files)                                              \
  X(read_errors)                                                       \
  X(flushes)                                                           \
  X(compactions)                                                       \
  X(filter_build_ns)                                                   \
  X(filter_bits_built)                                                 \
  X(filter_loads)                                                      \
  X(filter_rebuilds)                                                   \
  X(wal_replayed)                                                      \
  X(wal_rotations)                                                     \
  X(queue_sampled)                                                     \
  X(write_stalls)                                                      \
  X(stall_wait_us)                                                     \
  X(drift_detected)                                                    \
  X(redesigns)

}  // namespace

// Relaxed-atomic mirror of DbStats; stats() copies it out field by field.
struct Db::AtomicStats {
#define PROTEUS_DB_STAT_DEF(name) RelaxedCounter name;
  PROTEUS_DB_STAT_FIELDS(PROTEUS_DB_STAT_DEF)
#undef PROTEUS_DB_STAT_DEF

  DbStats Snapshot() const {
    DbStats out;
#define PROTEUS_DB_STAT_COPY(name) out.name = name.load();
    PROTEUS_DB_STAT_FIELDS(PROTEUS_DB_STAT_COPY)
#undef PROTEUS_DB_STAT_COPY
    return out;
  }

  void Reset() {
#define PROTEUS_DB_STAT_RESET(name) name.reset();
    PROTEUS_DB_STAT_FIELDS(PROTEUS_DB_STAT_RESET)
#undef PROTEUS_DB_STAT_RESET
  }
};

Db::FileMeta::~FileMeta() {
  reader.reset();  // close the fd before the path may be unlinked
  if (obsolete.load(std::memory_order_relaxed)) ::unlink(path.c_str());
}

Db::Db(DbOptions options)
    : options_(std::move(options)),
      cache_(options_.block_cache_bytes),
      query_queue_(options_.queue_options),
      stats_(std::make_unique<AtomicStats>()) {
  ::mkdir(options_.dir.c_str(), 0755);
  auto v = std::make_shared<Version>();
  v->levels.resize(kMaxLevels);
  version_ = std::move(v);
  mem_ = std::make_shared<MemTable>();
  compact_cursor_.resize(kMaxLevels, 0);
  bg_thread_ = std::thread([this] { BackgroundThread(); });
}

std::pair<std::unique_ptr<Db>, Status> Db::Create(DbOptions options) {
  std::unique_ptr<Db> db(new Db(std::move(options)));
  WipeDbFiles(db->options_.dir);
  db->wal_ = std::make_unique<WalWriter>();
  db->wal_number_ = 1;
  db->mem_->wal_segment = 1;
  Status s = db->wal_->Open(db->WalSegmentPath(1));
  if (!s.ok()) {
    db->StopBackgroundThread(&db->crashed_);  // dtor: no flush
    return {nullptr, s};
  }
  return {std::move(db), Status::OK()};
}

std::pair<std::unique_ptr<Db>, Status> Db::Open(DbOptions options) {
  std::unique_ptr<Db> db(new Db(std::move(options)));
  // Builds the WAL writer once the existing segments are replayed.
  Status s = db->RecoverAll();
  if (!s.ok()) {
    // Don't flush a half-recovered state on destruction.
    db->StopBackgroundThread(&db->crashed_);
    return {nullptr, s};
  }
  return {std::move(db), Status::OK()};
}

Db::~Db() {
  StopBackgroundThread(&closing_);
  if (!crashed_.load(std::memory_order_relaxed)) {
    // Lossless close: persist the memtables and the manifest. A failure
    // here cannot be returned; it is still recoverable from the WAL.
    Status s = Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "proteus: flush on close failed: %s\n",
                   s.ToString().c_str());
    }
    // The observed-FPR counters advance on reads, which write no
    // MANIFEST; one final write carries the drift evidence across a
    // clean reopen. Best-effort: losing it only resets the counters.
    std::lock_guard<std::mutex> mlock(maint_mu_);
    Status ms = WriteManifest(CurrentVersion()->levels);
    if (!ms.ok()) {
      std::fprintf(stderr, "proteus: manifest write on close failed: %s\n",
                   ms.ToString().c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status Db::Put(std::string_view key, std::string_view value) {
  return WriteInternal(kTagValue, key, value);
}

Status Db::Delete(std::string_view key) {
  return WriteInternal(kTagTombstone, key, {});
}

Status Db::WriteInternal(uint8_t tag, std::string_view key,
                         std::string_view value) {
  Writer w;
  w.tag = tag;
  w.key = key;
  w.value = value;

  std::unique_lock<std::mutex> qlock(write_mu_);
  write_queue_.push_back(&w);
  // Wait until a leader commits this write, or we reach the front and
  // become the leader of everything queued behind us.
  write_cv_.wait(qlock, [&] { return w.done || write_queue_.front() == &w; });
  if (w.done) return w.status;

  std::vector<Writer*> batch(write_queue_.begin(), write_queue_.end());
  qlock.unlock();

  bool need_maintenance = false;
  Status s = CommitBatch(batch, &need_maintenance);

  qlock.lock();
  for (size_t i = 0; i < batch.size(); ++i) write_queue_.pop_front();
  for (Writer* other : batch) {
    if (other == &w) continue;
    other->status = s;
    other->done = true;
  }
  qlock.unlock();
  // Wakes both the batch's writers and the next leader.
  write_cv_.notify_all();

  if (need_maintenance) MaybeScheduleMaintenance();
  return s;
}

Status Db::CommitBatch(const std::vector<Writer*>& batch,
                       bool* need_maintenance) {
  *need_maintenance = false;

  {
    // Backpressure BEFORE entering the pipeline: while the flusher is
    // behind, stalling here keeps memory bounded without blocking
    // readers or the flusher itself.
    std::unique_lock<std::mutex> bl(bg_mu_);
    if (ImmCount() >= options_.max_immutable_memtables) {
      ++stats_->write_stalls;
      Stopwatch timer;
      bg_cv_.wait(bl, [&] {
        // After an error the flush will not come.
        return Stopping() || !bg_error_.ok() ||
               ImmCount() < options_.max_immutable_memtables;
      });
      stats_->stall_wait_us += timer.ElapsedNanos() / 1000;
    }
    if (!bg_error_.ok()) return bg_error_;  // rejected: NOT visible
  }

  std::lock_guard<std::mutex> plock(pipeline_mu_);
  // Re-check under the pipeline lock: TEST_CrashClose resets wal_ (and
  // sets crashed_) while holding it.
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("database is closed");
  }

  // Assign seqnos and build the one WAL append for the whole batch.
  const uint64_t first_seqno = next_seqno_;
  std::string buf;
  for (Writer* w : batch) {
    w->seqno = next_seqno_++;
    buf += EncodeWalRecord(
        w->tag == kTagValue ? kWalOpPutSeq : kWalOpDeleteSeq, w->seqno,
        w->key, w->value);
  }
  Status s = wal_->Append(buf, batch.size(), options_.wal_sync);
  if (!s.ok()) {
    next_seqno_ = first_seqno;  // nothing consumed them: reuse
    return s;  // not applied: a rejected write stays invisible
  }

  // Apply, in seqno order: the leader is the memtable's only writer.
  // mem_ is stable here: it changes only under pipeline_mu_ (held) plus
  // view_mu_.
  MemPtr mem = mem_;
  for (const Writer* w : batch) {
    mem->Add(w->key, w->seqno, w->tag, w->value);
    if (w->tag == kTagValue) {
      ++stats_->puts;
    } else {
      ++stats_->deletes;
    }
  }
  // Publish: every apply of the batch happened before this release
  // store, so a reader that acquires this seqno as its horizon can reach
  // every entry at or below it.
  last_seqno_.store(next_seqno_ - 1, std::memory_order_release);

  const bool mem_full =
      mem->bytes() >= static_cast<int64_t>(options_.memtable_bytes);
  const bool wal_full = wal_->file_bytes() >= options_.wal_segment_bytes;
  *need_maintenance = mem_full || wal_full;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Background maintenance
// ---------------------------------------------------------------------------

size_t Db::ImmCount() const {
  std::lock_guard<std::mutex> vl(view_mu_);
  return version_->imm.size();
}

Db::VersionPtr Db::CurrentVersion() const {
  std::lock_guard<std::mutex> vl(view_mu_);
  return version_;
}

std::vector<uint64_t> Db::LiveSnapshots() const {
  std::lock_guard<std::mutex> sl(snap_mu_);
  return std::vector<uint64_t>(live_snapshots_.begin(),
                               live_snapshots_.end());
}

std::shared_ptr<const Snapshot> Db::GetSnapshot() {
  const uint64_t seq = last_seqno_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> sl(snap_mu_);
    live_snapshots_.insert(seq);
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(seq), [this](const Snapshot* s) {
        {
          std::lock_guard<std::mutex> sl(snap_mu_);
          auto it = live_snapshots_.find(s->sequence());
          if (it != live_snapshots_.end()) live_snapshots_.erase(it);
        }
        delete s;
      });
}

bool Db::WorkPending() const {
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    if (mem_->bytes() >= static_cast<int64_t>(options_.memtable_bytes)) {
      return true;
    }
  }
  if (wal_->file_bytes() >= options_.wal_segment_bytes) return true;
  return PickCompaction(*CurrentVersion(), /*compact_all=*/false)
      .has_value();
}

void Db::MaybeScheduleMaintenance() {
  std::lock_guard<std::mutex> bl(bg_mu_);
  // A failed background job must not retry in a loop; writes are
  // rejected until an explicit Flush()/CompactAll() clears the error.
  if (Stopping() || !bg_error_.ok()) return;
  bg_requested_ = true;
  bg_cv_.notify_all();
}

void Db::BackgroundThread() {
  std::unique_lock<std::mutex> bl(bg_mu_);
  for (;;) {
    bg_cv_.wait(bl, [&] { return bg_requested_ || Stopping(); });
    // A request that arrives during the pass runs one more pass.
    bg_requested_ = false;
    if (Stopping()) break;
    bg_running_ = true;
    bl.unlock();
    {
      std::lock_guard<std::mutex> mlock(maint_mu_);
      while (!Stopping()) {
        PrepareFlush(/*force=*/false);
        Status s = RunMaintenanceLocked(/*compact_all=*/false);
        if (!s.ok()) {
          SetBackgroundError(s, /*clear_on_ok=*/false);
          break;
        }
        if (!WorkPending()) break;
      }
    }
    bl.lock();
    bg_running_ = false;
    bg_cv_.notify_all();
  }
  bg_cv_.notify_all();
}

void Db::StopBackgroundThread(std::atomic<bool>* flag) {
  {
    std::lock_guard<std::mutex> bl(bg_mu_);
    flag->store(true, std::memory_order_relaxed);
  }
  bg_cv_.notify_all();
  if (bg_thread_.joinable()) bg_thread_.join();
}

void Db::WaitForBackground() {
  std::unique_lock<std::mutex> bl(bg_mu_);
  bg_cv_.wait(bl, [&] { return !bg_requested_ && !bg_running_; });
}

bool Db::PrepareFlush(bool force) {
  std::lock_guard<std::mutex> plock(pipeline_mu_);
  if (wal_ == nullptr) return false;  // TEST_CrashClose dropped the log
  MemPtr cur;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    cur = mem_;
  }
  if (cur->size() == 0) return false;
  if (!force &&
      cur->bytes() < static_cast<int64_t>(options_.memtable_bytes) &&
      wal_->file_bytes() < options_.wal_segment_bytes) {
    return false;
  }
  // Rotate to a fresh WAL segment: the new memtable's writes start
  // there, so the old segments become deletable once the swapped-out
  // memtable reaches SSTs.
  const uint64_t next = wal_number_ + 1;
  Status s = wal_->Open(WalSegmentPath(next));
  if (!s.ok()) {
    // The writer closed the old fd already; appends now fail. Surface
    // the environment failure instead of swapping anyway.
    SetBackgroundError(std::move(s), /*clear_on_ok=*/false);
    return false;
  }
  wal_number_ = next;
  ++stats_->wal_rotations;
  auto fresh = std::make_shared<MemTable>();
  fresh->wal_segment = wal_number_;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    nv->imm.insert(nv->imm.begin(), cur);  // newest first
    version_ = std::move(nv);
    mem_ = std::move(fresh);
  }
  return true;
}

void Db::DeleteObsoleteWalSegments() {
  uint64_t floor;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    floor = mem_->wal_segment;
    for (const MemPtr& m : version_->imm) {
      floor = std::min(floor, m->wal_segment);
    }
  }
  DIR* d = ::opendir(options_.dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    uint64_t number;
    if (!ParseWalName(e->d_name, &number)) continue;
    if (number < floor) {
      ::unlink((options_.dir + "/" + e->d_name).c_str());
    }
  }
  ::closedir(d);
}

void Db::SetBackgroundError(Status s, bool clear_on_ok) {
  std::lock_guard<std::mutex> bl(bg_mu_);
  if (s.ok()) {
    if (clear_on_ok) bg_error_ = Status::OK();
    return;
  }
  bg_error_ = std::move(s);
  // No pass runs on a request made before the error, and stalled writers
  // wake to observe it.
  bg_requested_ = false;
  bg_cv_.notify_all();
}

Status Db::Flush() {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("database is closed");
  }
  PrepareFlush(/*force=*/true);
  std::lock_guard<std::mutex> mlock(maint_mu_);
  Status s = RunMaintenanceLocked(/*compact_all=*/false);
  SetBackgroundError(s, /*clear_on_ok=*/true);
  return s;
}

Status Db::CompactAll() {
  if (crashed_.load(std::memory_order_relaxed)) {
    return Status::IOError("database is closed");
  }
  PrepareFlush(/*force=*/true);
  std::lock_guard<std::mutex> mlock(maint_mu_);
  Status s = RunMaintenanceLocked(/*compact_all=*/true);
  SetBackgroundError(s, /*clear_on_ok=*/true);
  return s;
}

// ---------------------------------------------------------------------------
// SST building (the job body's writer; callers hold maint_mu_)
// ---------------------------------------------------------------------------

Status Db::FinishFile(SstWriter* writer, std::vector<std::string>* keys,
                      const std::string& path, int target_level,
                      FilePtr* out) {
  auto meta = std::make_shared<FileMeta>();
  meta->id = next_file_id_++;
  meta->path = path;
  meta->smallest = writer->smallest();
  meta->largest = writer->largest();
  meta->n_entries = writer->n_entries();
  meta->level = target_level;
  if (options_.filter_policy != nullptr) {
    // Capture the window state the design is about to consume — the
    // drift detector later compares the live window against it.
    const double design_signature = query_queue_.Signature();
    const uint64_t design_samples = query_queue_.sampled();
    if (BuildFilter(*keys, meta.get())) {
      meta->design_epoch = design_epoch_.load(std::memory_order_relaxed);
      meta->design_signature = design_signature;
      meta->design_samples = design_samples;
      // Persist the filter in the SST itself so reopening the database
      // deserializes it instead of rebuilding from keys.
      std::string blob;
      meta->filter->Serialize(&blob);
      writer->SetFilterBlock(std::move(blob), Filter::kVersion);
    }
  }
  Status s = writer->Finish();
  if (!s.ok()) return s;
  meta->file_size = writer->file_size();
  meta->reader = std::make_unique<SstReader>();
  s = meta->reader->Open(path, meta->id, &cache_);
  if (!s.ok()) return s;
  meta->reader->ReleaseFilterBlock();  // meta->filter is the live copy
  if (meta->filter != nullptr) ChargeFilter(*meta);
  *out = std::move(meta);
  return Status::OK();
}

bool Db::BuildFilter(const std::vector<std::string>& keys, FileMeta* meta) {
  Stopwatch timer;
  meta->filter = options_.filter_policy->Build(keys, query_queue_.Snapshot());
  stats_->filter_build_ns += timer.ElapsedNanos();
  if (meta->filter == nullptr) return false;
  stats_->filter_bits_built += meta->filter->SizeBits();
  meta->modeled_fpr = meta->filter->ModeledFpr().value_or(-1.0);
  return true;
}

void Db::ChargeFilter(const FileMeta& meta) {
  cache_.AddPinnedBytes(meta.id, meta.filter->SizeBits() / 8);
}

Status Db::WriteSstFiles(EntrySource& entries, int target_level,
                         size_t max_data_bytes, std::vector<FilePtr>* out) {
  SstWriter::Options wopts;
  wopts.block_size = options_.block_size;
  while (entries.Valid()) {
    std::string path =
        options_.dir + "/" + std::to_string(next_file_id_) + ".sst";
    SstWriter writer(path, wopts);
    std::vector<std::string> keys;  // distinct user keys, for the filter
    size_t data_bytes = 0;
    std::string last_key;
    while (entries.Valid()) {
      // Cut files only at user-key boundaries: splitting a version run
      // would make two adjacent sorted-level files overlap at a point.
      if (data_bytes >= max_data_bytes && entries.key() != last_key) break;
      const std::string value =
          MakeSstValueV4(entries.tag(), entries.seqno(),
                         entries.user_value());
      writer.Add(entries.key(), value);
      if (keys.empty() || keys.back() != entries.key()) {
        keys.emplace_back(entries.key());
      }
      data_bytes += entries.key().size() + value.size();
      last_key.assign(entries.key());
      entries.Next();
    }
    // An input that stopped on a read error invalidates the merge: fail
    // before this (incomplete) file can be finished and committed.
    Status in = entries.status();
    if (!in.ok()) return in;
    if (writer.n_entries() == 0) continue;
    FilePtr meta;
    Status s = FinishFile(&writer, &keys, path, target_level, &meta);
    if (!s.ok()) return s;
    out->push_back(std::move(meta));
  }
  return entries.status();
}

uint64_t Db::LevelLimitBytes(size_t level) const {
  double limit = static_cast<double>(options_.l1_size_bytes);
  for (size_t i = 1; i < level; ++i) limit *= options_.level_size_multiplier;
  return static_cast<uint64_t>(limit);
}

uint64_t Db::LevelBytes(const Version& v, size_t level) {
  uint64_t total = 0;
  for (const auto& f : v.levels[level]) total += f->file_size;
  return total;
}

bool Db::LevelsBelowEmpty(const Version& v, size_t first_level) {
  for (size_t level = first_level; level < v.levels.size(); ++level) {
    if (!v.levels[level].empty()) return false;
  }
  return true;
}

void Db::RetireFile(const FilePtr& f) {
  // The file object may outlive this call (in-flight ReadViews hold the
  // Version that references it); the unlink happens in ~FileMeta once
  // the last reference drops.
  f->obsolete.store(true, std::memory_order_relaxed);
  cache_.EraseFile(f->id);
}

// ---------------------------------------------------------------------------
// Maintenance jobs: one picker, one job body, one edit rule
// ---------------------------------------------------------------------------

std::optional<Db::Job> Db::PickCompaction(const Version& v,
                                          bool compact_all) const {
  Job job;
  if (!v.imm.empty()) {
    job.imm = v.imm;
    return job;
  }
  const auto& l0 = v.levels[0];
  if (!l0.empty() &&
      (compact_all ||
       static_cast<int>(l0.size()) >= options_.l0_compaction_trigger)) {
    job.inputs = l0;
    job.output = 1;
    job.drop_tombstones = LevelsBelowEmpty(v, 2);
    job.max_file_bytes = options_.sst_target_bytes;
    return job;
  }
  for (size_t level = 1; level + 1 < v.levels.size(); ++level) {
    if (LevelBytes(v, level) <= LevelLimitBytes(level)) continue;
    const size_t pick = compact_cursor_[level] % v.levels[level].size();
    job.level = level;
    job.inputs = {v.levels[level][pick]};
    job.output = level + 1;
    job.drop_tombstones = LevelsBelowEmpty(v, level + 2);
    job.max_file_bytes = options_.sst_target_bytes;
    job.next_cursor = pick + 1;
    return job;
  }
  if (compact_all || !options_.adaptive_redesign) return std::nullopt;
  for (size_t level = 0; level < v.levels.size(); ++level) {
    for (const auto& f : v.levels[level]) {
      if (!f->drift_flagged.load(std::memory_order_relaxed)) continue;
      // Same level, no size cap, and tombstones kept: the rewrite sees
      // one file, while other L0 files or deeper levels may still hold
      // the older versions a tombstone shadows.
      job.level = job.output = level;
      job.inputs = {f};
      return job;
    }
  }
  return std::nullopt;
}

Status Db::RunMaintenanceLocked(bool compact_all) {
  // Each job shrinks what picked it: a flush empties imm, a compaction
  // moves bytes down a level, and a redesign replaces a flagged file
  // with an unflagged one. So the loop ends.
  while (std::optional<Job> job = PickCompaction(*CurrentVersion(),
                                                 compact_all)) {
    Status s = RunJobLocked(*job);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status Db::RunJobLocked(const Job& job) {
  const bool flush = !job.imm.empty();
  const bool redesign = !flush && job.output == job.level;
  if (redesign) {
    // The point of a redesign is the new filter, built by re-running
    // Sample() -> Design() -> Build() against the live query window.
    // Bump the epoch first so the replacement's provenance outranks the
    // original.
    design_epoch_.fetch_add(1, std::memory_order_relaxed);
  } else if (!flush) {
    ++stats_->compactions;
    if (job.level >= 1) compact_cursor_[job.level] = job.next_cursor;
  }

  // The output-level files the inputs' key range overlaps join the merge.
  std::vector<FilePtr> overlaps;
  if (!flush && !redesign) {
    std::string smallest = job.inputs[0]->smallest;
    std::string largest = job.inputs[0]->largest;
    for (const auto& f : job.inputs) {
      smallest = std::min(smallest, f->smallest);
      largest = std::max(largest, f->largest);
    }
    // Hold the Version: a range-for over a member of the temporary
    // would outlive it once a concurrent flush swaps version_.
    const VersionPtr v = CurrentVersion();
    for (const auto& f : v->levels[job.output]) {
      if (f->largest >= smallest && f->smallest <= largest) {
        overlaps.push_back(f);
      }
    }
  }
  // A flush streams straight out of the skiplist nodes `job.imm` keeps
  // alive; everything else merges SSTs.
  MemTableMergeSource memtables;
  for (const MemPtr& m : job.imm) memtables.Add(&m->list());
  memtables.Init();
  MergeSource files;
  for (const auto& f : job.inputs) files.Add(f->reader.get());
  for (const auto& f : overlaps) files.Add(f->reader.get());
  files.Init();
  CollapseSource entries(
      flush ? static_cast<EntrySource&>(memtables) : files, LiveSnapshots(),
      job.drop_tombstones);
  std::vector<FilePtr> outputs;
  Status s = WriteSstFiles(entries, static_cast<int>(job.output),
                           job.max_file_bytes, &outputs);
  if (!s.ok()) return s;

  std::vector<FilePtr> retired = overlaps;
  retired.insert(retired.end(), job.inputs.begin(), job.inputs.end());
  // Maintenance alone edits the levels (under maint_mu_), so the lists
  // computed here are the ones installed below.
  std::vector<std::vector<FilePtr>> levels = CurrentVersion()->levels;
  ApplyEdit(retired, job.output, outputs, &levels);
  s = WriteManifest(levels);
  if (!s.ok()) return s;

  {
    std::lock_guard<std::mutex> vl(view_mu_);
    auto nv = std::make_shared<Version>(*version_);
    for (const MemPtr& m : job.imm) {
      nv->imm.erase(std::remove(nv->imm.begin(), nv->imm.end(), m),
                    nv->imm.end());
    }
    nv->levels = std::move(levels);
    version_ = std::move(nv);
  }
  // Obsolete files go away only after the MANIFEST without them is
  // durable — a crash in between must find a consistent (older) tree.
  for (const auto& f : retired) RetireFile(f);
  if (redesign) ++stats_->redesigns;
  if (flush) {
    ++stats_->flushes;
    {
      // Wakes a writer stalled on ImmCount() now, not after the rest of
      // the pass (or never, when an inline Flush() ran this job).
      std::lock_guard<std::mutex> bl(bg_mu_);
      bg_cv_.notify_all();
    }
    // Only now are the old WAL segments redundant: their records live
    // in fsync'd SSTs referenced by the durable MANIFEST.
    DeleteObsoleteWalSegments();
  }
  return Status::OK();
}

void Db::ApplyEdit(const std::vector<FilePtr>& retired, size_t output,
                   const std::vector<FilePtr>& added,
                   std::vector<std::vector<FilePtr>>* levels) {
  auto is_retired = [&](const FilePtr& f) {
    return std::find(retired.begin(), retired.end(), f) != retired.end();
  };
  auto& l0 = (*levels)[0];
  size_t l0_at = static_cast<size_t>(
      std::find_if(l0.begin(), l0.end(), is_retired) - l0.begin());
  if (l0_at == l0.size()) l0_at = 0;
  for (auto& level : *levels) {
    level.erase(std::remove_if(level.begin(), level.end(), is_retired),
                level.end());
  }
  auto& files = (*levels)[output];
  for (const auto& f : added) {
    if (output == 0) {
      files.insert(files.begin() + static_cast<ptrdiff_t>(l0_at++), f);
    } else {
      files.insert(std::upper_bound(files.begin(), files.end(), f,
                                    [](const FilePtr& a, const FilePtr& b) {
                                      return a->smallest < b->smallest;
                                    }),
                   f);
    }
  }
}

void Db::NoteFalsePositive(const FileMeta& f) {
  f.false_positives.fetch_add(1, std::memory_order_relaxed);

  if (!options_.adaptive_redesign || f.filter == nullptr) return;
  if (f.drift_flagged.load(std::memory_order_relaxed)) return;

  DriftSignal sig;
  sig.checks = f.checks.load(std::memory_order_relaxed);
  sig.probes = f.probes.load(std::memory_order_relaxed);
  sig.false_positives = f.false_positives.load(std::memory_order_relaxed);
  // Cheap pre-gate before touching the queue's mutex.
  if (sig.probes < options_.drift.min_probes) return;
  sig.modeled_fpr = f.modeled_fpr;
  sig.design_signature = f.design_signature;
  sig.live_signature = query_queue_.Signature();
  const uint64_t sampled = query_queue_.sampled();
  sig.window_samples =
      sampled > f.design_samples ? sampled - f.design_samples : 0;
  if (DetectDrift(sig, options_.drift) == DriftReason::kNone) return;

  bool expected = false;
  if (f.drift_flagged.compare_exchange_strong(expected, true,
                                              std::memory_order_relaxed)) {
    ++stats_->drift_detected;
    MaybeScheduleMaintenance();
  }
}

std::vector<Db::SstDesignInfo> Db::DesignInfo() const {
  VersionPtr v = CurrentVersion();
  std::vector<SstDesignInfo> out;
  for (const auto& level : v->levels) {
    for (const auto& f : level) {
      SstDesignInfo info;
      info.file_id = f->id;
      info.level = f->level;
      info.design_epoch = f->design_epoch;
      info.modeled_fpr = f->modeled_fpr;
      info.design_signature = f->design_signature;
      info.design_samples = f->design_samples;
      info.checks = f->checks.load(std::memory_order_relaxed);
      info.probes = f->probes.load(std::memory_order_relaxed);
      info.false_positives =
          f->false_positives.load(std::memory_order_relaxed);
      info.filter_bits = f->filter != nullptr ? f->filter->SizeBits() : 0;
      info.drift_flagged = f->drift_flagged.load(std::memory_order_relaxed);
      out.push_back(std::move(info));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// MANIFEST
// ---------------------------------------------------------------------------

void Db::EncodeFileMeta(std::string* out, const FileMeta& f) {
  PutFixed64(out, f.id);
  PutLengthPrefixed(out, f.smallest);
  PutLengthPrefixed(out, f.largest);
  PutFixed64(out, f.n_entries);
  PutFixed64(out, f.file_size);
  // Design provenance + observed-FPR counters. Persisting the probe
  // counters keeps drift evidence accumulating across clean reopens.
  PutFixed64(out, f.design_epoch);
  PutFixed64(out, DoubleBits(f.modeled_fpr));
  PutFixed64(out, DoubleBits(f.design_signature));
  PutFixed64(out, f.design_samples);
  PutFixed64(out, f.checks.load(std::memory_order_relaxed));
  PutFixed64(out, f.probes.load(std::memory_order_relaxed));
  PutFixed64(out, f.false_positives.load(std::memory_order_relaxed));
}

bool Db::DecodeFileMeta(std::string_view* cursor, FileMeta* f) {
  if (!GetFixed64(cursor, &f->id) ||
      !GetLengthPrefixed(cursor, &f->smallest) ||
      !GetLengthPrefixed(cursor, &f->largest) ||
      !GetFixed64(cursor, &f->n_entries) ||
      !GetFixed64(cursor, &f->file_size)) {
    return false;
  }
  uint64_t modeled_bits, signature_bits, checks, probes, fps;
  if (!GetFixed64(cursor, &f->design_epoch) ||
      !GetFixed64(cursor, &modeled_bits) ||
      !GetFixed64(cursor, &signature_bits) ||
      !GetFixed64(cursor, &f->design_samples) ||
      !GetFixed64(cursor, &checks) || !GetFixed64(cursor, &probes) ||
      !GetFixed64(cursor, &fps)) {
    return false;
  }
  f->modeled_fpr = BitsToDouble(modeled_bits);
  f->design_signature = BitsToDouble(signature_bits);
  f->checks.store(checks, std::memory_order_relaxed);
  f->probes.store(probes, std::memory_order_relaxed);
  f->false_positives.store(fps, std::memory_order_relaxed);
  return true;
}

Status Db::WriteManifest(const std::vector<std::vector<FilePtr>>& levels) {
  std::string payload;
  payload.push_back(static_cast<char>(kManifestRecordSnapshot));
  PutFixed64(&payload, kManifestMagic);
  PutFixed64(&payload, kManifestVersion);
  PutFixed64(&payload, next_file_id_);
  PutFixed64(&payload, last_seqno_.load(std::memory_order_acquire));
  PutFixed64(&payload, levels.size());
  for (const auto& level : levels) {
    PutFixed64(&payload, level.size());
    for (const auto& f : level) EncodeFileMeta(&payload, *f);
  }
  std::string record;
  AppendCrcFrame(&record, payload);

  // The SSTs named here are fsync'd; make their directory entries
  // durable before the MANIFEST starts referring to them.
  SyncDir(options_.dir);
  const std::string tmp = ManifestPath() + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Status::IOError(Errno("cannot create " + tmp));
  Status s = WriteAllFd(fd, record, "manifest write");
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IOError(Errno("manifest fsync failed"));
  }
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), ManifestPath().c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(Errno("cannot rename manifest into place"));
  }
  SyncDir(options_.dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery (single-threaded: runs before the Db is shared)
// ---------------------------------------------------------------------------

Status Db::RecoverManifest() {
  std::string content;
  bool found = false;
  Status read = ReadFileToString(ManifestPath(), &content, &found);
  if (!read.ok()) return read;
  if (!found) return Status::OK();  // empty db

  // Every write renames a complete, fsync'd record into place, so a cut
  // or changed byte anywhere is damage, never crash debris.
  if (content.size() < 8) return Status::Corruption("manifest cut short");
  const uint32_t length = LoadFixed32(content.data());
  const uint32_t crc = LoadFixed32(content.data() + 4);
  if (length > content.size() - 8) {
    return Status::Corruption("manifest cut short");
  }
  std::string_view cursor(content.data() + 8, length);
  if (Crc32c(cursor) != crc) {
    return Status::Corruption("manifest record CRC mismatch");
  }
  uint64_t magic, version, recovered_next_id, recovered_last_seqno, n_levels;
  if (cursor.empty() ||
      static_cast<uint8_t>(cursor.front()) != kManifestRecordSnapshot) {
    return Status::Corruption("unknown manifest record kind");
  }
  cursor.remove_prefix(1);
  if (!GetFixed64(&cursor, &magic) || magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  if (!GetFixed64(&cursor, &version)) {
    return Status::Corruption("corrupt manifest header");
  }
  // Checked before the trailing bytes: a version-4 file may carry delta
  // records after its snapshot, and is refused as a whole.
  if (version != kManifestVersion) {
    return Status::NotSupported(
        "manifest version " + std::to_string(version) +
        " (this build reads only version " +
        std::to_string(kManifestVersion) + ")");
  }
  if (content.size() != 8 + size_t{length}) {
    return Status::Corruption("trailing bytes after the manifest record");
  }
  if (!GetFixed64(&cursor, &recovered_next_id) ||
      !GetFixed64(&cursor, &recovered_last_seqno) ||
      !GetFixed64(&cursor, &n_levels) || n_levels > kMaxLevels) {
    return Status::Corruption("corrupt manifest header");
  }
  std::vector<std::vector<FilePtr>> levels(kMaxLevels);
  for (uint64_t level = 0; level < n_levels; ++level) {
    uint64_t n_files;
    if (!GetFixed64(&cursor, &n_files)) {
      return Status::Corruption("corrupt manifest level header");
    }
    for (uint64_t i = 0; i < n_files; ++i) {
      auto meta = std::make_shared<FileMeta>();
      if (!DecodeFileMeta(&cursor, meta.get())) {
        return Status::Corruption("corrupt manifest file entry");
      }
      levels[level].push_back(std::move(meta));
    }
  }
  if (!cursor.empty()) {
    return Status::Corruption("trailing bytes in manifest record");
  }

  uint64_t max_id = 0;
  uint64_t max_epoch = 0;
  for (size_t level = 0; level < levels.size(); ++level) {
    for (const auto& f : levels[level]) {
      f->path = options_.dir + "/" + std::to_string(f->id) + ".sst";
      f->level = static_cast<int>(level);
      Status s = LoadFile(f);
      if (!s.ok()) return s;
      max_id = std::max(max_id, f->id);
      max_epoch = std::max(max_epoch, f->design_epoch);
    }
  }
  next_file_id_ = std::max(recovered_next_id, max_id + 1);
  // New designs must outrank every recovered one.
  design_epoch_.store(max_epoch + 1, std::memory_order_relaxed);
  last_seqno_.store(recovered_last_seqno, std::memory_order_relaxed);
  next_seqno_ = recovered_last_seqno + 1;

  std::lock_guard<std::mutex> vl(view_mu_);
  auto nv = std::make_shared<Version>(*version_);
  nv->levels = std::move(levels);
  version_ = std::move(nv);
  return Status::OK();
}

Status Db::LoadFile(const FilePtr& meta) {
  meta->reader = std::make_unique<SstReader>();
  Status s = meta->reader->Open(meta->path, meta->id, &cache_);
  if (!s.ok()) return s;
  if (options_.filter_policy != nullptr) {
    meta->filter = meta->reader->LoadFilter();
    if (meta->filter != nullptr) {
      ++stats_->filter_loads;
    } else {
      // Missing, truncated, bit-flipped, or format-incompatible filter
      // block: rebuild from the file's keys instead of failing the open.
      // If a data block is unreadable the key list is incomplete and a
      // filter built on it would return false negatives — leave the
      // file unfiltered instead (seeks probe it directly and surface
      // the block damage as read errors).
      std::vector<std::string> keys;
      keys.reserve(meta->n_entries);
      SstReader::Iterator it(meta->reader.get());
      for (; it.Valid(); it.Next()) {
        if (keys.empty() || keys.back() != it.key()) {
          keys.emplace_back(it.key());
        }
      }
      // The rebuilt filter replaces the persisted design's modeled FPR;
      // its epoch, signature and samples stay the MANIFEST's.
      if (it.status().ok() && BuildFilter(keys, meta.get())) {
        ++stats_->filter_rebuilds;
      }
    }
  }
  meta->reader->ReleaseFilterBlock();  // live filter holds the memory now
  if (meta->filter != nullptr) ChargeFilter(*meta);
  return Status::OK();
}

Status Db::ReplayWalSegments() {
  std::vector<std::pair<uint64_t, std::string>> segments;
  bool unnumbered_wal = false;
  DIR* d = ::opendir(options_.dir.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      uint64_t number;
      if (ParseWalName(e->d_name, &number)) {
        segments.emplace_back(number, options_.dir + "/" + e->d_name);
      }
      unnumbered_wal |= std::strcmp(e->d_name, "WAL") == 0;
    }
    ::closedir(d);
  }
  if (unnumbered_wal) {
    return Status::NotSupported(
        "unnumbered WAL file (this build reads only WAL-<n> segments): " +
        options_.dir + "/WAL");
  }
  std::sort(segments.begin(), segments.end());

  uint64_t max_seq = last_seqno_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < segments.size(); ++i) {
    uint64_t valid_bytes = 0;
    bool torn = false;
    Status s = WalReplay(
        segments[i].second,
        [&](uint8_t op, uint64_t seqno, std::string_view key,
            std::string_view value) {
          const uint8_t tag = op == kWalOpPutSeq ? kTagValue : kTagTombstone;
          max_seq = std::max(max_seq, seqno);
          mem_->Add(key, seqno, tag, value);
          ++stats_->wal_replayed;
        },
        &valid_bytes, &torn);
    if (!s.ok()) return s;
    if (torn) {
      if (i + 1 < segments.size()) {
        // Rotation only ever follows clean appends, so a torn frame in
        // the middle of the log is damage, not crash debris.
        return Status::Corruption("torn record in non-final WAL segment " +
                                  segments[i].second);
      }
      // The torn record was never acknowledged; cut it so the log ends
      // at a record boundary before we append to it again.
      if (::truncate(segments[i].second.c_str(),
                     static_cast<off_t>(valid_bytes)) != 0) {
        return Status::IOError(Errno("cannot truncate torn WAL tail"));
      }
    }
  }

  last_seqno_.store(max_seq, std::memory_order_relaxed);
  next_seqno_ = max_seq + 1;

  // Reuse the highest existing segment for appends (a crash loop must
  // not mint a new file per reopen); the replayed records keep every
  // existing segment pinned until the memtable flushes.
  uint64_t active = 1;
  std::string active_path = WalSegmentPath(1);
  if (!segments.empty()) {
    active = segments.back().first;
    active_path = segments.back().second;
  }
  wal_ = std::make_unique<WalWriter>();
  Status s = wal_->Open(active_path);
  if (!s.ok()) return s;
  wal_number_ = active;
  mem_->wal_segment = segments.empty() ? active : segments.front().first;
  return Status::OK();
}

Status Db::RecoverAll() {
  Status s = RecoverManifest();
  if (!s.ok()) return s;
  s = ReplayWalSegments();
  if (!s.ok()) return s;
  RemoveOrphanSsts();
  return Status::OK();
}

void Db::RemoveOrphanSsts() {
  VersionPtr v = CurrentVersion();
  DIR* d = ::opendir(options_.dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() <= 4 || name.substr(name.size() - 4) != ".sst") continue;
    const std::string stem = name.substr(0, name.size() - 4);
    char* end = nullptr;
    const uint64_t id = std::strtoull(stem.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;  // not one of ours
    bool referenced = false;
    for (const auto& level : v->levels) {
      for (const auto& f : level) {
        if (f->id == id) {
          referenced = true;
          break;
        }
      }
      if (referenced) break;
    }
    if (!referenced) ::unlink((options_.dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::unlink((options_.dir + "/MANIFEST.tmp").c_str());  // staging debris
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Db::ReadView Db::AcquireReadView(const ReadOptions& ro) const {
  ReadView view;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    view.mem = mem_;
    view.version = version_;
  }
  // Pin the structures BEFORE reading the horizon: the leader publishes
  // last_seqno_ with release after the memtable apply, so every seqno at
  // or below the acquired horizon is reachable through this view.
  view.snapshot = ro.snapshot != nullptr
                      ? ro.snapshot->sequence()
                      : last_seqno_.load(std::memory_order_acquire);
  return view;
}

namespace {

// Index of the first file of a sorted level whose largest key is at or
// past `lo`: the file a query starting at `lo` enters the level by.
template <typename Files>
size_t EntryFile(const Files& files, std::string_view lo) {
  return static_cast<size_t>(
      std::lower_bound(files.begin(), files.end(), lo,
                       [](const auto& f, std::string_view key) {
                         return f->largest < key;
                       }) -
      files.begin());
}

// a < b for keys whose heads (DecodeKeyBE) are given: heads that differ
// decide, and only equal heads compare the full keys.
inline bool HeadLess(uint64_t a_head, std::string_view a, uint64_t b_head,
                     std::string_view b) {
  return a_head != b_head ? a_head < b_head : a < b;
}

// MultiSeek's per-batch buffers. Like ReadSources, one set per thread,
// refilled by every batch and never shrunk; the string_views point into
// the last batch and are cleared before any use.
struct BatchBuffers {
  struct Heads {
    uint64_t lo, hi;
  };
  std::vector<Heads> heads;  // per query, in arrival order
  std::vector<uint32_t> order;
  std::vector<uint32_t> verdicts;
  std::vector<uint32_t> group;
  std::vector<std::string_view> clip_lo, clip_hi;
  std::vector<uint8_t> pass;
};

}  // namespace

// One query's positioned sources, in recency order (memtables newest
// first, then L0 newest first, then L1, L2, ...). Two candidates with
// equal (key, seqno) are one write seen through two sources (crash-replay
// overlap), so whichever comes first answers. The first `n` entries are
// the current query's sources.
//
// Each thread keeps one ReadSources (ThreadReadSources) that all its
// Seek and MultiSeek calls reuse, so a steady-state read allocates
// nothing: `list` never shrinks and its cursors keep their string
// buffers. Between reads the set holds no lock and no Version; its
// pointers are stale and are reset before any use. What it does keep is
// at most one decoded data block per `list` slot (the cursor's shared
// payload), alive until a later read on the same thread moves that
// cursor to another block, or the thread exits.
struct Db::ReadSources {
  struct Source {
    const MemTable* mem = nullptr;                // memtable source
    const std::vector<FilePtr>* level = nullptr;  // sorted-level source
    size_t idx = 0;                  // level: index of `file`
    const FileMeta* file = nullptr;  // L0 or level: the file positioned
    bool checked = false;    // filter consulted (here or by the batch)
    bool seeked = false;     // cursor holds a position
    bool found_any = false;  // at least one probe landed in range
    bool dead = false;       // filter negative, range exhausted, or error
    SstReader::RangeCursor cur;
    // The candidate: the newest visible version of the smallest key at
    // or past the cursor. The views point into a skiplist node (pinned
    // by the ReadView) or into `cur`'s decoded entry.
    bool valid = false;
    std::string_view key, value;
    uint64_t seqno = 0;
    bool tombstone = false;
  };
  std::vector<Source> list;
  size_t n = 0;
  std::string cursor;
};

Db::ReadSources& Db::ThreadReadSources() {
  static thread_local ReadSources sources;
  return sources;
}

SeekResult Db::Seek(std::string_view lo, std::string_view hi,
                    const ReadOptions& options) {
  ++stats_->seeks;
  SeekResult r;
  if (hi < lo) return r;  // inverted: empty, and no evidence for any filter
  SeekLoop(AcquireReadView(options), lo, hi, nullptr, &ThreadReadSources(),
           &r);
  if (!r.found) RecordEmptySeek(lo, hi);
  return r;
}

void Db::RecordEmptySeek(std::string_view lo, std::string_view hi) {
  ++stats_->empty_seeks;
  if (query_queue_.OnEmptyQuery(lo, hi)) ++stats_->queue_sampled;
}

void Db::SeekLoop(const ReadView& view, std::string_view lo,
                  std::string_view hi, const uint32_t* verdicts,
                  ReadSources* sources, SeekResult* result) {
  using Source = ReadSources::Source;
  constexpr BlockReadOptions bro{/*use_cache=*/true};
  const Version& v = *view.version;

  // A file source consults its filter ONCE per query (sound permanently:
  // a negative for [lo, hi] covers every subrange the advancing cursor
  // can ask about); the first probe is an index-descent Seek, every
  // later one a forward SkipTo from the standing position.
  auto open_file = [](Source& s, const FileMeta* f, bool checked) {
    s.file = f;
    s.checked = checked;
    s.seeked = s.found_any = s.dead = false;
  };
  auto position_file = [&](Source& s, std::string_view at) {
    if (s.dead) return;
    const FileMeta& f = *s.file;
    if (f.largest < at || f.smallest > hi) {
      s.dead = true;  // `at` only grows: a bypassed file stays bypassed
      return;
    }
    if (!s.checked) {
      s.checked = true;
      ++stats_->filter_checks;
      if (f.filter != nullptr) {
        f.checks.fetch_add(1, std::memory_order_relaxed);
        if (!f.filter->MayContain(std::max(at, std::string_view(f.smallest)),
                                  std::min(hi, std::string_view(f.largest)))) {
          ++stats_->filter_negatives;
          s.dead = true;
          return;
        }
      }
    }
    Status read_status;
    int rc;
    if (!s.seeked) {
      ++stats_->sst_seeks;
      f.probes.fetch_add(1, std::memory_order_relaxed);
      s.cur.Init(f.reader.get(), bro, view.snapshot);
      rc = s.cur.Seek(at, hi, &read_status);
      s.seeked = true;
    } else {
      rc = s.cur.SkipTo(at, hi, &read_status);
    }
    if (rc == 0) {
      s.found_any = true;
      const SstReader::SeekEntry& se = s.cur.entry();
      s.valid = true;
      s.key = se.key;
      s.value = se.value;
      s.seqno = se.seqno;
      s.tombstone = se.tombstone;
      return;
    }
    s.dead = true;
    if (rc == 1) {
      if (!s.found_any && f.filter != nullptr) {
        ++stats_->false_positive_files;  // filter passed, file had nothing
        NoteFalsePositive(f);
      }
    } else {
      ++stats_->read_errors;
      if (result->status.ok()) result->status = std::move(read_status);
    }
  };
  auto position = [&](Source& s, std::string_view at) {
    s.valid = false;
    if (s.mem != nullptr) {
      SkipList::Entry entry;
      uint8_t tag;
      if (s.mem->SeekGeq(at, view.snapshot, &entry) && entry.key <= hi &&
          ParseInternalValue(entry.value, &tag, &s.value)) {
        s.valid = true;
        s.key = entry.key;
        s.seqno = entry.seqno;
        s.tombstone = tag == kTagTombstone;
      }
      return;
    }
    position_file(s, at);
    if (s.level == nullptr) return;
    // A sorted level walks its files in key order, moving to the next
    // file whenever the current one has nothing left in range.
    const auto& files = *s.level;
    while (!s.valid && s.idx + 1 < files.size() &&
           files[s.idx + 1]->smallest <= hi) {
      open_file(s, files[++s.idx].get(), false);
      position_file(s, at);
    }
  };

  // Build the sources. One the batch's filter pass rejected is never
  // built; one it passed starts out checked.
  sources->n = 0;
  const size_t most = 1 + v.imm.size() + v.levels[0].size() + v.levels.size();
  if (sources->list.size() < most) sources->list.resize(most);
  auto add = [&](const MemTable* mem) -> Source& {
    Source& s = sources->list[sources->n++];
    s.mem = mem;
    s.level = nullptr;
    return s;
  };
  add(view.mem.get());
  for (const MemPtr& m : v.imm) add(m.get());
  for (size_t i = 0; i < v.levels[0].size(); ++i) {
    const FileMeta* f = v.levels[0][i].get();
    if (verdicts != nullptr ? verdicts[i] == 0
                            : f->largest < lo || f->smallest > hi) {
      continue;
    }
    open_file(add(nullptr), f, verdicts != nullptr);
  }
  for (size_t level = 1; level < v.levels.size(); ++level) {
    const auto& files = v.levels[level];
    size_t idx = 0;
    bool passed = false;
    if (verdicts == nullptr) {
      idx = EntryFile(files, lo);
    } else {  // the batch's entry file; a rejected one is skipped
      const uint32_t entry = verdicts[v.levels[0].size() + level - 1];
      passed = (entry & 1) != 0;
      idx = (entry >> 1) + (passed ? 0 : 1);
    }
    if (idx >= files.size() || files[idx]->smallest > hi) continue;
    Source& s = add(nullptr);
    s.level = &files;
    s.idx = idx;
    open_file(s, files[idx].get(), passed);
  }

  // Prime every source at `lo`, then loop: pick the best candidate
  // (smallest key; among versions of that key the highest seqno); a
  // tombstone winner advances the cursor past the deleted key and
  // repositions ONLY the sources standing on it, so a run of N
  // consecutive tombstones costs O(files + N), not N restarts.
  Source* const first = sources->list.data();
  Source* const last = first + sources->n;
  for (Source* s = first; s != last; ++s) position(*s, lo);
  std::string& cursor = sources->cursor;
  for (;;) {
    const Source* best = nullptr;
    for (const Source* s = first; s != last; ++s) {
      if (s->valid &&
          (best == nullptr || s->key < best->key ||
           (s->key == best->key && s->seqno > best->seqno))) {
        best = s;
      }
    }
    if (best == nullptr) return;
    if (!best->tombstone) {
      result->found = true;
      result->key.assign(best->key);
      result->value.assign(best->value);
      return;
    }
    cursor.assign(best->key);
    cursor.push_back('\0');
    for (Source* s = first; s != last; ++s) {
      if (s->valid && s->key < cursor) position(*s, cursor);
    }
  }
}

void Db::MultiSeek(const QueryBatch& batch,
                   std::vector<MultiSeekResult>* results,
                   const ReadOptions& options) {
  const size_t n = batch.size();
  results->assign(n, MultiSeekResult{});
  if (n == 0) return;
  stats_->seeks += n;

  // ONE view and horizon for the whole batch: its answers are mutually
  // consistent even while writers commit concurrently.
  const ReadView view = AcquireReadView(options);
  const Version& v = *view.version;

  // Every key test below compares heads first. An inverted query
  // (hi < lo) is answered empty here, like Seek's, and takes no further
  // part: no filter check, no probe, no sample.
  static thread_local BatchBuffers buffers;
  std::vector<BatchBuffers::Heads>& heads = buffers.heads;
  heads.resize(n);
  for (size_t i = 0; i < n; ++i) {
    heads[i] = {DecodeKeyBE(batch[i].lo), DecodeKeyBE(batch[i].hi)};
  }
  auto inverted = [&](size_t qi) {
    return HeadLess(heads[qi].hi, batch[qi].hi, heads[qi].lo, batch[qi].lo);
  };

  // Key order: ascending lo, ties in arrival order. Sorting on (lo head,
  // then the full lo only when heads tie, then index) orders exactly as
  // (lo, index), since heads are monotone, and gives the stable
  // permutation without a stable sort's temporary buffer.
  std::vector<uint32_t>& order = buffers.order;
  order.clear();
  for (size_t i = 0; i < n; ++i) {
    if (!inverted(i)) order.push_back(static_cast<uint32_t>(i));
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (heads[a].lo != heads[b].lo) return heads[a].lo < heads[b].lo;
    const int c = batch[a].lo.compare(batch[b].lo);
    return c < 0 || (c == 0 && a < b);
  });

  // The batched filter pass: exactly the verdicts the read loop takes
  // while priming its sources (each overlapping L0 file, each sorted
  // level's entry file), grouped per file in key order into one
  // MultiMayContain call and booked here. Row qi of `verdicts` is the
  // loop's `verdicts` argument for query qi: per L0 file the verdict,
  // per sorted level 2 * entry file + verdict.
  const size_t stride = v.levels[0].size() + v.levels.size() - 1;
  std::vector<uint32_t>& verdicts = buffers.verdicts;
  verdicts.assign(n * stride, 0);
  std::vector<uint32_t>& group = buffers.group;
  std::vector<std::string_view>& clip_lo = buffers.clip_lo;
  std::vector<std::string_view>& clip_hi = buffers.clip_hi;
  std::vector<uint8_t>& pass = buffers.pass;
  auto check_group = [&](const FileMeta& f, size_t slot) {
    const uint64_t smallest = DecodeKeyBE(f.smallest);
    const uint64_t largest = DecodeKeyBE(f.largest);
    clip_lo.clear();
    clip_hi.clear();
    for (uint32_t qi : group) {
      const StrRangeQuery& q = batch[qi];
      clip_lo.push_back(HeadLess(heads[qi].lo, q.lo, smallest, f.smallest)
                            ? std::string_view(f.smallest)
                            : std::string_view(q.lo));
      clip_hi.push_back(HeadLess(largest, f.largest, heads[qi].hi, q.hi)
                            ? std::string_view(f.largest)
                            : std::string_view(q.hi));
    }
    stats_->filter_checks += group.size();
    pass.assign(group.size(), 1);
    if (f.filter != nullptr) {
      f.checks.fetch_add(group.size(), std::memory_order_relaxed);
      if (group.size() == 1) {
        pass[0] = f.filter->MayContain(clip_lo[0], clip_hi[0]) ? 1 : 0;
      } else {
        f.filter->MultiMayContain(clip_lo.data(), clip_hi.data(),
                                  group.size(), pass.data());
      }
    }
    uint64_t negatives = 0;
    for (size_t g = 0; g < group.size(); ++g) {
      verdicts[group[g] * stride + slot] |= pass[g];
      negatives += pass[g] == 0;
    }
    if (negatives != 0) stats_->filter_negatives += negatives;
  };
  for (size_t i = 0; i < v.levels[0].size(); ++i) {
    const FileMeta& f = *v.levels[0][i];
    const uint64_t smallest = DecodeKeyBE(f.smallest);
    const uint64_t largest = DecodeKeyBE(f.largest);
    group.clear();
    for (uint32_t qi : order) {
      const StrRangeQuery& q = batch[qi];
      // Past the file's largest key: so is every later query.
      if (HeadLess(largest, f.largest, heads[qi].lo, q.lo)) break;
      if (!HeadLess(heads[qi].hi, q.hi, smallest, f.smallest)) {
        group.push_back(qi);
      }
    }
    if (!group.empty()) check_group(f, i);
  }
  // One forward walk per sorted level: `order` ascends in lo, so the
  // entry file (the first whose largest key is at or past lo) never moves
  // back, and the queries that enter by one file form one run of `order`.
  for (size_t level = 1; level < v.levels.size(); ++level) {
    const auto& files = v.levels[level];
    if (files.empty()) continue;  // verdict 0: entry file 0, rejected
    const size_t slot = v.levels[0].size() + level - 1;
    size_t idx = 0;
    uint64_t smallest = DecodeKeyBE(files[0]->smallest);
    uint64_t largest = DecodeKeyBE(files[0]->largest);
    group.clear();
    for (uint32_t qi : order) {
      const StrRangeQuery& q = batch[qi];
      while (idx < files.size() &&
             HeadLess(largest, files[idx]->largest, heads[qi].lo, q.lo)) {
        if (!group.empty()) {
          check_group(*files[idx], slot);
          group.clear();
        }
        if (++idx < files.size()) {
          smallest = DecodeKeyBE(files[idx]->smallest);
          largest = DecodeKeyBE(files[idx]->largest);
        }
      }
      verdicts[qi * stride + slot] = static_cast<uint32_t>(2 * idx);
      if (idx < files.size() &&
          !HeadLess(heads[qi].hi, q.hi, smallest, files[idx]->smallest)) {
        group.push_back(qi);
      }
    }
    if (!group.empty()) check_group(*files[idx], slot);
  }

  // The read loop once per query, in key order. Empty results feed
  // the sample queue with their original bounds, in arrival order.
  ReadSources& sources = ThreadReadSources();
  for (uint32_t qi : order) {
    SeekLoop(view, batch[qi].lo, batch[qi].hi, verdicts.data() + qi * stride,
             &sources, &(*results)[qi]);
  }
  for (size_t qi = 0; qi < n; ++qi) {
    if (!(*results)[qi].found && !inverted(qi)) {
      RecordEmptySeek(batch[qi].lo, batch[qi].hi);
    }
  }
}

Status Db::VerifyChecksums() const {
  VersionPtr v = CurrentVersion();
  for (const auto& level : v->levels) {
    for (const auto& f : level) {
      Status s = f->reader->VerifyChecksums();
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

DbStats Db::stats() const {
  DbStats out = stats_->Snapshot();
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    out.memtable_arena_bytes = mem_->ArenaBytes();
    for (const MemPtr& m : version_->imm) {
      out.memtable_arena_bytes += m->ArenaBytes();
    }
  }
  return out;
}

void Db::ResetStats() { stats_->Reset(); }

WalWriter::Stats Db::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : WalWriter::Stats{};
}

Status Db::background_error() const {
  std::lock_guard<std::mutex> bl(bg_mu_);
  return bg_error_;
}

std::vector<size_t> Db::LevelFileCounts() const {
  VersionPtr v = CurrentVersion();
  std::vector<size_t> out;
  for (const auto& level : v->levels) out.push_back(level.size());
  return out;
}

uint64_t Db::TotalSstBytes() const {
  VersionPtr v = CurrentVersion();
  uint64_t total = 0;
  for (const auto& level : v->levels) {
    for (const auto& f : level) total += f->file_size;
  }
  return total;
}

uint64_t Db::TotalFilterBits() const {
  VersionPtr v = CurrentVersion();
  uint64_t total = 0;
  for (const auto& level : v->levels) {
    for (const auto& f : level) {
      if (f->filter != nullptr) total += f->filter->SizeBits();
    }
  }
  return total;
}

uint64_t Db::TotalKeys() const {
  ReadView view;
  {
    std::lock_guard<std::mutex> vl(view_mu_);
    view.mem = mem_;
    view.version = version_;
  }
  uint64_t total = view.mem->size();
  for (const MemPtr& m : view.version->imm) total += m->size();
  for (const auto& level : view.version->levels) {
    for (const auto& f : level) total += f->n_entries;
  }
  return total;
}

void Db::TEST_CrashClose() {
  StopBackgroundThread(&crashed_);  // join any in-flight maintenance first
  std::lock_guard<std::mutex> plock(pipeline_mu_);
  std::lock_guard<std::mutex> vl(view_mu_);
  wal_.reset();  // closes the fd; the file stays as-is on disk
  // kill -9 takes the memtables
  mem_ = std::make_shared<MemTable>();
  auto nv = std::make_shared<Version>(*version_);
  nv->imm.clear();
  version_ = std::move(nv);
}

}  // namespace proteus
