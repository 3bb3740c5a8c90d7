// miniLSM — the storage engine standing in for RocksDB in Sections 6–7.
//
// Architecture (mirroring the paper's description of RocksDB):
//  * a multi-version skiplist MemTable buffering writes (every version
//    carries the sequence number its write committed at),
//  * a write-ahead log (src/lsm/wal.h): every Put/Delete is CRC-framed,
//    stamped with its seqno, and group-committed to a WAL segment before
//    it is acknowledged, so a process kill between flushes loses nothing,
//  * L0 SST files flushed from immutable memtables on a background
//    thread (overlapping ranges, newest first),
//  * levels L1..Lmax of range-partitioned, non-overlapping SST files
//    with leveled compaction (size ratio between levels), also run in
//    the background,
//  * a per-SST filter built at flush/compaction time by the configured
//    FilterPolicy from the SST's keys and the sample query queue; every
//    file at every level is designed under the policy spec's own bpk,
//  * an LRU block cache for data blocks; index blocks and filters stay
//    pinned in memory (Section 6.2's tuning),
//  * closed Seek(lo, hi): consult every overlapping SST's filter first,
//    then fetch the smallest key >= lo only from files whose filter
//    passes (Section 6.1, "Range Query Implementation").
//
// Concurrency & MVCC (docs/ARCHITECTURE.md "Threading & MVCC"):
//  * Writers queue behind a group-commit leader that assigns monotonic
//    sequence numbers and appends the whole batch to the WAL in one
//    critical section — WAL order, seqno order, and crash-replay order
//    are identical. The leader is the memtable's only writer: after the
//    WAL append it applies every entry of the batch in seqno order, then
//    publishes last_seqno_, so readers never see a committed horizon
//    with holes.
//  * Readers never take the writer path's locks: Seek/MultiSeek pin an
//    immutable view (active memtable + a copy-on-write Version of the
//    immutable memtables and SST levels) under one brief mutex, then run
//    lock-free. Retired SSTs stay readable until the last view drops.
//  * GetSnapshot() pins a sequence horizon: a reader carrying it sees
//    exactly the versions committed at or before that point, regardless
//    of concurrent writes, flushes, or compactions. Compaction keeps the
//    newest version per live-snapshot stripe and drops the rest.
//  * Flush and compaction run on one Db-owned maintenance thread that
//    writers and drift detection wake; writers stall (bounded
//    immutable-memtable count) instead of doing maintenance inline.
//    stats().write_stalls / stall_wait_us account for it.
//
// Durability contract (docs/FORMAT.md has the byte-level formats):
//  * Put/Delete return only after their WAL record is written, and with
//    DbOptions::wal_sync (the default) fsync'd (group commit batches
//    concurrent writers into one fsync); Db::Open replays
//    the WAL segments into the memtable, dropping at most a torn (never
//    acknowledged) tail record.
//  * Every flush, compaction and redesign, and every clean close,
//    rewrites the MANIFEST as one CRC-framed record naming every live
//    SST (MANIFEST.tmp, fsync, rename, directory fsync); obsolete SSTs
//    are unlinked only after the MANIFEST without them is durable and
//    no in-flight read still holds them.
//  * SSTs carry a CRC32C per data block in the index handle; a
//    flipped byte surfaces as a Corruption status (SeekResult::status,
//    VerifyChecksums), never as silently wrong bytes.
//
// All public methods are thread-safe unless noted. Write failures
// surface as proteus::Status from Put/Delete/Flush/Open.

#ifndef PROTEUS_LSM_DB_H_
#define PROTEUS_LSM_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/query.h"
#include "lsm/block_cache.h"
#include "lsm/drift.h"
#include "lsm/filter_policy.h"
#include "lsm/ikey.h"
#include "lsm/memtable.h"
#include "lsm/query_queue.h"
#include "lsm/skiplist.h"
#include "lsm/sst.h"
#include "lsm/wal.h"
#include "util/status.h"

namespace proteus {

class Db;

/// Abstract sorted stream of entry versions (key asc, seqno desc) — the
/// input of SST building. Implementations live in db.cc (memtable dumps,
/// k-way SST merges, the snapshot-aware collapse filter).
class EntrySource;

/// A pinned sequence horizon from Db::GetSnapshot(). Reads carrying one
/// (ReadOptions::snapshot) see exactly the state as of this sequence —
/// later commits are invisible, and compaction keeps the versions the
/// snapshot needs until the handle is released. The Db must outlive
/// every snapshot taken from it.
class Snapshot {
 public:
  uint64_t sequence() const { return seqno_; }

 private:
  friend class Db;
  explicit Snapshot(uint64_t seqno) : seqno_(seqno) {}
  const uint64_t seqno_;
};

/// Per-read knobs for Seek/MultiSeek.
struct ReadOptions {
  /// Read as of this pinned horizon; null reads the latest committed
  /// state (the default).
  const Snapshot* snapshot = nullptr;
};

struct DbOptions {
  std::string dir = "/tmp/proteus_db";
  size_t memtable_bytes = 8u << 20;
  size_t sst_target_bytes = 16u << 20;  // per compaction-output file
  size_t block_size = 4096;
  uint64_t block_cache_bytes = 64u << 20;
  int l0_compaction_trigger = 4;
  uint64_t l1_size_bytes = 64u << 20;
  double level_size_multiplier = 10.0;
  /// Every write goes through the write-ahead log. wal_sync=false
  /// acknowledges after the OS write but before fdatasync (group commit
  /// still batches the writes), so an acknowledged write survives a
  /// process kill but not a machine crash.
  bool wal_sync = true;
  /// A WAL segment reaching this size triggers a memtable flush (and a
  /// rotation to a fresh segment), bounding crash-replay time even when
  /// the memtable itself is under memtable_bytes.
  size_t wal_segment_bytes = 8u << 20;
  /// Writers stall once this many immutable memtables await flushing —
  /// the backpressure that keeps an outrun flusher from buffering
  /// unbounded memory. stats().write_stalls counts the stalls.
  size_t max_immutable_memtables = 2;
  /// No longer sizes anything: every Db runs its maintenance on one
  /// thread of its own. Kept only because perfbench prints the default
  /// into its env line; it goes with the next perfbench change.
  size_t background_threads = 2;
  /// Builds every SST's filter under its spec's bits-per-key, the same
  /// budget at every level. Null = no filters.
  std::shared_ptr<FilterPolicy> filter_policy;
  SampleQueryQueue::Options queue_options;
  /// Continuous self-design: background maintenance rewrites an SST in
  /// place — re-running Sample() -> Design() -> Build() with the live
  /// query window — once the drift detector flags its filter as designed
  /// for a workload that no longer exists (stats().redesigns counts the
  /// rewrites). Off = every design is frozen at first build.
  bool adaptive_redesign = true;
  /// Thresholds for the drift detector (src/lsm/drift.h).
  DriftOptions drift;
};

/// A point-in-time copy of the Db's counters (stats() snapshots the
/// internal relaxed atomics — the counters are mutated concurrently by
/// readers, the write leader, and background maintenance).
struct DbStats {
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t seeks = 0;
  uint64_t empty_seeks = 0;
  uint64_t filter_checks = 0;
  uint64_t filter_negatives = 0;
  uint64_t sst_seeks = 0;             // files actually probed on disk
  uint64_t false_positive_files = 0;  // filter passed, file had nothing
  uint64_t read_errors = 0;   // data-block CRC/checksum failures in Seek
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t filter_build_ns = 0;
  uint64_t filter_bits_built = 0;
  uint64_t filter_loads = 0;    // filters deserialized from SST blocks
  uint64_t filter_rebuilds = 0;  // recovery fallbacks: block missing/corrupt
  uint64_t wal_replayed = 0;     // records re-applied by Db::Open
  uint64_t wal_rotations = 0;    // segment files rotated in
  uint64_t queue_sampled = 0;    // empty queries recorded in the sample queue
  uint64_t write_stalls = 0;     // writer batches that hit the imm limit
  uint64_t stall_wait_us = 0;    // total time writers spent stalled
  uint64_t drift_detected = 0;   // SSTs flagged by the drift detector
  uint64_t redesigns = 0;        // drift-triggered single-file rewrites

  /// Bytes reserved by the live memtables' arenas (active + immutable).
  uint64_t memtable_arena_bytes = 0;
};

/// One range query's outcome: the smallest live key in [lo, hi] visible
/// at the read's snapshot horizon, or found=false. The first data-block
/// read error encountered (Corruption/IOError) lands in `status`, so a
/// caller can tell "key absent" from "file unreadable" (the result may
/// then be stale if the damaged file held a newer version).
struct SeekResult {
  bool found = false;
  std::string key;
  std::string value;
  Status status;
};

/// MultiSeek answers each query with exactly the Seek() result.
using MultiSeekResult = SeekResult;

class Db {
 public:
  /// Creates a FRESH database in `options.dir`, wiping any SST files,
  /// manifest, WAL segments and unnumbered `WAL` file left there. Use
  /// Open() to resume an existing database. Returns {nullptr, error}
  /// when the directory or WAL cannot be set up.
  static std::pair<std::unique_ptr<Db>, Status> Create(DbOptions options);

  /// Reopens a database previously closed (or killed) in `options.dir`:
  /// reads the MANIFEST, reattaches every SST, reloads
  /// persisted filter blocks (stats().filter_loads; rebuilt from keys
  /// only when a block is missing or corrupt), and replays the WAL
  /// segments into the memtable at their recorded seqnos
  /// (stats().wal_replayed) — so recovery reproduces the exact pre-crash
  /// write order. A missing manifest yields an empty database; a cut or
  /// corrupt manifest or an unreadable SST fails Open with a non-OK
  /// status rather than silently dropping data. A torn WAL tail — crash
  /// debris from an unacknowledged write — is truncated away, not an
  /// error.
  static std::pair<std::unique_ptr<Db>, Status> Open(DbOptions options);

  /// Flushes the memtable and persists the manifest, so a subsequent
  /// Open() sees every key without WAL replay. Joins the maintenance
  /// thread first.
  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// Inserts a new version of `key`. Returns once the write is durable
  /// in the WAL (see DbOptions::wal_sync) and applied to the memtable; a
  /// non-OK status means the write was rejected and is NOT visible.
  /// Concurrent callers are batched by a group-commit leader that also
  /// assigns the write's sequence number. If background maintenance has
  /// failed, the sticky background_error() rejects writes until an
  /// explicit Flush()/CompactAll() succeeds.
  Status Put(std::string_view key, std::string_view value);

  /// Removes a key (writes a tombstone version that shadows older ones
  /// and is dropped by bottom-level compaction once no snapshot needs
  /// it). Same durability as Put.
  Status Delete(std::string_view key);

  /// Pins the current sequence horizon. Reads passing the returned
  /// snapshot in ReadOptions see the database exactly as of this call;
  /// flushes and compactions preserve the pinned versions until the
  /// handle is released (dropped). The Db must outlive the handle.
  std::shared_ptr<const Snapshot> GetSnapshot();

  /// Closed Seek: finds the smallest live key in [lo, hi] visible at the
  /// read's snapshot horizon (options.snapshot, or the latest committed
  /// state) by running the read loop (SeekLoop) once. Empty results feed
  /// the sample query queue. Safe to call concurrently with writes and
  /// background maintenance.
  SeekResult Seek(std::string_view lo, std::string_view hi,
                  const ReadOptions& options = {});

  /// Batched Seek: answers every query in `batch` with exactly the
  /// Seek() results and the same cost counters. Queries run in key order
  /// (ascending `lo`, ties in arrival order), so one file's filter
  /// regions and data blocks are visited in ascending order. A batched
  /// filter pass takes every verdict the read loop would take while
  /// priming its sources (each overlapping L0 file, each sorted level's
  /// entry file) in one MultiMayContain call per file, and the read loop
  /// then runs once per query, primed with that query's verdicts. The
  /// whole batch resolves against ONE pinned view and one snapshot
  /// horizon, so its answers are mutually consistent even while writers
  /// commit concurrently. `results[i]` answers `batch[i]` whatever the
  /// arrival order.
  void MultiSeek(const QueryBatch& batch,
                 std::vector<MultiSeekResult>* results,
                 const ReadOptions& options = {});

  /// Forces a flush of the memtable (and any triggered compactions),
  /// synchronously. Success clears a pending background error (the
  /// stuck data is durable now); failure sets it.
  Status Flush();

  /// The sticky failure from background flush/compaction. While non-OK,
  /// Put/Delete are rejected (nothing new becomes visible); a successful
  /// explicit Flush()/CompactAll() clears it.
  Status background_error() const;

  /// Compacts until every level is within its size limit and L0 is empty
  /// (the paper's "wait for all background compactions" setup step).
  Status CompactAll();

  /// Blocks until no background maintenance is requested or running.
  void WaitForBackground();

  /// Reads every data block of every SST, verifying per-block CRCs and
  /// in-block checksums. First damage found is returned as Corruption.
  Status VerifyChecksums() const;

  /// Highest committed sequence number (what a new snapshot would pin).
  uint64_t LastSequence() const {
    return last_seqno_.load(std::memory_order_acquire);
  }

  SampleQueryQueue& query_queue() { return query_queue_; }
  const SampleQueryQueue& query_queue() const { return query_queue_; }

  DbStats stats() const;
  void ResetStats();
  BlockCache& cache() { return cache_; }

  /// WAL group-commit counters, cumulative across segment rotations.
  WalWriter::Stats wal_stats() const;

  /// Files per level (diagnostics / tests).
  std::vector<size_t> LevelFileCounts() const;
  uint64_t TotalSstBytes() const;
  uint64_t TotalFilterBits() const;
  /// Live entry versions: memtable + immutable memtables + SST entries.
  uint64_t TotalKeys() const;

  /// Test hook: simulate kill -9. Joins background maintenance, drops
  /// the memtables, and closes the WAL without flushing; the destructor
  /// then does nothing. Acknowledged writes must come back through WAL
  /// replay on the next Open().
  void TEST_CrashClose();

  /// Test hook: the live WAL writer (null after TEST_CrashClose).
  WalWriter* TEST_wal() { return wal_.get(); }

  /// Design provenance and live probe counters of one resident SST
  /// (diagnostics / tests; snapshot of concurrently updated counters).
  struct SstDesignInfo {
    uint64_t file_id = 0;
    int level = 0;
    uint64_t design_epoch = 0;       // redesign wave that built it (>= 1)
    double modeled_fpr = -1.0;       // model's promise (< 0: none)
    double design_signature = -1.0;  // query-window signature at design
    uint64_t design_samples = 0;     // queue.sampled() at design time
    uint64_t checks = 0;             // filter consultations
    uint64_t probes = 0;             // filter passes that probed the SST
    uint64_t false_positives = 0;    // of those, probes finding nothing
    uint64_t filter_bits = 0;
    bool drift_flagged = false;
  };

  /// One entry per live SST, L0 first.
  std::vector<SstDesignInfo> DesignInfo() const;

 private:
  struct FileMeta {
    uint64_t id = 0;
    std::string path;
    std::string smallest, largest;
    uint64_t n_entries = 0;
    uint64_t file_size = 0;
    std::unique_ptr<SstReader> reader;
    std::unique_ptr<SstFilter> filter;
    // The level the file lives at (set at install/recovery), as
    // DesignInfo reports it.
    int level = 0;
    // Design provenance, persisted in the MANIFEST (negative doubles =
    // not available).
    uint64_t design_epoch = 0;
    double modeled_fpr = -1.0;
    double design_signature = -1.0;
    uint64_t design_samples = 0;
    // Live observed-FPR evidence, updated lock-free by readers and
    // persisted at manifest snapshots so drift detection survives
    // reopen. drift_flagged latches the detector's verdict until a
    // background redesign retires the file.
    mutable std::atomic<uint64_t> checks{0};
    mutable std::atomic<uint64_t> probes{0};
    mutable std::atomic<uint64_t> false_positives{0};
    mutable std::atomic<bool> drift_flagged{false};
    // Retired by a compaction: unlink on destruction. The last ReadView
    // holding the containing Version keeps the file readable until then.
    std::atomic<bool> obsolete{false};
    ~FileMeta();
  };
  using FilePtr = std::shared_ptr<FileMeta>;

  using MemPtr = std::shared_ptr<MemTable>;

  /// An immutable picture of everything except the active memtable.
  /// Swapped atomically (under view_mu_); never mutated in place.
  struct Version {
    std::vector<MemPtr> imm;  // newest first
    // levels[0]: newest-first overlapping files; levels[n>=1]: sorted by
    // smallest key, non-overlapping.
    std::vector<std::vector<FilePtr>> levels;
  };
  using VersionPtr = std::shared_ptr<const Version>;

  /// What one read operation pins: the structures it walks and the
  /// sequence horizon it resolves visibility against.
  struct ReadView {
    MemPtr mem;
    VersionPtr version;
    uint64_t snapshot = kMaxSequence;
  };

  /// One queued write, owned by the caller's stack frame.
  struct Writer {
    uint8_t tag;  // kTagValue | kTagTombstone
    std::string_view key, value;
    uint64_t seqno = 0;
    Status status;
    bool done = false;
  };

  /// Creates the directory and starts the maintenance thread; opens no
  /// file (Create and Open set up the WAL).
  explicit Db(DbOptions options);

  Status WriteInternal(uint8_t tag, std::string_view key,
                       std::string_view value);
  /// Leader body: stall, assign seqnos, WAL append, memtable apply of the
  /// whole batch in seqno order, commit-point publish.
  Status CommitBatch(const std::vector<Writer*>& batch, bool* need_maintenance);

  ReadView AcquireReadView(const ReadOptions& ro) const;

  /// One query's positioned sources (defined in db.cc).
  struct ReadSources;
  /// The calling thread's ReadSources, reused by every Seek and
  /// MultiSeek on that thread so the read loop does not allocate.
  static ReadSources& ThreadReadSources();

  /// The read loop, the only code that answers a range query: positions
  /// a source per memtable, overlapping L0 file and sorted level at `lo`,
  /// returns the newest visible version of the smallest key in [lo, hi],
  /// and walks past tombstones by advancing only the sources that stood
  /// on the deleted key. Each SST's filter is consulted at most once.
  /// `verdicts`, when non-null, holds the priming verdicts a batched
  /// filter pass already took and booked: one per L0 file (1 = pass,
  /// 0 = rejected or no overlap), then per sorted level 2 * its entry
  /// file index + the verdict on that file. The loop builds no source
  /// for a rejected file and books only the checks it takes itself.
  /// Fills `result`; the first read error lands in result->status and
  /// each one counts in stats_.read_errors. No empty-query accounting:
  /// callers own that.
  void SeekLoop(const ReadView& view, std::string_view lo,
                std::string_view hi, const uint32_t* verdicts,
                ReadSources* sources, SeekResult* result);

  /// Empty-result bookkeeping shared by Seek and MultiSeek: counts the
  /// empty seek and offers the query to the sample queue.
  void RecordEmptySeek(std::string_view lo, std::string_view hi);

  /// Writes SSTs from a sorted (key asc, seqno desc) entry stream;
  /// builds their filters. File boundaries never split a key's version
  /// run, so sorted levels stay point-disjoint. Tombstone dropping and
  /// snapshot-stripe collapse happen upstream (the CollapseSource the
  /// callers wrap around their merge).
  Status WriteSstFiles(EntrySource& entries, int target_level,
                       size_t max_data_bytes, std::vector<FilePtr>* out);

  Status FinishFile(SstWriter* writer, std::vector<std::string>* keys,
                    const std::string& path, int target_level, FilePtr* out);

  /// A filter pass probed `f` on disk and found nothing in range (a false
  /// positive). Feeds the drift detector; a firing latches
  /// f.drift_flagged and wakes background maintenance.
  void NoteFalsePositive(const FileMeta& f);

  /// Charges the filter's pinned bytes to the block cache.
  void ChargeFilter(const FileMeta& meta);

  /// Live snapshot horizons, sorted ascending (compaction input).
  std::vector<uint64_t> LiveSnapshots() const;

  // --- write-stall / trigger plumbing ---
  size_t ImmCount() const;
  bool WorkPending() const;
  bool Stopping() const {
    return crashed_.load(std::memory_order_relaxed) ||
           closing_.load(std::memory_order_relaxed);
  }
  /// Asks the maintenance thread for a pass; a no-op once the Db is
  /// stopping or while a background error is set.
  void MaybeScheduleMaintenance();
  /// The maintenance thread's body: for each request, one pass under
  /// maint_mu_ that swaps a full memtable and runs the picked jobs,
  /// repeated while WorkPending(); until the Db stops.
  void BackgroundThread();
  /// Sets `flag` (closing_ or crashed_) under bg_mu_, wakes every bg_cv_
  /// waiter and joins the maintenance thread. Idempotent.
  void StopBackgroundThread(std::atomic<bool>* flag);
  /// Swaps the active memtable into the immutable list and rotates the
  /// WAL segment, if the memtable is non-empty and (force or a size
  /// trigger fired). Returns true when a swap happened.
  bool PrepareFlush(bool force);
  void SetBackgroundError(Status s, bool clear_on_ok);

  // --- MANIFEST ---
  std::string ManifestPath() const { return options_.dir + "/MANIFEST"; }
  std::string WalSegmentPath(uint64_t n) const {
    return options_.dir + "/WAL-" + std::to_string(n);
  }
  /// Atomically replaces the MANIFEST with one record naming `levels`
  /// (durable on return). A job calls it with the level lists it is
  /// about to install, before installing them.
  Status WriteManifest(const std::vector<std::vector<FilePtr>>& levels);
  /// Rebuilds the tree (and filters) from the MANIFEST, then replays the
  /// WAL segments into the memtable.
  Status RecoverAll();
  Status RecoverManifest();
  Status ReplayWalSegments();
  /// Unlinks *.sst files the recovered manifest does not reference —
  /// debris of a crash between an SST write and the MANIFEST naming it,
  /// or between a MANIFEST write and the matching unlink; without this
  /// each crash leaks disk forever. Also removes a MANIFEST.tmp.
  void RemoveOrphanSsts();

  /// Reattaches one recovered SST: opens the reader, loads the persisted
  /// filter block, or rebuilds the filter from keys as a fallback.
  Status LoadFile(const FilePtr& meta);

  /// MANIFEST file-entry codec, design provenance and observed-FPR
  /// counters included.
  static void EncodeFileMeta(std::string* out, const FileMeta& f);
  static bool DecodeFileMeta(std::string_view* cursor, FileMeta* f);

  /// One unit of maintenance. A flush writes the immutable memtables
  /// into L0; a compaction merges its input files with the files they
  /// overlap at the output level; a redesign (output == level) rewrites
  /// one file at its own level so that it gets a filter designed from
  /// the live query window.
  struct Job {
    std::vector<MemPtr> imm;      // a flush's memtables; empty otherwise
    size_t level = 0;             // input level
    std::vector<FilePtr> inputs;  // input files at `level`
    size_t output = 0;            // output level
    bool drop_tombstones = false;
    size_t max_file_bytes = ~size_t{0};  // output file-size cap
    size_t next_cursor = 0;  // a level compaction: compact_cursor_ after it
  };
  /// The next job, or none. In order: a flush of the immutable
  /// memtables; L0 into L1 once L0 holds l0_compaction_trigger files
  /// (any file under `compact_all`); the lowest level over its size
  /// limit, one file at a time round-robin; unless `compact_all`, the
  /// first drift-flagged file (adaptive_redesign only).
  std::optional<Job> PickCompaction(const Version& v, bool compact_all) const;
  // Callers hold maint_mu_.
  /// Runs picked jobs until the picker has none.
  Status RunMaintenanceLocked(bool compact_all);
  /// Merges and writes the outputs, computes the new level lists through
  /// ApplyEdit, writes them to the MANIFEST, installs them and retires
  /// the inputs.
  Status RunJobLocked(const Job& job);
  /// The one rule that turns a job into level lists. `retired` files
  /// leave every level. `added` files go to level `output`: at L0, in
  /// order, where the first retired L0 file was, or at the front, so L0
  /// stays newest-first; levels >= 1 stay sorted by smallest key.
  static void ApplyEdit(const std::vector<FilePtr>& retired, size_t output,
                        const std::vector<FilePtr>& added,
                        std::vector<std::vector<FilePtr>>* levels);
  void DeleteObsoleteWalSegments();
  uint64_t LevelLimitBytes(size_t level) const;
  static uint64_t LevelBytes(const Version& v, size_t level);
  static bool LevelsBelowEmpty(const Version& v, size_t first_level);
  VersionPtr CurrentVersion() const;
  void RetireFile(const FilePtr& f);  // cache eviction + deferred unlink

  // Counter mirror of DbStats in relaxed atomics (hot-path increments
  // from reader, writer, and maintenance threads).
  struct AtomicStats;

  DbOptions options_;
  BlockCache cache_;
  SampleQueryQueue query_queue_;

  // ------------------------------------------------------------------
  // Lock hierarchy (acquire strictly downward; never upward):
  //   maint_mu_  >  pipeline_mu_  >  bg_mu_  >  view_mu_
  // Leaf locks (held only alone): write_mu_, snap_mu_. The stall
  // predicate reads view_mu_ while holding bg_mu_, which the ordering
  // permits; nothing takes maint_mu_ or pipeline_mu_ under bg_mu_.
  // ------------------------------------------------------------------

  // Serializes flush/compaction bodies and all MANIFEST I/O. Only
  // maintenance (and recovery, which is single-threaded) touches levels.
  std::mutex maint_mu_;

  // Excludes the write leader's {WAL append + memtable apply} against
  // the flusher's {WAL rotate + memtable swap}. Readers never take it.
  std::mutex pipeline_mu_;

  // Write queue: arrival order = commit order. The front writer is the
  // group-commit leader.
  std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::deque<Writer*> write_queue_;

  // The maintenance thread's (bg_thread_) state. bg_cv_ carries every
  // wait on it: the thread waits for a request or a stop, a stalled
  // write leader for ImmCount() < max_immutable_memtables (or an error,
  // or a stop), and WaitForBackground for neither requested nor
  // running. Each pass and each flush notifies it.
  mutable std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_requested_ = false;
  bool bg_running_ = false;
  Status bg_error_;  // sticky: rejects writes until an explicit Flush

  // Guards the pointers only (contents are immutable or internally
  // synchronized). Readers copy mem_/version_ under it and move on.
  mutable std::mutex view_mu_;
  MemPtr mem_;
  VersionPtr version_;

  // Seqno assignment: next_seqno_ belongs to the write leader (under
  // pipeline_mu_) and recovery; last_seqno_ publishes the newest
  // committed seqno to readers.
  uint64_t next_seqno_ = 1;
  std::atomic<uint64_t> last_seqno_{0};

  mutable std::mutex snap_mu_;
  std::multiset<uint64_t> live_snapshots_;

  std::unique_ptr<WalWriter> wal_;  // one object across segment rotations
  uint64_t wal_number_ = 0;         // active segment (pipeline_mu_)

  // Once the thread runs, set only under bg_mu_ (StopBackgroundThread),
  // so no bg_cv_ waiter misses them.
  std::atomic<bool> crashed_{false};
  std::atomic<bool> closing_{false};

  uint64_t next_file_id_ = 1;           // maint_mu_ / recovery
  // Stamped into every built filter's provenance; bumped by each
  // redesign wave, so tests can tell a rebuilt filter from its ancestor.
  // Starts at 1, so every built design has an epoch >= 1.
  std::atomic<uint64_t> design_epoch_{1};
  std::vector<size_t> compact_cursor_;  // round-robin pick per level

  std::unique_ptr<AtomicStats> stats_;

  // Last: it runs against every member above. Started by the
  // constructor, joined by StopBackgroundThread.
  std::thread bg_thread_;
};

}  // namespace proteus

#endif  // PROTEUS_LSM_DB_H_
