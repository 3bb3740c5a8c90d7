// Write-ahead log: the durability backbone of miniLSM's write path.
//
// Every Put/Delete is framed as a length-prefixed, CRC32C-stamped record
// and appended to a WAL segment *before* it touches the memtable, so a
// process kill between flushes loses nothing that was acknowledged.
//
// Record framing (byte-accurate spec in docs/FORMAT.md):
//
//   record  := length u32 | crc32c(payload) u32 | payload[length]
//   payload := op u8 (3 = Put, 4 = Delete) | seqno u64 |
//              klen u32 | key[klen] | vlen u32 | value[vlen]
//
// The seqno is the monotonic sequence number the Db's group-commit
// leader assigned to the write. Because the leader appends the batch and
// applies it to the memtable in the same critical section, WAL order,
// memtable order, and replay order are one and the same — replay
// re-applies each record at its original seqno, so recovery reproduces
// the exact pre-crash version history (including concurrent same-key
// writes).
//
// Segments: the log is a sequence of files `WAL-<n>` (n decimal,
// increasing). Every memtable swap rotates to a fresh segment; a segment
// is deleted once every memtable whose writes it holds has been flushed
// to SSTs. Recovery replays all segments in numeric order. Replay is
// idempotent across segments: an entry applied twice lands at the same
// (key, seqno) slot.
//
// Group commit lives in the Db layer (the write-queue leader batches
// concurrent writers); WalWriter here is a single-appender file handle.
// Replay tolerates a torn tail — a record cut short by the crash that
// ended the previous process — by stopping at the first frame that does
// not parse and reporting the clean-prefix length, which the caller
// truncates to before appending again. A write is acknowledged only
// after its whole frame is written and, under DbOptions::wal_sync, after
// the fdatasync. So a torn record was never acknowledged, and dropping it
// loses nothing the client was promised; the one exception is a machine
// crash with wal_sync off, which can tear written but unsynced frames.
// A complete,
// CRC-valid frame is not crash debris: an op other than 3/4 is a log
// this build cannot read (NotSupported), and a payload that does not
// parse is damage (Corruption). Either way replay stops and the file is
// left as it is.

#ifndef PROTEUS_LSM_WAL_H_
#define PROTEUS_LSM_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace proteus {

inline constexpr uint8_t kWalOpPutSeq = 3;
inline constexpr uint8_t kWalOpDeleteSeq = 4;

/// Frames one operation (kWalOpPutSeq or kWalOpDeleteSeq) as a WAL record
/// (length + CRC + payload), ready to append. `value` must be empty for
/// deletes.
std::string EncodeWalRecord(uint8_t op, uint64_t seqno, std::string_view key,
                            std::string_view value);

/// Append handle for the active WAL segment. NOT internally synchronized
/// for appends: the Db's group-commit leader is the only appender (leaders
/// are serialized by the write queue), and rotation (Open on a new path)
/// is mutually excluded with appends by the Db's pipeline lock. stats()
/// is safe to call from any thread.
class WalWriter {
 public:
  struct Stats {
    uint64_t records = 0;  // records durably appended (failed batches
                           // are rolled back and not counted)
    uint64_t batches = 0;  // successful group-commit appends
    uint64_t syncs = 0;    // fdatasync() calls (<= batches; == when sync on)
  };

  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if absent) a segment for appending. Reopening on a
  /// new path rotates: the old fd is closed, byte accounting restarts at
  /// the new file's size, stats keep accumulating across segments.
  Status Open(const std::string& path);

  /// Appends a batch of framed records (concatenated EncodeWalRecord
  /// output) in one write() and, when `sync`, one fdatasync().
  ///
  /// A failed batch (short write, fsync error) is rolled back: the log
  /// is truncated to its last durable record boundary so the rejected
  /// records can never replay, and later appends land after clean
  /// bytes. If even the rollback fails, the writer is poisoned — every
  /// subsequent Append returns the error instead of appending after
  /// garbage that would silently end replay early.
  Status Append(std::string_view batch, uint64_t n_records, bool sync);

  /// Durable bytes in the active segment (the size-rotation trigger).
  /// Safe to read from any thread.
  uint64_t file_bytes() const {
    return committed_bytes_.load(std::memory_order_relaxed);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  /// Test hook: sleep this long inside each sync, forcing concurrent
  /// committers to pile up behind the group-commit leader so batching is
  /// observable deterministically.
  void TEST_SetSyncDelayMicros(uint32_t micros) { sync_delay_micros_ = micros; }

 private:
  Status WriteAndSync(std::string_view buf, bool sync);

  int fd_ = -1;
  mutable std::mutex stats_mu_;
  Stats stats_;
  uint32_t sync_delay_micros_ = 0;
  // Log length after the last successful batch: the rollback target when
  // an append fails. Only the single appender writes it; the flush
  // trigger reads it from other threads, hence atomic.
  std::atomic<uint64_t> committed_bytes_{0};
  Status poisoned_;  // sticky failure once a rollback itself fails
};

/// Replays one segment in append order, invoking
/// `apply(op, seqno, key, value)` for every intact record. A torn tail
/// stops the replay: `*valid_bytes` is set to the clean-prefix length
/// (truncate to it before reusing the file) and `*torn_tail` reports
/// whether anything was cut. A missing file replays as empty. Returns
/// NotSupported for a CRC-valid record whose op is not 3 or 4, Corruption
/// naming the offset for a CRC-valid record whose payload does not parse
/// (in both cases the file must not be truncated), and IOError when
/// reading the file fails — torn frames and trailing zero fill are
/// expected crash debris, not corruption.
Status WalReplay(
    const std::string& path,
    const std::function<void(uint8_t op, uint64_t seqno, std::string_view key,
                             std::string_view value)>& apply,
    uint64_t* valid_bytes, bool* torn_tail);

}  // namespace proteus

#endif  // PROTEUS_LSM_WAL_H_
