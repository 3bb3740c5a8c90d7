#include "lsm/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "util/crc32c.h"
#include "util/posix_io.h"
#include "util/serial.h"

namespace proteus {

std::string EncodeWalRecord(uint8_t op, uint64_t seqno, std::string_view key,
                            std::string_view value) {
  std::string payload;
  payload.reserve(1 + 8 + 4 + key.size() + 4 + value.size());
  payload.push_back(static_cast<char>(op));
  PutFixed64(&payload, seqno);
  PutFixed32(&payload, static_cast<uint32_t>(key.size()));
  payload.append(key);
  PutFixed32(&payload, static_cast<uint32_t>(value.size()));
  payload.append(value);

  std::string record;
  record.reserve(8 + payload.size());
  AppendCrcFrame(&record, payload);
  return record;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Open(const std::string& path) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::IOError(Errno("cannot open WAL " + path));
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError(Errno("cannot stat WAL " + path));
  }
  // The caller (recovery) has already cut any torn tail, so the whole
  // existing file is durable record bytes.
  committed_bytes_.store(static_cast<uint64_t>(st.st_size),
                         std::memory_order_relaxed);
  poisoned_ = Status::OK();
  return Status::OK();
}

Status WalWriter::WriteAndSync(std::string_view buf, bool sync) {
  Status s = WriteAllFd(fd_, buf, "WAL write");
  if (!s.ok()) return s;
  if (sync) {
    if (sync_delay_micros_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(sync_delay_micros_));
    }
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(Errno("WAL fdatasync failed"));
    }
  }
  return Status::OK();
}

Status WalWriter::Append(std::string_view batch, uint64_t n_records,
                         bool sync) {
  if (fd_ < 0) return Status::IOError("WAL is not open");
  if (!poisoned_.ok()) return poisoned_;

  Status s = WriteAndSync(batch, sync);
  if (s.ok()) {
    committed_bytes_.fetch_add(batch.size(), std::memory_order_relaxed);
  } else {
    // Roll the log back to its last durable record boundary so (a) the
    // rejected batch can never replay after "a rejected write stays
    // invisible" was promised, and (b) a half-written frame cannot sit
    // in the middle of the log ending replay early for later appends.
    if (::ftruncate(fd_, static_cast<off_t>(committed_bytes_.load(
                             std::memory_order_relaxed))) != 0) {
      poisoned_ = Status::IOError(
          Errno("WAL rollback failed after: " + s.ToString()));
      return poisoned_;
    }
    return s;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    // Failed batches were rolled back: they never count as appended.
    stats_.records += n_records;
    ++stats_.batches;
    if (sync) ++stats_.syncs;
  }
  return Status::OK();
}

Status WalReplay(
    const std::string& path,
    const std::function<void(uint8_t op, uint64_t seqno, std::string_view key,
                             std::string_view value)>& apply,
    uint64_t* valid_bytes, bool* torn_tail) {
  if (valid_bytes != nullptr) *valid_bytes = 0;
  if (torn_tail != nullptr) *torn_tail = false;

  std::string content;
  bool found = false;
  Status read = ReadFileToString(path, &content, &found);
  if (!read.ok()) return read;
  if (!found) return Status::OK();  // no log: nothing to replay

  size_t offset = 0;
  auto torn = [&](void) {
    if (valid_bytes != nullptr) *valid_bytes = offset;
    if (torn_tail != nullptr) *torn_tail = offset < content.size();
    return Status::OK();
  };

  while (offset + 8 <= content.size()) {
    const uint32_t length = LoadFixed32(content.data() + offset);
    const uint32_t crc = LoadFixed32(content.data() + offset + 4);
    if (offset + 8 + length > content.size()) return torn();
    std::string_view payload(content.data() + offset + 8, length);
    if (Crc32c(payload) != crc) return torn();
    // Eight zero bytes frame an empty payload whose CRC is 0: zeros from
    // here to EOF are fill a crash left past the last write, not a frame.
    if (payload.empty() &&
        content.find_first_not_of('\0', offset) == std::string::npos) {
      return torn();
    }

    // A whole frame that passed its CRC is not crash debris: it was
    // written, so a payload that does not parse is damage, and cutting
    // the log there would drop it and every record after it.
    auto damaged = [&](const char* what) {
      return Status::Corruption("WAL record at offset " +
                                std::to_string(offset) + " " + what + ": " +
                                path);
    };
    std::string_view cursor = payload;
    if (cursor.empty()) return damaged("has an empty payload");
    const uint8_t op = static_cast<uint8_t>(cursor.front());
    cursor.remove_prefix(1);
    if (op != kWalOpPutSeq && op != kWalOpDeleteSeq) {
      // Written by a log format this build does not read.
      return Status::NotSupported("WAL record op " + std::to_string(op) +
                                  " at offset " + std::to_string(offset) +
                                  " (this build reads only ops 3 and 4): " +
                                  path);
    }
    uint64_t seqno = 0;
    uint32_t klen, vlen;
    if (!GetFixed64(&cursor, &seqno)) return damaged("ends inside its seqno");
    if (!GetFixed32(&cursor, &klen) || cursor.size() < klen) {
      return damaged("has a key length past its payload");
    }
    std::string_view key = cursor.substr(0, klen);
    cursor.remove_prefix(klen);
    if (!GetFixed32(&cursor, &vlen) || cursor.size() != vlen) {
      return damaged("has a value length that does not end its payload");
    }
    std::string_view value = cursor.substr(0, vlen);
    if (op == kWalOpDeleteSeq && vlen != 0) {
      return damaged("is a Delete carrying a value");
    }

    apply(op, seqno, key, value);
    offset += 8 + length;
  }
  return torn();
}

}  // namespace proteus
