#include "lsm/sst.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/filter.h"
#include "hash/murmur3.h"
#include "lsm/ikey.h"
#include "lsm/rle.h"
#include "util/crc32c.h"
#include "util/posix_io.h"
#include "util/serial.h"

namespace proteus {
namespace {

constexpr uint64_t kSstMagic = 0x50524F5445555353ull;  // "PROTEUSS"
// Footer-version sentinels stored immediately before the magic in v2+
// footers. A v1 footer has n_entries in that slot, which can never equal
// these values ("PROTFTV2"/"PROTFTV3"/"PROTFTV4" as bytes), so the
// widths are unambiguous. v3 differs from v2 only in the index handles,
// which carry a per-block CRC32C (20 bytes instead of 16); v4 differs
// from v3 only in the value encoding (tag + seqno + user bytes, ikey.h).
constexpr uint64_t kFooterVersion2 = 0x32565446544F5250ull;
constexpr uint64_t kFooterVersion3 = 0x33565446544F5250ull;
constexpr uint64_t kFooterVersion4 = 0x34565446544F5250ull;
constexpr size_t kFooterV1Size = 32;
constexpr uint64_t kFilterChecksumSeed = 0xF117E12;
constexpr size_t kFooterV2Size = 72;
constexpr size_t kFooterV3Size = 72;
constexpr size_t kFooterV4Size = 72;
static_assert(kFooterV2Size == kFooterV3Size && kFooterV3Size == kFooterV4Size,
              "v3/v4 reuse the v2 footer layout; only the sentinel differs");
constexpr size_t kHandleV2Size = 16;  // offset u64 | size u64
constexpr size_t kHandleV3Size = 20;  // offset u64 | size u64 | crc32c u32

}  // namespace

SstWriter::SstWriter(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

void SstWriter::Add(std::string_view key, std::string_view value) {
  if (n_entries_ == 0) smallest_.assign(key);
  largest_.assign(key);
  last_key_in_block_.assign(key);
  data_block_.Add(key, value);
  ++n_entries_;
  if (data_block_.SizeEstimate() >= options_.block_size) FlushBlock();
}

void SstWriter::SetFilterBlock(std::string blob, uint64_t format) {
  filter_block_ = std::move(blob);
  filter_format_ = format;
}

void SstWriter::FlushBlock() {
  if (data_block_.empty()) return;
  std::string payload = data_block_.Finish();
  std::string on_disk;
  if (options_.compress) {
    on_disk = RleCompress(payload);
  } else {
    on_disk.push_back(0);  // raw tag
    on_disk.append(payload);
  }
  std::string handle;
  PutFixed64(&handle, offset_);
  PutFixed64(&handle, on_disk.size());
  if (options_.format_version >= 3) {
    // The CRC covers the exact bytes written to disk (compression tag
    // included), so damage is caught before decompression runs.
    PutFixed32(&handle, Crc32c(on_disk));
  }
  index_block_.Add(last_key_in_block_, handle);
  file_buffer_.append(on_disk);
  offset_ += on_disk.size();
  ++stats_.blocks_written;
  stats_.bytes_written += on_disk.size();
}

Status SstWriter::Finish() {
  FlushBlock();
  std::string index_payload = index_block_.Finish();
  std::string index_disk;
  index_disk.push_back(0);  // index stored raw
  index_disk.append(index_payload);
  uint64_t index_offset = offset_;
  file_buffer_.append(index_disk);
  offset_ += index_disk.size();
  std::string footer;
  if (options_.format_version <= 1) {
    // Legacy 32-byte footer: no filter block slot at all.
    PutFixed64(&footer, index_offset);
    PutFixed64(&footer, index_disk.size());
    PutFixed64(&footer, n_entries_);
    PutFixed64(&footer, kSstMagic);
  } else {
    uint64_t filter_offset = offset_;
    file_buffer_.append(filter_block_);
    offset_ += filter_block_.size();
    PutFixed64(&footer, index_offset);
    PutFixed64(&footer, index_disk.size());
    PutFixed64(&footer, n_entries_);
    PutFixed64(&footer, filter_offset);
    PutFixed64(&footer, filter_block_.size());
    PutFixed64(&footer, filter_format_);
    PutFixed64(&footer, Murmur3Bytes64(filter_block_.data(),
                                       filter_block_.size(),
                                       kFilterChecksumSeed));
    PutFixed64(&footer, options_.format_version >= 4   ? kFooterVersion4
                        : options_.format_version >= 3 ? kFooterVersion3
                                                       : kFooterVersion2);
    PutFixed64(&footer, kSstMagic);
  }
  file_buffer_.append(footer);
  offset_ += footer.size();

  FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError(Errno("cannot create SST " + path_));
  }
  // Capture the message at the failing call — fclose/unlink below would
  // clobber errno before a deferred Errno() could read it.
  Status s;
  size_t written =
      std::fwrite(file_buffer_.data(), 1, file_buffer_.size(), f);
  if (written != file_buffer_.size() || std::fflush(f) != 0) {
    s = Status::IOError(Errno("short write finishing SST " + path_));
  } else if (::fsync(fileno(f)) != 0) {
    // The file must be durable before the MANIFEST may reference it — a
    // crash after the manifest append must not find a hollow SST.
    s = Status::IOError(Errno("cannot fsync SST " + path_));
  }
  std::fclose(f);
  if (!s.ok()) {
    ::unlink(path_.c_str());
    return s;
  }
  return Status::OK();
}

SstReader::~SstReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool SstReader::ReadRaw(uint64_t offset, uint64_t size, std::string* out) const {
  out->resize(size);
  ssize_t got = ::pread(fd_, out->data(), size, static_cast<off_t>(offset));
  return got == static_cast<ssize_t>(size);
}

Status SstReader::Open(const std::string& path, uint64_t file_id,
                       BlockCache* cache) {
  path_ = path;
  file_id_ = file_id;
  cache_ = cache;
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return Status::IOError(Errno("cannot open SST " + path));
  off_t fsize = ::lseek(fd_, 0, SEEK_END);
  if (fsize < static_cast<off_t>(kFooterV1Size)) {
    return Status::Corruption("SST too small for a footer: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(fsize);
  std::string tail;
  if (!ReadRaw(file_size - kFooterV1Size, kFooterV1Size, &tail)) {
    return Status::IOError(Errno("cannot read SST footer: " + path));
  }
  if (LoadFixed64(tail.data() + 24) != kSstMagic) {
    return Status::Corruption("bad SST magic: " + path);
  }

  uint64_t index_offset, index_size;
  uint64_t filter_offset = 0, filter_size = 0, filter_format = 0;
  uint64_t filter_checksum = 0;
  const uint64_t sentinel = LoadFixed64(tail.data() + 16);
  if (file_size >= kFooterV3Size &&
      (sentinel == kFooterVersion2 || sentinel == kFooterVersion3 ||
       sentinel == kFooterVersion4)) {
    footer_version_ = sentinel == kFooterVersion4   ? 4
                      : sentinel == kFooterVersion3 ? 3
                                                    : 2;
    std::string footer;
    if (!ReadRaw(file_size - kFooterV3Size, kFooterV3Size, &footer)) {
      return Status::IOError(Errno("cannot read SST footer: " + path));
    }
    index_offset = LoadFixed64(footer.data());
    index_size = LoadFixed64(footer.data() + 8);
    n_entries_ = LoadFixed64(footer.data() + 16);
    filter_offset = LoadFixed64(footer.data() + 24);
    filter_size = LoadFixed64(footer.data() + 32);
    filter_format = LoadFixed64(footer.data() + 40);
    filter_checksum = LoadFixed64(footer.data() + 48);
  } else {
    // v1 footer: no filter block, 16-byte handles, no block CRCs.
    footer_version_ = 1;
    index_offset = LoadFixed64(tail.data());
    index_size = LoadFixed64(tail.data() + 8);
    n_entries_ = LoadFixed64(tail.data() + 16);
  }

  // Subtraction-form bounds checks: offset + size can wrap uint64 when a
  // torn footer write leaves garbage sizes.
  std::string index_disk;
  if (index_size > file_size || index_offset > file_size - index_size) {
    return Status::Corruption("SST index handle out of bounds: " + path);
  }
  if (!ReadRaw(index_offset, index_size, &index_disk)) {
    return Status::IOError(Errno("cannot read SST index: " + path));
  }
  std::string index_payload;
  if (!RleDecompress(index_disk, &index_payload)) {
    return Status::Corruption("SST index block undecodable: " + path);
  }
  if (!index_.Init(std::move(index_payload))) {
    return Status::Corruption("SST index block checksum mismatch: " + path);
  }
  // Every handle must have the width this footer version promises.
  const size_t handle_size =
      footer_version_ >= 3 ? kHandleV3Size : kHandleV2Size;
  for (size_t i = 0; i < index_.n_entries(); ++i) {
    if (index_.ValueAt(i).size() != handle_size) {
      return Status::Corruption("SST index handle malformed: " + path);
    }
  }

  // Filter-block damage (bad bounds, unknown wire format) degrades to
  // "no filter": the caller rebuilds from keys instead of crashing.
  if (filter_size > 0 && filter_format == Filter::kVersion &&
      filter_size <= file_size && filter_offset <= file_size - filter_size) {
    if (ReadRaw(filter_offset, filter_size, &filter_block_) &&
        Murmur3Bytes64(filter_block_.data(), filter_block_.size(),
                       kFilterChecksumSeed) == filter_checksum) {
      filter_format_ = filter_format;
    } else {
      filter_block_.clear();
    }
  }
  return Status::OK();
}

std::unique_ptr<SstFilter> SstReader::LoadFilter(Status* status) const {
  if (filter_block_.empty()) {
    if (status != nullptr) *status = Status::NotFound("no filter block");
    return nullptr;
  }
  return DeserializeSstFilter(filter_block_, status);
}

bool SstReader::ParseHandle(size_t block_index, BlockHandle* out) const {
  std::string_view handle = index_.ValueAt(block_index);
  const size_t expected =
      footer_version_ >= 3 ? kHandleV3Size : kHandleV2Size;
  if (handle.size() != expected) return false;
  out->offset = LoadFixed64(handle.data());
  out->size = LoadFixed64(handle.data() + 8);
  out->has_crc = footer_version_ >= 3;
  out->crc = out->has_crc ? LoadFixed32(handle.data() + 16) : 0;
  return true;
}

Status SstReader::ReadDataBlock(size_t block_index, BlockReader* out,
                                const BlockReadOptions& opts) const {
  BlockHandle handle;
  if (!ParseHandle(block_index, &handle)) {
    return Status::Corruption("SST index handle malformed: " + path_);
  }
  if (opts.use_cache && cache_ != nullptr) {
    auto cached = cache_->Get(file_id_, handle.offset);
    if (cached != nullptr) {
      // Cached payloads passed the in-block checksum on insertion.
      if (out->Init(*cached)) return Status::OK();
      return Status::Corruption("cached block unparsable: " + path_);
    }
  }
  std::string disk;
  if (!ReadRaw(handle.offset, handle.size, &disk)) {
    return Status::IOError(Errno("cannot read data block: " + path_));
  }
  // verify_checksums=false skips only this redundant handle CRC; the
  // in-block checksum below still runs (Init cannot parse without it),
  // so a cached block is never wholly unverified.
  if (opts.verify_checksums && handle.has_crc && Crc32c(disk) != handle.crc) {
    return Status::Corruption("data block CRC mismatch: " + path_);
  }
  auto payload = std::make_shared<std::string>();
  if (!RleDecompress(disk, payload.get())) {
    return Status::Corruption("data block undecodable: " + path_);
  }
  if (!out->Init(*payload)) {
    return Status::Corruption("data block checksum mismatch: " + path_);
  }
  if (opts.use_cache && opts.fill_cache && cache_ != nullptr) {
    cache_->Insert(file_id_, handle.offset, payload);
  }
  return Status::OK();
}

Status SstReader::VerifyChecksums() const {
  for (size_t b = 0; b < index_.n_entries(); ++b) {
    BlockReader block;
    Status s = ReadDataBlock(b, &block, kNoCacheRead);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

int SstReader::SeekInRange(std::string_view lo, std::string_view hi,
                           uint64_t snapshot, const BlockReadOptions& opts,
                           SeekEntry* out, Status* status) const {
  RangeCursor cursor;
  cursor.Init(this, opts, snapshot);
  const int rc = cursor.Seek(lo, hi, status);
  if (rc == 0) *out = cursor.entry();
  return rc;
}

int SstReader::RangeCursor::Seek(std::string_view lo, std::string_view hi,
                                 Status* status) {
  block_ = reader_->index_.LowerBound(lo);
  loaded_ = false;
  pos_ = 0;
  return ScanForward(lo, hi, status);
}

int SstReader::RangeCursor::SkipTo(std::string_view lo, std::string_view hi,
                                   Status* status) {
  // Resume from where the cursor stands; entries before `lo` (the old
  // position's key and anything between) are skipped by the scan.
  return ScanForward(lo, hi, status);
}

int SstReader::RangeCursor::ScanForward(std::string_view lo,
                                        std::string_view hi, Status* status) {
  for (;;) {
    if (!loaded_) {
      if (block_ >= reader_->n_blocks()) return 1;
      Status s = reader_->ReadDataBlock(block_, &blockr_, opts_);
      if (!s.ok()) {
        if (status != nullptr) *status = std::move(s);
        return -1;
      }
      loaded_ = true;
      // Entries below the scan floor cannot win; binary-search past them
      // whenever a block is entered fresh.
      pos_ = blockr_.LowerBound(lo);
    }
    for (; pos_ < blockr_.n_entries(); ++pos_) {
      std::string_view k = blockr_.KeyAt(pos_);
      if (k < lo) continue;  // SkipTo resume: stale prefix of this block
      if (k > hi) return 1;
      ParsedValue parsed;
      if (!ParseSstValue(reader_->footer_version_, blockr_.ValueAt(pos_),
                         &parsed)) {
        if (status != nullptr) {
          *status = Status::Corruption("SST value malformed: " +
                                       reader_->path_);
        }
        return -1;
      }
      // Newest-first version runs: the first entry at or under the
      // horizon is the newest visible version of its key.
      if (parsed.seqno > snapshot_) continue;
      entry_.key.assign(k);
      entry_.value.assign(parsed.user_value);
      entry_.seqno = parsed.seqno;
      entry_.tombstone = parsed.tombstone();
      return 0;
    }
    ++block_;
    loaded_ = false;
  }
}

}  // namespace proteus
