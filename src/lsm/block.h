// SST block format.
//
// A data block holds sorted key/value entries followed by a fixed-width
// offset array (for in-block binary search) and a 32-bit checksum:
//
//   entry*  := varint(klen) varint(vlen) key value
//   trailer := uint32 offset[n] | uint32 n | uint32 checksum
//
// Blocks are compressed with the RLE codec before hitting disk; the
// checksum covers the uncompressed payload (corruption is detected after
// decompression).
//
// A BlockReader does not own its bytes: it shares an immutable payload
// (shared_ptr<const string>) with the block cache. Init verifies a
// payload once, when it is decoded from disk; Attach parses a payload
// that already passed Init (a block-cache hit) in O(1), without copying
// or re-checksumming it.

#ifndef PROTEUS_LSM_BLOCK_H_
#define PROTEUS_LSM_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace proteus {

class BlockBuilder {
 public:
  void Add(std::string_view key, std::string_view value);
  bool empty() const { return offsets_.empty(); }
  size_t SizeEstimate() const {
    return buffer_.size() + offsets_.size() * 4 + 8;
  }
  /// Seals the block and returns the uncompressed payload. Resets state.
  std::string Finish();

 private:
  std::string buffer_;
  std::vector<uint32_t> offsets_;
};

class BlockReader {
 public:
  /// Parses an uncompressed block and verifies it: the in-block checksum
  /// and every entry offset. Shares `payload` (no copy). On false the
  /// reader is left empty.
  bool Init(std::shared_ptr<const std::string> payload);
  bool Init(std::string payload) {
    return Init(std::make_shared<const std::string>(std::move(payload)));
  }

  /// Shares a payload that already passed Init (a block-cache hit):
  /// reads only the trailer, so the cost is a refcount bump.
  void Attach(std::shared_ptr<const std::string> verified);

  size_t n_entries() const { return n_; }
  std::string_view KeyAt(size_t i) const;
  std::string_view ValueAt(size_t i) const;

  /// Index of the first entry with key >= `key` (== n_entries() if none).
  size_t LowerBound(std::string_view key) const;

 private:
  void Entry(size_t i, std::string_view* key, std::string_view* value) const;

  /// Reads n and the offset array's position from the trailer; false when
  /// the payload is too short to hold them.
  bool ParseTrailer();
  /// The in-block checksum and offset bounds; after ParseTrailer.
  bool Verify() const;

  std::shared_ptr<const std::string> payload_;
  size_t n_ = 0;
  const char* offsets_base_ = nullptr;
};

}  // namespace proteus

#endif  // PROTEUS_LSM_BLOCK_H_
