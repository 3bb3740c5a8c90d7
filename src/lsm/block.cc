#include "lsm/block.h"

#include <cstring>

#include "hash/clhash.h"

namespace proteus {
namespace {

void PutVarint32(std::string* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

const char* GetVarint32(const char* p, const char* limit, uint32_t* v) {
  *v = 0;
  int shift = 0;
  while (p < limit && shift <= 28) {
    uint8_t byte = static_cast<uint8_t>(*p++);
    *v |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return p;
    shift += 7;
  }
  return nullptr;
}

uint32_t Checksum(std::string_view data) {
  return static_cast<uint32_t>(ClHash64(data, 0xB10CC8EC) & 0xFFFFFFFF);
}

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

void BlockBuilder::Add(std::string_view key, std::string_view value) {
  offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
  PutVarint32(&buffer_, static_cast<uint32_t>(key.size()));
  PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
  buffer_.append(key);
  buffer_.append(value);
}

std::string BlockBuilder::Finish() {
  std::string out = std::move(buffer_);
  size_t entries_size = out.size();
  for (uint32_t off : offsets_) PutFixed32(&out, off);
  PutFixed32(&out, static_cast<uint32_t>(offsets_.size()));
  PutFixed32(&out, Checksum(std::string_view(out.data(), entries_size)));
  buffer_.clear();
  offsets_.clear();
  return out;
}

bool BlockReader::ParseTrailer() {
  const std::string& p = *payload_;
  if (p.size() < 8) return false;
  n_ = GetFixed32(p.data() + p.size() - 8);
  const size_t trailer = 8 + n_ * 4;
  if (p.size() < trailer) return false;
  offsets_base_ = p.data() + p.size() - trailer;
  return true;
}

bool BlockReader::Verify() const {
  const std::string& p = *payload_;
  const size_t entries_size = static_cast<size_t>(offsets_base_ - p.data());
  if (Checksum(std::string_view(p.data(), entries_size)) !=
      GetFixed32(p.data() + p.size() - 4)) {
    return false;
  }
  // Validate offsets are in bounds and parseable.
  for (size_t i = 0; i < n_; ++i) {
    if (GetFixed32(offsets_base_ + i * 4) >= entries_size) return false;
  }
  return true;
}

bool BlockReader::Init(std::shared_ptr<const std::string> payload) {
  payload_ = std::move(payload);
  if (ParseTrailer() && Verify()) return true;
  *this = BlockReader();
  return false;
}

void BlockReader::Attach(std::shared_ptr<const std::string> verified) {
  payload_ = std::move(verified);
  ParseTrailer();  // cannot fail: the payload passed Init
}

void BlockReader::Entry(size_t i, std::string_view* key,
                        std::string_view* value) const {
  uint32_t off = GetFixed32(offsets_base_ + i * 4);
  const char* p = payload_->data() + off;
  const char* limit = offsets_base_;
  uint32_t klen, vlen;
  p = GetVarint32(p, limit, &klen);
  p = GetVarint32(p, limit, &vlen);
  *key = std::string_view(p, klen);
  *value = std::string_view(p + klen, vlen);
}

std::string_view BlockReader::KeyAt(size_t i) const {
  std::string_view k, v;
  Entry(i, &k, &v);
  return k;
}

std::string_view BlockReader::ValueAt(size_t i) const {
  std::string_view k, v;
  Entry(i, &k, &v);
  return v;
}

size_t BlockReader::LowerBound(std::string_view key) const {
  size_t lo = 0, hi = n_;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (KeyAt(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace proteus
