#include "engine/wire.h"

#include <cstring>

#include "util/serial.h"

namespace proteus {
namespace {

// u32-length-prefixed byte string (the wire's `lp`; serial.h's
// PutLengthPrefixed is u64 and stays internal-format only).
void PutLp32(std::string* out, std::string_view s) {
  PutFixed32(out, static_cast<uint32_t>(s.size()));
  if (!s.empty()) out->append(s.data(), s.size());
}

bool GetLp32(std::string_view* in, std::string* out) {
  uint32_t n;
  if (!GetFixed32(in, &n)) return false;
  if (in->size() < n || n > kWireMaxFrameBytes) return false;
  out->assign(in->data(), n);
  in->remove_prefix(n);
  return true;
}

bool ConsumeOp(std::string_view* in, uint8_t op) {
  if (in->empty() || static_cast<uint8_t>(in->front()) != op) return false;
  in->remove_prefix(1);
  return true;
}

}  // namespace

void WireAppendFrame(std::string* out, std::string_view payload) {
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
}

WireFrameStatus WireExtractFrame(std::string_view* buffer,
                                 std::string_view* payload) {
  if (buffer->size() < 4) return WireFrameStatus::kNeedMore;
  const uint32_t length = LoadFixed32(buffer->data());
  if (length > kWireMaxFrameBytes) return WireFrameStatus::kTooLarge;
  if (buffer->size() < 4 + static_cast<size_t>(length)) {
    return WireFrameStatus::kNeedMore;
  }
  *payload = buffer->substr(4, length);
  buffer->remove_prefix(4 + static_cast<size_t>(length));
  return WireFrameStatus::kFrame;
}

void WireEncodeMultiSeekRequest(const QueryBatch& batch, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(kWireOpMultiSeek));
  PutFixed32(&payload, static_cast<uint32_t>(batch.size()));
  for (const StrRangeQuery& q : batch) {
    PutLp32(&payload, q.lo);
    PutLp32(&payload, q.hi);
  }
  WireAppendFrame(out, payload);
}

bool WireDecodeMultiSeekRequest(std::string_view payload, QueryBatch* batch) {
  if (!ConsumeOp(&payload, kWireOpMultiSeek)) return false;
  uint32_t n;
  if (!GetFixed32(&payload, &n)) return false;
  // 8 bytes of length prefixes per query at minimum: caps n against the
  // actual payload size before the reserve.
  if (static_cast<uint64_t>(n) * 8 > payload.size()) return false;
  batch->clear();
  batch->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    StrRangeQuery q;
    if (!GetLp32(&payload, &q.lo) || !GetLp32(&payload, &q.hi)) return false;
    batch->push_back(std::move(q));
  }
  return payload.empty();
}

void WireEncodePingRequest(std::string* out) {
  std::string payload(1, static_cast<char>(kWireOpPing));
  WireAppendFrame(out, payload);
}

void WireEncodeResultsResponse(const std::vector<MultiSeekResult>& results,
                               std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(kWireOpResults));
  PutFixed32(&payload, static_cast<uint32_t>(results.size()));
  for (const MultiSeekResult& r : results) {
    payload.push_back(r.found ? 1 : 0);
    PutLp32(&payload, r.found ? r.key : std::string_view());
    PutLp32(&payload, r.found ? r.value : std::string_view());
  }
  WireAppendFrame(out, payload);
}

bool WireDecodeResultsResponse(std::string_view payload,
                               std::vector<MultiSeekResult>* results) {
  if (!ConsumeOp(&payload, kWireOpResults)) return false;
  uint32_t n;
  if (!GetFixed32(&payload, &n)) return false;
  if (static_cast<uint64_t>(n) * 9 > payload.size()) return false;
  results->clear();
  results->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (payload.empty()) return false;
    (*results)[i].found = payload.front() != 0;
    payload.remove_prefix(1);
    if (!GetLp32(&payload, &(*results)[i].key) ||
        !GetLp32(&payload, &(*results)[i].value)) {
      return false;
    }
  }
  return payload.empty();
}

void WireEncodePongResponse(std::string* out) {
  std::string payload(1, static_cast<char>(kWireOpPong));
  WireAppendFrame(out, payload);
}

void WireEncodeErrorResponse(std::string_view message, std::string* out) {
  std::string payload;
  payload.push_back(static_cast<char>(kWireOpError));
  PutLp32(&payload, message);
  WireAppendFrame(out, payload);
}

uint8_t WirePeekOp(std::string_view payload) {
  return payload.empty() ? 0 : static_cast<uint8_t>(payload.front());
}

}  // namespace proteus
