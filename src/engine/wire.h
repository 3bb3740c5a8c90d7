// The query engine's binary wire protocol, shared by the epoll server
// (engine/server.h), the load generator (bench/bench_qps.cc), and the
// loopback smoke test.
//
// A connection carries a stream of length-prefixed frames; requests and
// responses alternate per frame (one response per request, in order):
//
//   frame   := length u32 LE | payload[length]
//   payload := op u8 | body
//
//   op 1  MultiSeek request : n u32 | n x (lo lp, hi lp)
//   op 2  Results response  : n u32 | n x (found u8, key lp, value lp)
//   op 3  Ping request      : (empty)
//   op 4  Pong response     : (empty)
//   op 255 Error response   : message lp          (connection closes after)
//
//   lp := length u32 | raw bytes
//
// Frames above kWireMaxFrameBytes are a protocol violation: the server
// answers with an Error frame and closes. Decoders never trust lengths —
// truncated or oversized bodies fail cleanly.

#ifndef PROTEUS_ENGINE_WIRE_H_
#define PROTEUS_ENGINE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lsm/db.h"

namespace proteus {

constexpr uint8_t kWireOpMultiSeek = 1;
constexpr uint8_t kWireOpResults = 2;
constexpr uint8_t kWireOpPing = 3;
constexpr uint8_t kWireOpPong = 4;
constexpr uint8_t kWireOpError = 255;

/// Upper bound on one frame's payload (16 MiB): large enough for any
/// sane batch, small enough that a corrupt length cannot balloon a
/// connection's buffer.
constexpr uint32_t kWireMaxFrameBytes = 16u << 20;

/// Appends `payload` as one framed message.
void WireAppendFrame(std::string* out, std::string_view payload);

enum class WireFrameStatus {
  kNeedMore,  // buffer holds a partial frame; read more bytes
  kFrame,     // one payload extracted and consumed from the buffer
  kTooLarge,  // declared length exceeds kWireMaxFrameBytes: protocol error
};

/// Splits the first complete frame off the front of `buffer`: `payload`
/// views its bytes (valid while the buffer's are) and `buffer` advances
/// past it, so a loop until kNeedMore consumes every complete frame
/// without moving any bytes.
WireFrameStatus WireExtractFrame(std::string_view* buffer,
                                 std::string_view* payload);

// --- Requests ---

/// Appends a framed MultiSeek request for `batch`.
void WireEncodeMultiSeekRequest(const QueryBatch& batch, std::string* out);
/// Parses a MultiSeek request payload (op byte included). False on any
/// malformed byte.
bool WireDecodeMultiSeekRequest(std::string_view payload, QueryBatch* batch);

void WireEncodePingRequest(std::string* out);

// --- Responses ---

/// Appends a framed Results response. Only found/key/value travel;
/// per-query read errors (SeekResult::status) stay server-side — the
/// server logs them in its stats rather than shipping them to clients.
void WireEncodeResultsResponse(const std::vector<MultiSeekResult>& results,
                               std::string* out);
bool WireDecodeResultsResponse(std::string_view payload,
                               std::vector<MultiSeekResult>* results);

void WireEncodePongResponse(std::string* out);

void WireEncodeErrorResponse(std::string_view message, std::string* out);
/// Returns the op byte of a payload (0 when empty).
uint8_t WirePeekOp(std::string_view payload);

}  // namespace proteus

#endif  // PROTEUS_ENGINE_WIRE_H_
