// Internal value encoding shared by the memtable, WAL, and SSTs.
//
// The Db layer never stores a user value raw: every version of a key
// carries an operation tag (live value vs tombstone) and the sequence
// number the group-commit leader assigned to the write. Two encodings
// exist:
//
//   memtable / WAL payload ("mem value"):  tag u8 | user value
//       (the seqno travels beside it — a skiplist node field, a WAL
//        payload field — so it is not duplicated inside the bytes)
//   SST value:                             tag u8 | seqno u64 LE | user value

#ifndef PROTEUS_LSM_IKEY_H_
#define PROTEUS_LSM_IKEY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/serial.h"

namespace proteus {

inline constexpr uint8_t kTagValue = 0;
inline constexpr uint8_t kTagTombstone = 1;

/// Snapshot horizon meaning "latest": every committed seqno is visible.
inline constexpr uint64_t kMaxSequence = ~uint64_t{0};

/// One decoded SST version of a key.
struct ParsedValue {
  uint8_t tag = kTagValue;
  uint64_t seqno = 0;
  std::string_view user_value;
  bool tombstone() const { return tag == kTagTombstone; }
};

/// Splits a memtable/WAL value (tag u8 | user value).
inline bool ParseInternalValue(std::string_view mem, uint8_t* tag,
                               std::string_view* user_value) {
  if (mem.empty()) return false;
  *tag = static_cast<uint8_t>(mem.front());
  *user_value = mem.substr(1);
  return true;
}

/// tag u8 | seqno u64 | user value — what an SST stores.
inline std::string MakeSstValueV4(uint8_t tag, uint64_t seqno,
                                  std::string_view value) {
  std::string out;
  out.reserve(1 + 8 + value.size());
  out.push_back(static_cast<char>(tag));
  PutFixed64(&out, seqno);
  out.append(value);
  return out;
}

/// Decodes a raw SST value; false when it is too short to hold the
/// tag and seqno.
inline bool ParseSstValue(std::string_view raw, ParsedValue* out) {
  if (raw.size() < 9) return false;
  out->tag = static_cast<uint8_t>(raw.front());
  out->seqno = LoadFixed64(raw.data() + 1);
  out->user_value = raw.substr(9);
  return true;
}

}  // namespace proteus

#endif  // PROTEUS_LSM_IKEY_H_
