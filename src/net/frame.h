// Wire frame protocol: the length-prefixed binary envelope every message
// between dmt_site and dmt_coordinator travels in. The full layout and the
// per-message payload encodings are specified in docs/PROTOCOL.md (the
// golden-byte fixtures in tests/net_wire_test.cc pin them).
//
// Frame layout (little-endian, 16-byte header):
//
//   offset  size  field
//        0     4  magic "DMTW"
//        4     1  version (currently 1)
//        5     1  message type (MsgType)
//        6     2  reserved (zero)
//        8     4  payload length in bytes (uint32)
//       12     4  CRC-32 of the payload (IEEE reflected, poly 0xEDB88320)
//       16     …  payload
//
// A reader must reject a wrong magic or version, an unknown type, a
// payload length above kMaxFramePayload, and a CRC mismatch — rejection
// means a decode error surfaced to the caller, never an abort: frames
// arrive from the network and are not trusted.
#ifndef DMT_NET_FRAME_H_
#define DMT_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmt {
namespace net {

/// Frame header size in bytes; the payload starts at this offset.
inline constexpr size_t kFrameHeaderBytes = 16;
/// Version written (and required) by this implementation.
inline constexpr uint8_t kFrameVersion = 1;
/// Upper bound on a payload, as a corruption backstop: a flipped length
/// byte must not turn into a multi-gigabyte allocation. Generous next to
/// real payloads (the largest are sketch flushes: a site's FD buffer of
/// d-wide rows for MP1, at most 2k counters for P1).
inline constexpr uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// Message vocabulary. Values are wire format — append only, never
/// renumber. 4-7 are retired (per-protocol message frames, replaced by
/// kProtocol) and must never be reused.
enum class MsgType : uint8_t {
  kHello = 1,       ///< site -> coordinator handshake
  kWindowEnd = 2,   ///< site -> coordinator: window's messages all sent
  kBroadcast = 3,   ///< coordinator -> site: broadcast value for next window
  kSiteDone = 8,    ///< site -> coordinator: stream exhausted
  kShutdown = 9,    ///< coordinator -> site: tear the channel down
  kProtocol = 10,   ///< site -> coordinator: one protocol message, encoded
                    ///< by the handshake's protocol (docs/PROTOCOL.md)
};

/// True when `t` names a defined MsgType.
bool IsKnownMsgType(uint8_t t);

/// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320) of `data`.
uint32_t Crc32(const uint8_t* data, size_t n);

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(MsgType type, const uint8_t* payload, size_t n,
                 std::vector<uint8_t>* out);

/// Decoded frame header.
struct FrameHeader {
  MsgType type = MsgType::kShutdown;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

/// Validates the 16 header bytes (magic, version, known type, length
/// bound). Returns false and sets `*error` on any violation.
bool DecodeFrameHeader(const uint8_t* header, FrameHeader* out,
                       std::string* error);

/// Validates a received payload against the header's CRC.
bool CheckFrameCrc(const FrameHeader& header, const uint8_t* payload,
                   std::string* error);

}  // namespace net
}  // namespace dmt

#endif  // DMT_NET_FRAME_H_
