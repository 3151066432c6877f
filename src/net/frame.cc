#include "net/frame.h"

#include "util/codec.h"
#include "util/contracts.h"

namespace dmt {
namespace net {
namespace {

constexpr char kMagic[4] = {'D', 'M', 'T', 'W'};

// Table-driven CRC-32, table built once per process (deterministic: the
// table depends only on the polynomial).
const uint32_t* CrcTable() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

bool IsKnownMsgType(uint8_t t) {
  // 4-7 are retired.
  return (t >= 1 && t <= 3) || (t >= 8 && t <= 10);
}

uint32_t Crc32(const uint8_t* data, size_t n) {
  const uint32_t* table = CrcTable();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendFrame(MsgType type, const uint8_t* payload, size_t n,
                 std::vector<uint8_t>* out) {
  char header[kFrameHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutLE<uint8_t>(header, 4, kFrameVersion);
  PutLE<uint8_t>(header, 5, static_cast<uint8_t>(type));
  PutLE<uint32_t>(header, 8, static_cast<uint32_t>(n));
  PutLE<uint32_t>(header, 12, Crc32(payload, n));
  const size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + n);
  std::memcpy(out->data() + at, header, kFrameHeaderBytes);
  if (n != 0) std::memcpy(out->data() + at + kFrameHeaderBytes, payload, n);
}

DMT_UNTRUSTED_INPUT
bool DecodeFrameHeader(const uint8_t* header, FrameHeader* out,
                       std::string* error) {
  const char* h = reinterpret_cast<const char*>(header);
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    if (error != nullptr) *error = "frame: bad magic";
    return false;
  }
  const uint8_t version = GetLE<uint8_t>(h, 4);
  if (version != kFrameVersion) {
    if (error != nullptr) {
      *error = "frame: unsupported version " + std::to_string(version);
    }
    return false;
  }
  const uint8_t type = GetLE<uint8_t>(h, 5);
  if (!IsKnownMsgType(type)) {
    if (error != nullptr) {
      *error = "frame: unknown message type " + std::to_string(type);
    }
    return false;
  }
  const uint32_t len = GetLE<uint32_t>(h, 8);
  if (len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "frame: payload length " + std::to_string(len) +
               " exceeds the " + std::to_string(kMaxFramePayload) +
               "-byte bound";
    }
    return false;
  }
  out->type = static_cast<MsgType>(type);
  out->payload_len = len;
  out->crc = GetLE<uint32_t>(h, 12);
  return true;
}

DMT_UNTRUSTED_INPUT
bool CheckFrameCrc(const FrameHeader& header, const uint8_t* payload,
                   std::string* error) {
  const uint32_t crc = Crc32(payload, header.payload_len);
  if (crc != header.crc) {
    if (error != nullptr) *error = "frame: payload CRC mismatch";
    return false;
  }
  return true;
}

}  // namespace net
}  // namespace dmt
