// Payload encodings of the transport's own frames (docs/PROTOCOL.md):
// handshake, window marker, broadcast and teardown. Protocol messages
// travel in kProtocol frames, encoded by each protocol's message type next
// to its cost (stream/protocol_core.h).
//
// Each message type is a struct with a field list (util/codec.h) that
// EncodePayload (append payload bytes) and DecodePayload (parse payload
// bytes, false on malformed input) run. Encodings are exact: doubles
// travel as their 8-byte little-endian IEEE-754 images, so a decoded
// value is bit-identical to the encoded one — the property the
// transport-equivalence tests (in-process vs TCP, bit-identical sketches)
// rest on. Decoders never abort; wire input is untrusted.
#ifndef DMT_NET_MESSAGES_H_
#define DMT_NET_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "util/codec.h"
#include "util/contracts.h"

namespace dmt {
namespace net {

/// Site -> coordinator handshake, first frame on every channel.
struct HelloMsg {
  uint32_t site = 0;        ///< this channel's site id (0-based)
  uint32_t num_sites = 0;   ///< m, so the coordinator can cross-check
  uint64_t num_windows = 0; ///< synchronization windows the site will run
  std::string protocol;     ///< registered protocol name, e.g. "p1"

  template <typename IO, typename M>
  static bool Fields(IO& io, M& m) {
    return io.Field(m.site) && io.Field(m.num_sites) &&
           io.Field(m.num_windows) && io.Field(m.protocol);
  }
};

/// Site -> coordinator: all of window `window`'s messages have been sent.
struct WindowEndMsg {
  uint64_t window = 0;

  template <typename IO, typename M>
  static bool Fields(IO& io, M& m) { return io.Field(m.window); }
};

/// Coordinator -> site: the protocol's broadcast value as of the end of
/// window `window`, which each site installs into its view before the
/// next window (docs/PROTOCOL.md lists the value per protocol).
struct BroadcastMsg {
  uint64_t window = 0;
  double value = 0.0;

  template <typename IO, typename M>
  static bool Fields(IO& io, M& m) {
    return io.Field(m.window) && io.Field(m.value);
  }
};

/// Site -> coordinator: the site's stream is exhausted.
struct SiteDoneMsg {
  uint64_t windows = 0;  ///< windows actually run (sanity cross-check)

  template <typename IO, typename M>
  static bool Fields(IO& io, M& m) { return io.Field(m.windows); }
};

/// Appends `msg`'s payload to `out`.
template <typename M>
void EncodePayload(const M& msg, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  M::Fields(w, msg);
}

/// Parses a whole payload into `msg`; false on malformed input.
template <typename M>
DMT_UNTRUSTED_INPUT
bool DecodePayload(const uint8_t* payload, size_t n, M* msg) {
  ByteReader r(payload, n);
  return M::Fields(r, *msg) && r.exhausted();
}

}  // namespace net
}  // namespace dmt

#endif  // DMT_NET_MESSAGES_H_
