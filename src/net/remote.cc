#include "net/remote.h"

#include <utility>

#include "net/messages.h"

namespace dmt {
namespace net {
namespace {

std::string MsgTypeName(MsgType t) {
  return "type " + std::to_string(static_cast<int>(t));
}

}  // namespace

std::vector<std::vector<uint32_t>> SiteWindowIndices(
    const std::vector<size_t>& sites, size_t site,
    const std::vector<size_t>& window_ends) {
  std::vector<std::vector<uint32_t>> windows(window_ends.size());
  size_t w = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    while (w < window_ends.size() && i >= window_ends[w]) ++w;
    if (w == window_ends.size()) break;  // beyond the scheduled stream
    if (sites[i] == site) windows[w].push_back(static_cast<uint32_t>(i));
  }
  return windows;
}

bool RunWireSite(WireAdapter* adapter, size_t site,
                 const std::vector<std::vector<uint32_t>>& windows,
                 const std::function<void(uint32_t)>& update,
                 Connection* conn, std::string* error) {
  std::vector<uint8_t> payload;
  EncodePayload(HelloMsg{static_cast<uint32_t>(site),
                         static_cast<uint32_t>(adapter->num_sites()),
                         windows.size(), adapter->protocol_name()},
                &payload);
  if (!SendFrame(conn, MsgType::kHello, payload)) {
    *error = "site: hello send failed";
    return false;
  }

  FrameBatch batch;
  FrameHeader header;
  for (size_t w = 0; w < windows.size(); ++w) {
    for (uint32_t idx : windows[w]) update(idx);

    // One batched send per window: every queued protocol message plus the
    // window-end marker leave in a single write.
    adapter->EncodeWindow(site, &batch);
    payload.clear();
    EncodePayload(WindowEndMsg{w}, &payload);
    batch.Add(MsgType::kWindowEnd, payload);
    if (!batch.Flush(conn)) {
      *error = "site: window " + std::to_string(w) + " send failed";
      return false;
    }

    if (!RecvFrame(conn, &header, &payload, error)) return false;
    BroadcastMsg b;
    if (header.type != MsgType::kBroadcast ||
        !DecodePayload(payload.data(), payload.size(), &b) ||
        b.window != w) {
      *error = "site: expected broadcast for window " + std::to_string(w);
      return false;
    }
    adapter->ApplyBroadcast(site, b.value);
  }

  payload.clear();
  EncodePayload(SiteDoneMsg{windows.size()}, &payload);
  if (!SendFrame(conn, MsgType::kSiteDone, payload)) {
    *error = "site: done send failed";
    return false;
  }
  if (!RecvFrame(conn, &header, &payload, error)) return false;
  if (header.type != MsgType::kShutdown) {
    *error = "site: expected shutdown, got " + MsgTypeName(header.type);
    return false;
  }
  return true;
}

bool RunWireCoordinator(WireAdapter* adapter,
                        std::vector<std::unique_ptr<Connection>>* channels,
                        size_t num_windows, WireCoordinatorReport* report,
                        std::string* error,
                        const std::function<void(size_t)>& on_window) {
  const size_t m = adapter->num_sites();
  if (channels->size() != m) {
    *error = "coordinator: got " + std::to_string(channels->size()) +
             " channels for " + std::to_string(m) + " sites";
    return false;
  }

  // Handshake: channels arrive in accept order; each peer announces its
  // site id, and the drain below needs them indexed by that id.
  std::vector<std::unique_ptr<Connection>> by_site(m);
  FrameHeader header;
  std::vector<uint8_t> payload;
  for (auto& conn : *channels) {
    if (!RecvFrame(conn.get(), &header, &payload, error)) return false;
    HelloMsg hello;
    if (header.type != MsgType::kHello ||
        !DecodePayload(payload.data(), payload.size(), &hello)) {
      *error = "coordinator: bad handshake frame";
      return false;
    }
    if (hello.protocol != adapter->protocol_name()) {
      *error = "coordinator: protocol mismatch (peer runs '" +
               hello.protocol + "', expected '" + adapter->protocol_name() +
               "')";
      return false;
    }
    if (hello.num_sites != m || hello.num_windows != num_windows) {
      *error = "coordinator: schedule mismatch in hello from site " +
               std::to_string(hello.site);
      return false;
    }
    if (hello.site >= m || by_site[hello.site] != nullptr) {
      *error = "coordinator: duplicate or out-of-range site id " +
               std::to_string(hello.site);
      return false;
    }
    by_site[hello.site] = std::move(conn);
  }
  *channels = std::move(by_site);

  report->bytes_from_site.assign(m, 0);
  report->bytes_to_site.assign(m, 0);

  for (size_t w = 0; w < num_windows; ++w) {
    // Ascending-site drain: the oracle's Synchronize() order.
    for (size_t s = 0; s < m; ++s) {
      Connection* conn = (*channels)[s].get();
      while (true) {
        if (!RecvFrame(conn, &header, &payload, error)) return false;
        ++report->frames_received;
        if (header.type == MsgType::kWindowEnd) {
          WindowEndMsg end;
          if (!DecodePayload(payload.data(), payload.size(), &end) ||
              end.window != w) {
            *error = "coordinator: window marker mismatch from site " +
                     std::to_string(s);
            return false;
          }
          // The last site's marker ends the window's drain; the adapter
          // runs the protocol's end-of-window step on it.
          if (s + 1 == m && !adapter->ApplyFrame(s, header.type,
                                                 payload.data(),
                                                 payload.size(), error)) {
            *error = "coordinator: window end: " + *error;
            return false;
          }
          break;
        }
        if (!adapter->ApplyFrame(s, header.type, payload.data(),
                                 payload.size(), error)) {
          *error = "coordinator: site " + std::to_string(s) + ": " + *error;
          return false;
        }
      }
    }

    // Post-drain, pre-broadcast: the coordinator protocol is between
    // rounds — the snapshot-export window the serving layer publishes in.
    if (on_window) on_window(w + 1);

    BroadcastMsg b;
    b.window = w;
    b.value = adapter->BroadcastValue();
    payload.clear();
    EncodePayload(b, &payload);
    for (size_t s = 0; s < m; ++s) {
      if (!SendFrame((*channels)[s].get(), MsgType::kBroadcast, payload)) {
        *error = "coordinator: broadcast to site " + std::to_string(s) +
                 " failed";
        return false;
      }
    }
  }

  for (size_t s = 0; s < m; ++s) {
    if (!RecvFrame((*channels)[s].get(), &header, &payload, error)) {
      return false;
    }
    ++report->frames_received;
    SiteDoneMsg done;
    if (header.type != MsgType::kSiteDone ||
        !DecodePayload(payload.data(), payload.size(), &done) ||
        done.windows != num_windows) {
      *error = "coordinator: bad done frame from site " + std::to_string(s);
      return false;
    }
  }
  payload.clear();
  for (size_t s = 0; s < m; ++s) {
    if (!SendFrame((*channels)[s].get(), MsgType::kShutdown, payload)) {
      *error = "coordinator: shutdown to site " + std::to_string(s) +
               " failed";
      return false;
    }
  }
  for (size_t s = 0; s < m; ++s) {
    report->bytes_from_site[s] = (*channels)[s]->bytes_received();
    report->bytes_to_site[s] = (*channels)[s]->bytes_sent();
  }
  return true;
}

}  // namespace net
}  // namespace dmt
