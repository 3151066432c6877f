// Site process for a distributed protocol run (docs/PROTOCOL.md).
//
// Reconstructs the shared workload from the run config (every process
// derives the identical stream, assignment and window schedule from the
// seed), connects to the coordinator, and runs this site's half: apply the
// site's arrivals window by window, batch-send the protocol's outbox, and
// absorb the coordinator's broadcasts.
//
//   dmt_site --site 0 --protocol p1 --sites 4 --n 20000 --chunk 1024
//       --eps 0.1 --seed 42 --host 127.0.0.1 --port-file /tmp/port
//
// The config flags must match the coordinator's exactly (the handshake
// cross-checks protocol, site count and window count). --port-file polls
// for the coordinator's published ephemeral port.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"

namespace {

using dmt::net::WireRunConfig;

int Fail(const std::string& message) {
  std::fprintf(stderr, "dmt_site: error: %s\n", message.c_str());
  return 1;
}

// Polls for the coordinator's port file (written atomically on its side);
// 0 after ~15s without a parseable port.
uint16_t PollPortFile(const std::string& path) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    FILE* f = std::fopen(path.c_str(), "r");
    if (f != nullptr) {
      unsigned port = 0;
      const int got = std::fscanf(f, "%u", &port);
      std::fclose(f);
      if (got == 1 && port > 0 && port <= 65535) {
        return static_cast<uint16_t>(port);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  WireRunConfig config = dmt::net::ParseWireArgs(argc, argv);
  if (config.site >= config.num_sites) {
    return Fail("--site must name one of the --sites site ids");
  }

  dmt::net::WireProtocol protocol = dmt::net::MakeWireProtocol(config);
  if (protocol.adapter == nullptr) {
    std::string names;
    for (const std::string& name : dmt::net::WireProtocolNames()) {
      names += (names.empty() ? "" : ", ") + name;
    }
    return Fail("unknown --protocol '" + config.protocol + "' (registered: " +
                names + ")");
  }

  if (config.port == 0) {
    if (config.port_file.empty()) {
      return Fail("need --port or --port-file to find the coordinator");
    }
    config.port = PollPortFile(config.port_file);
    if (config.port == 0) {
      return Fail("no port appeared in " + config.port_file);
    }
  }

  const dmt::net::WireWorkload workload =
      dmt::net::MakeWireWorkload(config);
  const auto windows = dmt::net::SiteWindowIndices(
      workload.sites, config.site, workload.window_ends);

  std::string error;
  auto conn = dmt::net::TcpConnect(config.host, config.port, &error);
  if (conn == nullptr) return Fail(error);

  const auto update =
      dmt::net::MakeSiteUpdater(workload, &protocol, config.site);
  if (!dmt::net::RunWireSite(protocol.adapter.get(), config.site, windows,
                             update, conn.get(), &error)) {
    return Fail(error);
  }
  std::printf("dmt_site %zu: done — %zu windows, %llu bytes sent, "
              "%llu bytes received\n",
              config.site, windows.size(),
              static_cast<unsigned long long>(conn->bytes_sent()),
              static_cast<unsigned long long>(conn->bytes_received()));
  return 0;
}
