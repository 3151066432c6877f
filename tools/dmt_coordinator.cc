// Coordinator process for a distributed protocol run (docs/PROTOCOL.md).
//
// Binds a TCP listener, accepts one channel per site, runs the registered
// protocol's coordinator half over the wire (net/remote.h), and reports
// the paper's message counts next to the bytes that actually crossed each
// channel. With --check it also replays the identical workload through the
// in-process SimulationDriver and verifies the wire run reproduced the
// oracle's coordinator state and CommStats bit-for-bit.
//
//   dmt_coordinator --protocol p1 --sites 4 --n 20000 --chunk 1024
//       --eps 0.1 --seed 42 --port 0 --port-file /tmp/port --check
//
// --port 0 picks an ephemeral port; --port-file publishes the bound port
// (written atomically) so site processes can poll for it.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"
#include "serve/query_engine.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot_store.h"
#include "stream/comm_stats.h"

namespace {

using dmt::net::WireRunConfig;

int Fail(const std::string& message) {
  std::fprintf(stderr, "dmt_coordinator: error: %s\n", message.c_str());
  return 1;
}

// Publishes the bound port via write-to-temp + rename, so a polling site
// never reads a half-written file.
bool PublishPort(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void PrintCommStats(const dmt::stream::CommStats& stats) {
  std::printf("  messages (paper metric): total=%llu up=%llu "
              "(scalar=%llu element=%llu vector=%llu) "
              "broadcast_events=%llu broadcast_msgs=%llu rounds=%llu\n",
              static_cast<unsigned long long>(stats.total()),
              static_cast<unsigned long long>(stats.total_up()),
              static_cast<unsigned long long>(stats.scalar_up),
              static_cast<unsigned long long>(stats.element_up),
              static_cast<unsigned long long>(stats.vector_up),
              static_cast<unsigned long long>(stats.broadcast_events),
              static_cast<unsigned long long>(stats.broadcast_msgs),
              static_cast<unsigned long long>(stats.rounds));
}

}  // namespace

int main(int argc, char** argv) {
  const WireRunConfig config = dmt::net::ParseWireArgs(argc, argv);

  dmt::net::WireProtocol protocol = dmt::net::MakeWireProtocol(config);
  if (protocol.adapter == nullptr) {
    std::string names;
    for (const std::string& name : dmt::net::WireProtocolNames()) {
      names += (names.empty() ? "" : ", ") + name;
    }
    return Fail("unknown --protocol '" + config.protocol + "' (registered: " +
                names + ")");
  }
  const dmt::net::WireWorkload workload =
      dmt::net::MakeWireWorkload(config);

  std::string error;
  auto listener = dmt::net::TcpListener::Listen(config.port, &error);
  if (listener == nullptr) return Fail(error);
  std::printf("dmt_coordinator: %s, %zu sites, %zu arrivals, %zu windows, "
              "listening on %s:%u\n",
              config.protocol.c_str(), config.num_sites, config.n,
              workload.window_ends.size(), config.host.c_str(),
              static_cast<unsigned>(listener->port()));
  std::fflush(stdout);
  if (!config.port_file.empty() &&
      !PublishPort(config.port_file, listener->port())) {
    return Fail("cannot publish port to " + config.port_file);
  }

  std::vector<std::unique_ptr<dmt::net::Connection>> channels;
  for (size_t s = 0; s < config.num_sites; ++s) {
    auto conn = listener->Accept(&error);
    if (conn == nullptr) return Fail(error);
    channels.push_back(std::move(conn));
  }

  // Publish a queryable RCU snapshot after every drained window, exactly
  // as the in-process serving path does — in-process readers (none in
  // this CLI, but anything linked into the coordinator process) can
  // acquire and query without ever blocking the wire loop.
  dmt::serve::SnapshotStore snapshot_store;
  dmt::serve::ServingCoordinator serving(&snapshot_store);
  if (protocol.hh != nullptr) {
    serving.AttachHHProtocol(protocol.hh.get());
  } else {
    serving.AttachMatrixProtocol(protocol.mp.get());
  }
  const auto on_window = [&](size_t w) {
    serving.PublishWindow(w, workload.window_ends[w - 1]);
  };

  dmt::net::WireCoordinatorReport report;
  if (!dmt::net::RunWireCoordinator(protocol.adapter.get(), &channels,
                                    workload.window_ends.size(), &report,
                                    &error, on_window)) {
    return Fail(error);
  }

  const dmt::stream::Protocol& instance = protocol.instance();
  const dmt::stream::CommStats& stats = instance.comm_stats();
  const std::vector<uint64_t> per_site = instance.per_site_messages();
  std::printf("run complete: %llu frames received\n",
              static_cast<unsigned long long>(report.frames_received));
  {
    dmt::serve::SnapshotReader snapshot_reader(&snapshot_store);
    dmt::serve::SnapshotRef snap = snapshot_reader.Acquire();
    dmt::serve::QueryEngine engine(&*snap);
    std::printf("  serving: %llu windows published; final snapshot "
                "window=%llu tracked=%zu sketch=%zux%zu\n",
                static_cast<unsigned long long>(serving.windows_published()),
                static_cast<unsigned long long>(engine.window_index()),
                engine.TrackedCount(), engine.SketchRows(),
                engine.SketchCols());
  }
  PrintCommStats(stats);
  std::printf("  bytes on the wire: up=%llu down=%llu\n",
              static_cast<unsigned long long>(report.total_bytes_up()),
              static_cast<unsigned long long>(report.total_bytes_down()));
  for (size_t s = 0; s < per_site.size(); ++s) {
    std::printf("  site %zu: %llu upstream messages, %llu bytes up, "
                "%llu bytes down\n",
                s, static_cast<unsigned long long>(per_site[s]),
                static_cast<unsigned long long>(report.bytes_from_site[s]),
                static_cast<unsigned long long>(report.bytes_to_site[s]));
  }

  if (config.check) {
    dmt::net::WireProtocol oracle = dmt::net::RunOracle(config, workload);
    const std::string diff =
        dmt::net::DiffWireProtocols(config, protocol, oracle);
    if (!diff.empty()) {
      return Fail("wire run diverged from in-process oracle: " + diff);
    }
    std::printf("EQUIVALENCE OK: wire run is bit-identical to the "
                "in-process oracle\n");
  }
  return 0;
}
