// Wire transport overhead on loopback: the same distributed workload run
// (a) in-process through stream::SimulationDriver (the oracle), (b) over
// the in-memory local channel pair, and (c) over real TCP loopback
// sockets — coordinator and site runners on threads inside one process.
// Reports wall clock per path plus the bytes-on-the-wire totals next to
// the paper's message counters, for both P1 and MP2.
//
// Usage: wire_loopback [output.json]
//   DMT_SCALE=small|default|paper scales the stream lengths.
// The JSON is printed to stdout and, when a path is given, written there
// (the repo keeps a checked-in BENCH_wire_loopback.json).
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"
#include "util/check.h"
#include "util/env.h"
#include "util/timer.h"

namespace {

using namespace dmt;

struct WirePoint {
  double oracle_seconds = 0.0;
  double local_seconds = 0.0;
  double tcp_seconds = 0.0;
  uint64_t messages = 0;       // CommStats total (paper metric)
  uint64_t bytes_up = 0;       // TCP run, site -> coordinator
  uint64_t bytes_down = 0;     // TCP run, coordinator -> site
  uint64_t frames = 0;         // TCP run, frames drained upstream
};

// Runs coordinator + sites on threads over pre-connected channels and
// returns the wall clock of the whole window loop.
double RunOnThreads(const net::WireRunConfig& config,
                    const net::WireWorkload& workload,
                    net::WireProtocol* coord,
                    std::vector<std::unique_ptr<net::Connection>> coord_ends,
                    std::vector<std::unique_ptr<net::Connection>> site_ends,
                    net::WireCoordinatorReport* report) {
  std::vector<net::WireProtocol> site_protocols(config.num_sites);
  std::vector<std::thread> threads;
  Timer timer;
  for (size_t s = 0; s < config.num_sites; ++s) {
    site_protocols[s] = net::MakeWireProtocol(config);
    threads.emplace_back([&, s, conn = site_ends[s].get()] {
      const auto windows = net::SiteWindowIndices(workload.sites, s,
                                                  workload.window_ends);
      const auto update =
          net::MakeSiteUpdater(workload, &site_protocols[s], s);
      std::string error;
      DMT_CHECK(net::RunWireSite(site_protocols[s].adapter.get(), s,
                                 windows, update, conn, &error));
    });
  }
  std::string error;
  DMT_CHECK(net::RunWireCoordinator(coord->adapter.get(), &coord_ends,
                                    workload.window_ends.size(), report,
                                    &error));
  for (auto& t : threads) t.join();
  return timer.Seconds();
}

WirePoint BenchProtocol(const std::string& protocol, size_t n) {
  net::WireRunConfig config;
  config.protocol = protocol;
  config.num_sites = 4;
  config.n = n;
  config.chunk = 1024;
  config.eps = 0.1;
  config.seed = 42;
  const net::WireWorkload workload = net::MakeWireWorkload(config);

  WirePoint point;
  {
    Timer timer;
    const net::WireProtocol oracle = net::RunOracle(config, workload);
    point.oracle_seconds = timer.Seconds();
  }

  {
    net::WireProtocol coord = net::MakeWireProtocol(config);
    std::vector<std::unique_ptr<net::Connection>> coord_ends;
    std::vector<std::unique_ptr<net::Connection>> site_ends;
    for (size_t s = 0; s < config.num_sites; ++s) {
      auto [site_end, coord_end] = net::MakeLocalPair();
      site_ends.push_back(std::move(site_end));
      coord_ends.push_back(std::move(coord_end));
    }
    net::WireCoordinatorReport report;
    point.local_seconds =
        RunOnThreads(config, workload, &coord, std::move(coord_ends),
                     std::move(site_ends), &report);
  }

  {
    net::WireProtocol coord = net::MakeWireProtocol(config);
    std::string error;
    auto listener = net::TcpListener::Listen(0, &error);
    DMT_CHECK(listener != nullptr);
    std::vector<std::unique_ptr<net::Connection>> site_ends(config.num_sites);
    std::vector<std::thread> dialers;
    for (size_t s = 0; s < config.num_sites; ++s) {
      dialers.emplace_back([&, s] {
        std::string connect_error;
        site_ends[s] =
            net::TcpConnect("127.0.0.1", listener->port(), &connect_error);
      });
    }
    std::vector<std::unique_ptr<net::Connection>> coord_ends;
    for (size_t s = 0; s < config.num_sites; ++s) {
      coord_ends.push_back(listener->Accept(&error));
      DMT_CHECK(coord_ends.back() != nullptr);
    }
    for (auto& t : dialers) t.join();

    net::WireCoordinatorReport report;
    point.tcp_seconds =
        RunOnThreads(config, workload, &coord, std::move(coord_ends),
                     std::move(site_ends), &report);
    point.messages = coord.instance().comm_stats().total();
    point.bytes_up = report.total_bytes_up();
    point.bytes_down = report.total_bytes_down();
    point.frames = report.frames_received;
  }
  return point;
}

void PrintPoint(FILE* f, const char* name, size_t n, const WirePoint& p,
                bool last) {
  std::fprintf(f, "    \"%s\": {\n", name);
  std::fprintf(f, "      \"stream_len\": %zu,\n", n);
  std::fprintf(f, "      \"oracle_seconds\": %.6f,\n", p.oracle_seconds);
  std::fprintf(f, "      \"local_pair_seconds\": %.6f,\n", p.local_seconds);
  std::fprintf(f, "      \"tcp_loopback_seconds\": %.6f,\n", p.tcp_seconds);
  std::fprintf(f, "      \"messages\": %llu,\n",
               static_cast<unsigned long long>(p.messages));
  std::fprintf(f, "      \"frames_up\": %llu,\n",
               static_cast<unsigned long long>(p.frames));
  std::fprintf(f, "      \"bytes_up\": %llu,\n",
               static_cast<unsigned long long>(p.bytes_up));
  std::fprintf(f, "      \"bytes_down\": %llu\n",
               static_cast<unsigned long long>(p.bytes_down));
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : nullptr;

  const std::string scale = GetEnvString("DMT_SCALE", "default");
  size_t n_hh = 200000;
  size_t n_matrix = 20000;
  if (scale == "small") {
    n_hh = 20000;
    n_matrix = 4000;
  } else if (scale == "paper") {
    n_hh = 1000000;
    n_matrix = 100000;
  }

  const WirePoint p1 = BenchProtocol("p1", n_hh);
  const WirePoint mp2 = BenchProtocol("mp2", n_matrix);

  bench::EmitBenchJson(out_path, "wire_loopback", [&](FILE* f) {
    std::fprintf(f, "  \"workloads\": {\n");
    PrintPoint(f, "p1", n_hh, p1, false);
    PrintPoint(f, "mp2", n_matrix, mp2, true);
    std::fprintf(f, "  }\n");
  });
  return 0;
}
