// Shared run configuration and deterministic workload construction for the
// wire binaries (tools/dmt_site, tools/dmt_coordinator), the
// transport-equivalence tests and the loopback bench.
//
// Every process of one distributed run parses the same flags and calls
// MakeWireWorkload with the same config; because stream generation, site
// assignment and the window schedule are all pure functions of the config
// (seeded generators, stream::WindowEnds), each process independently
// reconstructs the identical global stream — no data travels out-of-band.
#ifndef DMT_NET_WORKLOAD_H_
#define DMT_NET_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hh/hh_protocol.h"
#include "matrix/matrix_protocol.h"
#include "net/remote.h"
#include "stream/simulation_driver.h"

namespace dmt {
namespace net {

/// One distributed run's parameters (every process must agree on these).
struct WireRunConfig {
  std::string protocol = "p1";  ///< a WireProtocolNames() entry
  size_t num_sites = 4;
  size_t n = 20000;             ///< stream length (items or rows)
  size_t chunk = 1024;          ///< arrivals per synchronization window
  double eps = 0.1;
  uint64_t seed = 42;
  // Heavy-hitter workload: Zipfian stream parameters.
  uint64_t universe = 16384;
  double skew = 2.0;
  double beta = 4.0;
  // Matrix workload: synthetic low-rank rows of this width.
  size_t dim = 24;
  // Transport endpoint.
  std::string host = "127.0.0.1";
  uint16_t port = 0;            ///< 0 = ephemeral (coordinator side)
  std::string port_file;        ///< publish/poll the bound port here
  // Role-specific.
  size_t site = SIZE_MAX;       ///< dmt_site --site
  bool check = false;           ///< dmt_coordinator --check (oracle compare)
};

/// Parses the shared flag vocabulary (--protocol, --sites, --n, --chunk,
/// --eps, --seed, --universe, --skew, --beta, --dim, --host, --port,
/// --port-file, --site, --check). Unknown flags are ignored so role-only
/// flags can coexist.
WireRunConfig ParseWireArgs(int argc, char** argv);

/// The materialized global stream: exactly one of items/rows is populated
/// (by the protocol's kind), plus the site assignment and the oracle's
/// window schedule.
struct WireWorkload {
  std::vector<stream::WeightedUpdate> items;  ///< heavy-hitter protocols
  std::vector<std::vector<double>> rows;      ///< matrix protocols
  std::vector<size_t> sites;                  ///< arrival i -> site
  std::vector<size_t> window_ends;            ///< stream::WindowEnds
};

/// Builds the workload deterministically from the config (same config in
/// two processes -> bit-identical streams, assignment and schedule).
WireWorkload MakeWireWorkload(const WireRunConfig& config);

/// A protocol instance bundled with its wire adapter; exactly one of
/// hh/mp is set, none when config.protocol is unknown.
struct WireProtocol {
  std::unique_ptr<hh::HeavyHitterProtocol> hh;
  std::unique_ptr<matrix::MatrixTrackingProtocol> mp;
  std::unique_ptr<WireAdapter> adapter;

  /// Whichever of hh/mp is set.
  const stream::Protocol& instance() const;
};

/// Every registered protocol name: the protocol golden table's rows,
/// lowercased (docs/PROTOCOL.md lists them).
std::vector<std::string> WireProtocolNames();

/// Instantiates the configured protocol and its adapter. Constructor
/// values beyond (num_sites, eps, seed, dim) are derived: P2bounded sites
/// keep ceil(4m/eps) counters, the samplers their eps-derived sample
/// sizes, P4 one copy, and the baselines ell = k = ceil(1/eps).
WireProtocol MakeWireProtocol(const WireRunConfig& config);

/// The site-update callback RunWireSite needs: applies stream arrival
/// `idx` to `protocol` as site `site`. `workload` and `protocol` must
/// outlive the returned function.
std::function<void(uint32_t)> MakeSiteUpdater(const WireWorkload& workload,
                                              WireProtocol* protocol,
                                              size_t site);

/// Runs the same workload through the in-process SimulationDriver — the
/// deterministic oracle a wire run is compared against.
WireProtocol RunOracle(const WireRunConfig& config,
                       const WireWorkload& workload);

/// Compares two instances of one protocol exactly, the same way for every
/// protocol: CommStats, per-site message counts, the broadcast value and
/// the bits of the coordinator's answer (as the protocol golden table
/// fingerprints it). Returns "" when identical, else what differs.
std::string DiffWireProtocols(const WireRunConfig& config,
                              const WireProtocol& a, const WireProtocol& b);

}  // namespace net
}  // namespace dmt

#endif  // DMT_NET_WORKLOAD_H_
