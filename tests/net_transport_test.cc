// Transport and end-to-end equivalence tests: the local in-memory pair,
// the TCP loopback socket path, and the headline guarantee — a full
// distributed run (coordinator + site runners on real channels) finishes
// with coordinator state and CommStats bit-identical to the in-process
// SimulationDriver oracle, for every registered protocol, over both
// transports.
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/messages.h"
#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"

namespace dmt {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Local pair semantics.

TEST(LocalPairTest, BytesCrossAndAreCounted) {
  auto [a, b] = MakeLocalPair();
  const uint8_t out[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a->Send(out, sizeof(out)));
  uint8_t in[sizeof(out)] = {};
  ASSERT_TRUE(b->Recv(in, sizeof(in)));
  EXPECT_EQ(std::memcmp(in, out, sizeof(out)), 0);
  EXPECT_EQ(a->bytes_sent(), sizeof(out));
  EXPECT_EQ(b->bytes_received(), sizeof(out));
  EXPECT_EQ(a->bytes_received(), 0u);
  EXPECT_EQ(b->bytes_sent(), 0u);
}

TEST(LocalPairTest, RecvBlocksUntilBytesArrive) {
  auto [a, b] = MakeLocalPair();
  uint8_t in[4] = {};
  std::thread sender([conn = a.get()] {
    const uint8_t out[] = {9, 8, 7, 6};
    // Two partial sends; the peer's single Recv must coalesce them.
    ASSERT_TRUE(conn->Send(out, 2));
    ASSERT_TRUE(conn->Send(out + 2, 2));
  });
  ASSERT_TRUE(b->Recv(in, sizeof(in)));
  sender.join();
  EXPECT_EQ(in[0], 9);
  EXPECT_EQ(in[3], 6);
}

TEST(LocalPairTest, CloseUnblocksPeerRecv) {
  auto [a, b] = MakeLocalPair();
  std::thread closer([conn = a.get()] { conn->Close(); });
  uint8_t in[1];
  EXPECT_FALSE(b->Recv(in, 1));
  closer.join();
}

TEST(LocalPairTest, FramesTravelIntact) {
  auto [a, b] = MakeLocalPair();
  BroadcastMsg m;
  m.window = 5;
  m.value = 1.0 / 3.0;
  std::vector<uint8_t> payload;
  EncodePayload(m, &payload);
  ASSERT_TRUE(SendFrame(a.get(), MsgType::kBroadcast, payload));

  FrameHeader header;
  std::vector<uint8_t> got;
  std::string error;
  ASSERT_TRUE(RecvFrame(b.get(), &header, &got, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kBroadcast);
  BroadcastMsg back;
  ASSERT_TRUE(DecodePayload(got.data(), got.size(), &back));
  EXPECT_EQ(back.window, 5u);
  double expect = 1.0 / 3.0;
  EXPECT_EQ(std::memcmp(&back.value, &expect, sizeof(double)), 0);
}

// ---------------------------------------------------------------------------
// TCP loopback path.

TEST(TcpTransportTest, LoopbackFrameEcho) {
  std::string error;
  auto listener = TcpListener::Listen(0, &error);
  ASSERT_NE(listener, nullptr) << error;
  ASSERT_GT(listener->port(), 0);

  std::unique_ptr<Connection> server;
  std::thread accepter([&] {
    std::string accept_error;
    server = listener->Accept(&accept_error);
  });
  auto client = TcpConnect("127.0.0.1", listener->port(), &error);
  ASSERT_NE(client, nullptr) << error;
  accepter.join();
  ASSERT_NE(server, nullptr);

  // Client -> server frame, echoed back, intact both ways.
  std::vector<uint8_t> payload;
  EncodePayload(WindowEndMsg{99}, &payload);
  ASSERT_TRUE(SendFrame(client.get(), MsgType::kWindowEnd, payload));
  FrameHeader header;
  std::vector<uint8_t> got;
  ASSERT_TRUE(RecvFrame(server.get(), &header, &got, &error)) << error;
  EXPECT_EQ(header.type, MsgType::kWindowEnd);
  ASSERT_TRUE(SendFrame(server.get(), MsgType::kWindowEnd, got));
  got.clear();
  ASSERT_TRUE(RecvFrame(client.get(), &header, &got, &error)) << error;
  WindowEndMsg back;
  ASSERT_TRUE(DecodePayload(got.data(), got.size(), &back));
  EXPECT_EQ(back.window, 99u);

  // Both directions counted, symmetrically.
  EXPECT_EQ(client->bytes_sent(), server->bytes_received());
  EXPECT_EQ(server->bytes_sent(), client->bytes_received());
  EXPECT_EQ(client->bytes_sent(), kFrameHeaderBytes + payload.size());
}

TEST(TcpTransportTest, ConnectToDeadPortFails) {
  std::string error;
  // Bind-then-drop guarantees a currently-closed port.
  uint16_t dead_port = 0;
  {
    auto listener = TcpListener::Listen(0, &error);
    ASSERT_NE(listener, nullptr) << error;
    dead_port = listener->port();
  }
  auto conn = TcpConnect("127.0.0.1", dead_port, &error, /*retries=*/2);
  EXPECT_EQ(conn, nullptr);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: full wire run == in-process oracle, bit for bit.

WireRunConfig SmallConfig(const std::string& protocol) {
  WireRunConfig config;
  config.protocol = protocol;
  config.num_sites = 3;
  config.n = 4000;
  config.chunk = 256;
  config.eps = 0.2;
  config.seed = 17;
  config.universe = 4096;
  config.dim = 12;
  return config;
}

// Runs coordinator + all sites on threads over the given per-site channel
// pairs, asserting success everywhere; returns the wire-side protocol
// instance and the coordinator's byte report.
void RunWireOnThreads(const WireRunConfig& config,
                      const WireWorkload& workload, WireProtocol* coord,
                      std::vector<std::unique_ptr<Connection>> coord_ends,
                      std::vector<std::unique_ptr<Connection>> site_ends,
                      WireCoordinatorReport* report) {
  std::vector<std::thread> site_threads;
  std::vector<WireProtocol> site_protocols(config.num_sites);
  std::vector<std::string> site_errors(config.num_sites);
  // Not vector<bool>: each site thread writes its own element, and the
  // packed-bit specialization would make distinct elements share a word.
  std::vector<char> site_ok(config.num_sites, 0);
  for (size_t s = 0; s < config.num_sites; ++s) {
    site_protocols[s] = MakeWireProtocol(config);
    ASSERT_NE(site_protocols[s].adapter, nullptr);
    site_threads.emplace_back([&, s, conn = site_ends[s].get()] {
      const auto windows =
          SiteWindowIndices(workload.sites, s, workload.window_ends);
      const auto update = MakeSiteUpdater(workload, &site_protocols[s], s);
      std::string error;
      site_ok[s] = RunWireSite(site_protocols[s].adapter.get(), s, windows,
                               update, conn, &error);
      site_errors[s] = error;
    });
  }
  std::string coord_error;
  const bool coord_ok =
      RunWireCoordinator(coord->adapter.get(), &coord_ends,
                         workload.window_ends.size(), report, &coord_error);
  for (auto& t : site_threads) t.join();
  EXPECT_TRUE(coord_ok) << coord_error;
  for (size_t s = 0; s < config.num_sites; ++s) {
    EXPECT_TRUE(site_ok[s]) << "site " << s << ": " << site_errors[s];
  }
  // Byte accounting must agree endpoint-to-endpoint: what each site sent
  // is exactly what the coordinator's channel received, and vice versa.
  ASSERT_EQ(report->bytes_from_site.size(), config.num_sites);
  for (size_t s = 0; s < config.num_sites; ++s) {
    EXPECT_EQ(site_ends[s]->bytes_sent(), report->bytes_from_site[s]);
    EXPECT_EQ(site_ends[s]->bytes_received(), report->bytes_to_site[s]);
    EXPECT_GT(report->bytes_to_site[s], 0u);  // broadcasts flowed down
  }
}

class WireEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WireEquivalenceTest, LocalPairRunMatchesOracleBitForBit) {
  const WireRunConfig config = SmallConfig(GetParam());
  const WireWorkload workload = MakeWireWorkload(config);
  WireProtocol coord = MakeWireProtocol(config);
  ASSERT_NE(coord.adapter, nullptr);

  std::vector<std::unique_ptr<Connection>> coord_ends;
  std::vector<std::unique_ptr<Connection>> site_ends;
  for (size_t s = 0; s < config.num_sites; ++s) {
    auto [site_end, coord_end] = MakeLocalPair();
    site_ends.push_back(std::move(site_end));
    coord_ends.push_back(std::move(coord_end));
  }
  WireCoordinatorReport report;
  RunWireOnThreads(config, workload, &coord, std::move(coord_ends),
                   std::move(site_ends), &report);

  const WireProtocol oracle = RunOracle(config, workload);
  EXPECT_EQ(DiffWireProtocols(config, oracle, coord), "");
  EXPECT_GT(report.frames_received, 0u);
}

TEST_P(WireEquivalenceTest, TcpLoopbackRunMatchesOracleBitForBit) {
  const WireRunConfig config = SmallConfig(GetParam());
  const WireWorkload workload = MakeWireWorkload(config);
  WireProtocol coord = MakeWireProtocol(config);
  ASSERT_NE(coord.adapter, nullptr);

  std::string error;
  auto listener = TcpListener::Listen(0, &error);
  ASSERT_NE(listener, nullptr) << error;

  // Sites connect on threads while the main thread accepts; the handshake
  // inside RunWireCoordinator fixes up any accept-order scramble.
  std::vector<std::unique_ptr<Connection>> site_ends(config.num_sites);
  std::vector<std::thread> dialers;
  for (size_t s = 0; s < config.num_sites; ++s) {
    dialers.emplace_back([&, s] {
      std::string connect_error;
      site_ends[s] =
          TcpConnect("127.0.0.1", listener->port(), &connect_error);
    });
  }
  std::vector<std::unique_ptr<Connection>> coord_ends;
  for (size_t s = 0; s < config.num_sites; ++s) {
    auto conn = listener->Accept(&error);
    ASSERT_NE(conn, nullptr) << error;
    coord_ends.push_back(std::move(conn));
  }
  for (auto& t : dialers) t.join();
  for (const auto& conn : site_ends) ASSERT_NE(conn, nullptr);

  WireCoordinatorReport report;
  RunWireOnThreads(config, workload, &coord, std::move(coord_ends),
                   std::move(site_ends), &report);

  const WireProtocol oracle = RunOracle(config, workload);
  EXPECT_EQ(DiffWireProtocols(config, oracle, coord), "");
}

INSTANTIATE_TEST_SUITE_P(Protocols, WireEquivalenceTest,
                         ::testing::ValuesIn(WireProtocolNames()),
                         [](const auto& info) { return info.param; });

// The CMake list that registers one loopback_smoke_<name> test per
// protocol (and drives the CI transport smoke) names exactly the registry.
TEST(WireRegistryTest, SmokeListMatchesTheRegistry) {
  std::string joined;
  for (const std::string& name : WireProtocolNames()) {
    joined += (joined.empty() ? "" : ",") + name;
  }
  EXPECT_EQ(joined, DMT_WIRE_PROTOCOL_LIST);
}

// Unknown names build nothing, and two runs that differ are reported.
TEST(WireRegistryTest, UnknownNameAndDifferingRunsAreReported) {
  WireRunConfig config = SmallConfig("p9");
  EXPECT_EQ(MakeWireProtocol(config).adapter, nullptr);
  config = SmallConfig("p1");
  const WireWorkload workload = MakeWireWorkload(config);
  const WireProtocol oracle = RunOracle(config, workload);
  EXPECT_EQ(DiffWireProtocols(config, oracle, RunOracle(config, workload)),
            "");
  config.eps = 0.1;
  EXPECT_NE(DiffWireProtocols(config, oracle, RunOracle(config, workload)),
            "");
}

// A site whose stream never routes it an arrival still participates in
// every window (empty flush, broadcast sync) — the schedule is global.
TEST(WireEquivalenceTest2, SiteWindowIndicesCoverEveryWindow) {
  const WireRunConfig config = SmallConfig("p1");
  const WireWorkload workload = MakeWireWorkload(config);
  size_t total = 0;
  for (size_t s = 0; s < config.num_sites; ++s) {
    const auto windows =
        SiteWindowIndices(workload.sites, s, workload.window_ends);
    ASSERT_EQ(windows.size(), workload.window_ends.size());
    for (const auto& w : windows) total += w.size();
  }
  EXPECT_EQ(total, config.n);  // every arrival lands in exactly one slot
}

}  // namespace
}  // namespace net
}  // namespace dmt
