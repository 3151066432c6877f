// MP1 (batched Frequent Directions) coordinator-drain contract.
//
//  * Message golden. CommStats, per-site message counts and the
//    coordinator's F_C for one fixed stream, recorded at chunk sizes 1, 64
//    and 4096, at 1 and 4 threads, under uniform, round-robin and skewed
//    routing. Messages depend only on the site sketches and on the scalar
//    F_i / F-hat path, never on how the coordinator compresses the rows it
//    receives, so any rework of the coordinator's row handling must leave
//    every number here unchanged (F_C bit for bit).
//  * Continuous guarantee. At every window boundary, not just at stream
//    end: err ≤ ε and the coordinator sketch holds at most ℓ rows.
//  * Zero rows. A row with zero squared norm carries no mass, so it must
//    cost no flush and no broadcast.
#include "matrix/mp1_batched_fd.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "matrix/error.h"
#include "sketch/frequent_directions.h"
#include "stream/comm_stats.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"

namespace dmt {
namespace matrix {
namespace {

constexpr size_t kSites = 8;
constexpr size_t kRows = 10000;
constexpr size_t kDim = 16;
constexpr double kEps = 0.2;

const std::vector<std::vector<double>>& Rows() {
  static const std::vector<std::vector<double>> rows = [] {
    data::SyntheticMatrixConfig cfg;
    cfg.dim = kDim;
    cfg.latent_rank = 5;
    cfg.seed = 77;
    data::SyntheticMatrixGenerator gen(cfg);
    std::vector<std::vector<double>> r(kRows);
    for (auto& row : r) row = gen.Next();
    return r;
  }();
  return rows;
}

std::vector<size_t> Sites(stream::RoutingPolicy policy) {
  stream::Router router(kSites, policy, 78);
  return stream::AssignSites(&router, kRows);
}

std::string PolicyName(stream::RoutingPolicy p) {
  switch (p) {
    case stream::RoutingPolicy::kUniform: return "uniform";
    case stream::RoutingPolicy::kRoundRobin: return "round-robin";
    default: return "skewed";
  }
}

struct Golden {
  stream::RoutingPolicy policy;
  size_t chunk;
  stream::CommStats stats;
  std::vector<uint64_t> per_site;
  double coordinator_frob;
};

// Recorded with the per-flush Merge drain this test was written against.
const std::vector<Golden>& Goldens() {
  using stream::RoutingPolicy;
  static const std::vector<Golden> g = {
      {RoutingPolicy::kUniform, 1, {0, 0, 3554, 72, 576, 72},
       {472, 397, 420, 440, 452, 462, 452, 459}, 0x1.4a3d1413ec88ap+14},
      {RoutingPolicy::kUniform, 64, {0, 0, 3660, 72, 576, 72},
       {485, 425, 429, 445, 482, 469, 441, 484}, 0x1.541439ed51e73p+14},
      {RoutingPolicy::kUniform, 4096, {0, 0, 5425, 72, 576, 72},
       {703, 636, 645, 659, 704, 687, 673, 718}, 0x1.516bfdcf513ecp+14},
      {RoutingPolicy::kRoundRobin, 1, {0, 0, 3641, 72, 576, 72},
       {470, 446, 449, 457, 458, 444, 476, 441}, 0x1.5388ba7a15b73p+14},
      {RoutingPolicy::kRoundRobin, 64, {0, 0, 3583, 72, 576, 72},
       {457, 438, 445, 443, 445, 456, 456, 443}, 0x1.55786c3d25d63p+14},
      {RoutingPolicy::kRoundRobin, 4096, {0, 0, 5445, 73, 584, 73},
       {691, 684, 685, 676, 682, 681, 670, 676}, 0x1.552b1c3d2b588p+14},
      {RoutingPolicy::kSkewed, 1, {0, 0, 3633, 72, 576, 72},
       {2127, 224, 207, 215, 217, 234, 213, 196}, 0x1.4f3a2a3b03703p+14},
      {RoutingPolicy::kSkewed, 64, {0, 0, 3668, 73, 584, 73},
       {2184, 217, 206, 206, 211, 235, 203, 206}, 0x1.50387121e62b3p+14},
      {RoutingPolicy::kSkewed, 4096, {0, 0, 5623, 74, 592, 74},
       {3195, 343, 348, 349, 362, 358, 330, 338}, 0x1.589016cc8d5f5p+14},
  };
  return g;
}

void ExpectMatchesGolden(const MP1BatchedFD& p, const Golden& g) {
  const stream::CommStats& s = p.comm_stats();
  EXPECT_EQ(s.scalar_up, g.stats.scalar_up);
  EXPECT_EQ(s.element_up, g.stats.element_up);
  EXPECT_EQ(s.vector_up, g.stats.vector_up);
  EXPECT_EQ(s.broadcast_events, g.stats.broadcast_events);
  EXPECT_EQ(s.broadcast_msgs, g.stats.broadcast_msgs);
  EXPECT_EQ(s.rounds, g.stats.rounds);
  EXPECT_EQ(p.per_site_messages(), g.per_site);
  EXPECT_EQ(p.coordinator_frobenius(), g.coordinator_frob);
}

TEST(MP1DrainTest, MessagesMatchGoldenAcrossChunksThreadsAndRouters) {
  for (const Golden& g : Goldens()) {
    const std::vector<size_t> sites = Sites(g.policy);
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(PolicyName(g.policy) + " chunk=" + std::to_string(g.chunk) +
                   " threads=" + std::to_string(threads));
      MP1BatchedFD p(kSites, kEps);
      stream::SimulationOptions opt;
      opt.threads = threads;
      opt.chunk_elements = g.chunk;
      stream::SimulationDriver driver(opt);
      driver.Run(&p, sites, Rows());
      ExpectMatchesGolden(p, g);
    }
  }
}

// The serial facade path drains after every row, which is the chunk-1
// schedule: it must reproduce that golden too.
TEST(MP1DrainTest, ProcessRowMatchesChunkOneGolden) {
  for (const Golden& g : Goldens()) {
    if (g.chunk != 1) continue;
    SCOPED_TRACE(PolicyName(g.policy));
    const std::vector<size_t> sites = Sites(g.policy);
    MP1BatchedFD p(kSites, kEps);
    for (size_t i = 0; i < kRows; ++i) p.ProcessRow(sites[i], Rows()[i]);
    ExpectMatchesGolden(p, g);
  }
}

// A prefix of the golden stream keeps the per-window error checks cheap;
// at chunk 4096 it is still one bootstrap window plus one long window.
TEST(MP1DrainTest, GuaranteeHoldsAtEveryWindowBoundary) {
  constexpr size_t kPrefix = 3000;
  const std::vector<std::vector<double>> rows(Rows().begin(),
                                              Rows().begin() + kPrefix);
  const size_t ell = sketch::FrequentDirections::WithEpsilon(kEps / 2).ell();
  for (const Golden& g : Goldens()) {
    SCOPED_TRACE(PolicyName(g.policy) + " chunk=" + std::to_string(g.chunk));
    std::vector<size_t> sites = Sites(g.policy);
    sites.resize(kPrefix);
    MP1BatchedFD p(kSites, kEps);
    CovarianceTracker truth(kDim);
    size_t seen = 0;
    size_t windows = 0;
    double worst = 0.0;
    size_t max_rows = 0;
    stream::SimulationOptions opt;
    opt.threads = 4;
    opt.chunk_elements = g.chunk;
    stream::SimulationDriver driver(opt);
    driver.set_window_callback([&](const stream::WindowEndInfo& info) {
      for (; seen < info.arrivals_total; ++seen) truth.AddRow(rows[seen]);
      ++windows;
      worst = std::max(worst, CovarianceError(truth, p.CoordinatorGram()));
      max_rows = std::max(max_rows, p.CoordinatorSketch().rows());
    });
    driver.Run(&p, sites, rows);
    EXPECT_EQ(seen, kPrefix);
    EXPECT_EQ(windows, stream::WindowEnds(kPrefix, g.chunk, kSites).size());
    EXPECT_LE(worst, kEps + 1e-9);
    EXPECT_LE(max_rows, ell);
  }
}

TEST(MP1DrainTest, LeadingZeroRowsCostNoMessages) {
  const std::vector<double> zero(kDim, 0.0);
  MP1BatchedFD p(kSites, kEps);
  for (size_t i = 0; i < 100; ++i) p.ProcessRow(i % kSites, zero);
  EXPECT_EQ(p.comm_stats().total(), 0u);
  EXPECT_EQ(p.comm_stats().broadcast_events, 0u);
  EXPECT_EQ(p.coordinator_frobenius(), 0.0);

  // Zero rows leave no trace: the rest of the stream costs exactly what
  // it costs without them, and the guarantee still holds.
  const std::vector<size_t> sites = Sites(stream::RoutingPolicy::kUniform);
  MP1BatchedFD reference(kSites, kEps);
  CovarianceTracker truth(kDim);
  for (size_t i = 0; i < 2000; ++i) {
    p.ProcessRow(sites[i], Rows()[i]);
    reference.ProcessRow(sites[i], Rows()[i]);
    truth.AddRow(Rows()[i]);
  }
  EXPECT_EQ(p.comm_stats().total(), reference.comm_stats().total());
  EXPECT_EQ(p.per_site_messages(), reference.per_site_messages());
  EXPECT_LE(CovarianceError(truth, p.CoordinatorGram()), kEps + 1e-9);
}

}  // namespace
}  // namespace matrix
}  // namespace dmt
