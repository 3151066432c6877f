#include "hh/total_weight.h"

#include <tuple>

#include <gtest/gtest.h>

#include "stream/network.h"
#include "stream/router.h"
#include "util/rng.h"

namespace dmt {
namespace hh {
namespace {

// Serial delivery of one observation: the site, which knows the current
// broadcast estimate, reports straight to the coordinator half, counting
// the scalar and any broadcast in `net` the way the owning protocols do.
void Observe(TotalWeightTracker* t, stream::Network* net, size_t site,
             double weight) {
  const double amount =
      t->SitePendingReport(site, weight, t->broadcast_estimate());
  if (amount <= 0.0) return;
  net->RecordScalar(site);
  if (t->ApplyReport(amount)) {
    net->RecordBroadcast();
    net->RecordRound();
  }
}

TEST(TotalWeightTest, BootstrapsOnFirstObservation) {
  stream::Network net(4);
  TotalWeightTracker t(4);
  EXPECT_DOUBLE_EQ(t.broadcast_estimate(), 0.0);
  Observe(&t, &net, 0, 2.5);
  EXPECT_GT(t.broadcast_estimate(), 0.0);
}

// Property sweep: W-hat <= W <= 2 W-hat once bootstrapped, for any mix of
// sites and weights.
class TotalWeightInvariantTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(TotalWeightInvariantTest, TwoApproximationInvariant) {
  auto [m, seed] = GetParam();
  stream::Network net(m);
  TotalWeightTracker t(m);
  stream::Router router(m, stream::RoutingPolicy::kUniform, seed);
  Rng rng(seed);
  double true_weight = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double w = 1.0 + 9.0 * rng.NextDouble();
    true_weight += w;
    Observe(&t, &net, router.NextSite(), w);
    const double what = t.broadcast_estimate();
    ASSERT_GT(what, 0.0);
    ASSERT_LE(what, true_weight + 1e-9) << "W-hat must lower-bound W";
    ASSERT_GE(2.0 * what, true_weight - 1e-9) << "W <= 2 W-hat violated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TotalWeightInvariantTest,
    ::testing::Combine(::testing::Values<size_t>(1, 4, 16, 64),
                       ::testing::Values(1, 2, 3)));

TEST(TotalWeightTest, MessageCountLogarithmic) {
  const size_t m = 10;
  stream::Network net(m);
  TotalWeightTracker t(m);
  stream::Router router(m, stream::RoutingPolicy::kUniform, 7);
  const int n = 100000;
  for (int i = 0; i < n; ++i) Observe(&t, &net, router.NextSite(), 1.0);
  // O(m log W) scalar messages: far below one per item.
  EXPECT_LT(net.stats().scalar_up, static_cast<uint64_t>(n / 10));
  EXPECT_GT(net.stats().broadcast_events, 3u);
  EXPECT_LT(net.stats().broadcast_events, 100u);
}

TEST(TotalWeightTest, CoordinatorWeightLowerBoundsTruth) {
  stream::Network net(3);
  TotalWeightTracker t(3);
  double truth = 0.0;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    double w = 1.0 + rng.NextDouble();
    truth += w;
    Observe(&t, &net, i % 3, w);
    ASSERT_LE(t.coordinator_weight(), truth + 1e-9);
  }
}

}  // namespace
}  // namespace hh
}  // namespace dmt
