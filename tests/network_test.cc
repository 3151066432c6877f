#include "stream/network.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace dmt {
namespace stream {
namespace {

TEST(CommStatsTest, TotalsAddUp) {
  CommStats s;
  s.scalar_up = 3;
  s.element_up = 5;
  s.vector_up = 7;
  s.broadcast_msgs = 20;
  EXPECT_EQ(s.total_up(), 15u);
  EXPECT_EQ(s.total(), 35u);
}

TEST(CommStatsTest, PlusEqualsAccumulates) {
  CommStats a, b;
  a.scalar_up = 1;
  b.scalar_up = 2;
  b.vector_up = 4;
  b.rounds = 3;
  a += b;
  EXPECT_EQ(a.scalar_up, 3u);
  EXPECT_EQ(a.vector_up, 4u);
  EXPECT_EQ(a.rounds, 3u);
}

TEST(NetworkTest, RecordsPerCategory) {
  Network net(4);
  net.RecordScalar(0);
  net.RecordElement(1);
  net.RecordElement(1);
  net.RecordVector(3);
  EXPECT_EQ(net.stats().scalar_up, 1u);
  EXPECT_EQ(net.stats().element_up, 2u);
  EXPECT_EQ(net.stats().vector_up, 1u);
  EXPECT_EQ(net.stats().total_up(), 4u);
}

TEST(NetworkTest, BroadcastCostsOneMessagePerSite) {
  Network net(7);
  net.RecordBroadcast();
  net.RecordBroadcast();
  EXPECT_EQ(net.stats().broadcast_events, 2u);
  EXPECT_EQ(net.stats().broadcast_msgs, 14u);
  EXPECT_EQ(net.stats().total(), 14u);
}

TEST(NetworkTest, PerSiteUpstreamCounters) {
  Network net(3);
  net.RecordScalar(0);
  net.RecordVector(0);
  net.RecordElement(2);
  EXPECT_EQ(net.per_site_up()[0], 2u);
  EXPECT_EQ(net.per_site_up()[1], 0u);
  EXPECT_EQ(net.per_site_up()[2], 1u);
}

TEST(NetworkTest, TotalEqualsPerSiteSumPlusBroadcastCost) {
  const size_t kSites = 8;
  Network net(kSites);
  for (size_t site = 0; site < kSites; ++site) {
    for (size_t i = 0; i < 50 + site; ++i) {
      net.Record(site, MessageCost{i % 3 == 0, i % 3 == 1, i % 3 == 2});
    }
    if (site % 2 == 0) net.RecordBroadcast();
  }

  uint64_t per_site_sum = 0;
  for (uint64_t c : net.per_site_up()) per_site_sum += c;
  const CommStats& s = net.stats();
  EXPECT_EQ(s.total_up(), per_site_sum);
  EXPECT_EQ(s.total(), per_site_sum + s.broadcast_events * kSites);
  EXPECT_EQ(s.broadcast_events, kSites / 2);
}

// A message's declared cost lands in its categories and in the sender's
// per-site count.
TEST(NetworkTest, RecordAddsMessageCost) {
  Network net(2);
  net.Record(1, MessageCost{1, 0, 0});
  net.Record(1, MessageCost{0, 5, 0});
  net.Record(0, MessageCost{0, 0, 3});
  EXPECT_EQ(net.stats().scalar_up, 1u);
  EXPECT_EQ(net.stats().element_up, 5u);
  EXPECT_EQ(net.stats().vector_up, 3u);
  EXPECT_EQ(net.per_site_up(), (std::vector<uint64_t>{3, 6}));
}

// Reads are stable: two stats() calls with no record between them agree.
TEST(NetworkTest, RepeatedReadsAreIdempotent) {
  Network net(3);
  net.RecordScalar(0);
  net.RecordVector(2);
  net.RecordBroadcast();
  const CommStats first = net.stats();  // copy
  const CommStats& second = net.stats();
  EXPECT_EQ(first.total(), second.total());
  EXPECT_EQ(first.scalar_up, second.scalar_up);
  EXPECT_EQ(first.broadcast_msgs, second.broadcast_msgs);
}

TEST(NetworkDeathTest, OutOfRangeSiteAborts) {
  Network net(2);
  EXPECT_DEATH(net.RecordScalar(2), "DMT_CHECK");
}

}  // namespace
}  // namespace stream
}  // namespace dmt
