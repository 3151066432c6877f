// Tests of the benchmark's own metric code: the percentile rule, span
// self-time arithmetic, the bounded sample buffer, and the forwarding
// wrappers' claim to forward every protocol virtual unchanged.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "traced_protocols.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(SortedQuantile({}, 0.5), 0.0);
  EXPECT_EQ(SortedQuantile({1, 2, 3, 4}, 0.5), 2.0);
  EXPECT_EQ(SortedQuantile({1, 2, 3, 4}, 0.99), 4.0);
  EXPECT_EQ(SortedQuantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_EQ(SortedQuantile(Iota(1000), 0.99), 990.0);
  EXPECT_EQ(Median({5, 1, 3}), 3.0);
}

TEST(PercentileTest, SamplesBeyondUsesExactRanks) {
  EXPECT_EQ(SamplesBeyond(1000, 99000), 10u);  // p99 rank 990
  EXPECT_EQ(SamplesBeyond(999, 99000), 9u);    // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(100, 90000), 10u);
  EXPECT_EQ(SamplesBeyond(20, 50000), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50000), 0u);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SupportedTail(Iota(19)).percentile, 0.0);  // 9 beyond p50

  TailPercentile t = SupportedTail(Iota(20));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 10.0);

  t = SupportedTail(Iota(999));  // p99 would leave only 9 beyond
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 900.0);

  t = SupportedTail(Iota(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990.0);

  t = SupportedTail(Iota(100000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.99);
  EXPECT_EQ(t.value, 99990.0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"window", -1, 0.0, 10.0},
      {"drain", 0, 1.0, 3.0},
      {"drain", 0, 2.0, 5.0},    // overlaps the first child
      {"publish", 0, 7.0, 8.0},
      {"publish", 0, 9.0, 12.0},  // runs past its parent: clipped
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 1.0 + 1.0));
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);

  const std::map<std::string, double> by_name = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("window"), 4.0);
  EXPECT_DOUBLE_EQ(by_name.at("drain"), 5.0);
  EXPECT_DOUBLE_EQ(by_name.at("publish"), 4.0);
}

TEST(SpanTest, GrandchildrenCountOnlyAgainstTheirParent) {
  std::vector<Span> spans = {
      {"ingest", -1, 0.0, 10.0},
      {"window", 0, 0.0, 6.0},
      {"drain", 1, 1.0, 4.0},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
}

TEST(SpanTest, AdoptParentsOnlyRootsAddedSinceTheMark) {
  SpanLog log;
  log.Add("drain", -1, 0.0, 1.0);
  const size_t mark = log.size();
  log.Add("drain", -1, 1.0, 2.0);
  log.Add("publish", -1, 2.0, 3.0);
  const size_t window = log.Add("window", -1, 0.5, 3.0);
  log.Adopt(mark, window);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, static_cast<int64_t>(window));
  EXPECT_EQ(log.spans()[2].parent, static_cast<int64_t>(window));
  EXPECT_EQ(log.spans()[3].parent, -1);  // never its own parent
  EXPECT_EQ(Durations(log.spans(), "drain"), (std::vector<double>{1.0, 1.0}));
}

TEST(SampleBufferTest, ThinsEvenlyAndStaysBounded) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 16; ++i) buffer.Add(i);
  EXPECT_EQ(buffer.offered(), 16u);
  EXPECT_EQ(buffer.stride(), 8u);
  EXPECT_EQ(buffer.values(), (std::vector<double>{0, 8}));
  for (int i = 16; i < 40; ++i) buffer.Add(i);
  EXPECT_LE(buffer.values().size(), 4u);
  for (double v : buffer.values()) {
    EXPECT_EQ(static_cast<uint64_t>(v) % buffer.stride(), 0u);
  }
}

// Counts every virtual call; returns distinct values so forwarding of
// results is checked too.
class FakeMatrix : public dmt::matrix::MatrixTrackingProtocol {
 public:
  void ProcessRow(size_t, const std::vector<double>&) override {
    ++calls["ProcessRow"];
  }
  void SiteUpdate(size_t, const std::vector<double>&) override {
    ++calls["SiteUpdate"];
  }
  void Synchronize() override { ++calls["Synchronize"]; }
  void SynchronizeSites(const uint32_t*, size_t count) override {
    ++calls["SynchronizeSites"];
    last_count = count;
  }
  bool SupportsTargetedDrain() const override {
    ++calls["SupportsTargetedDrain"];
    return true;
  }
  size_t PendingOutboxSize(size_t site) const override {
    ++calls["PendingOutboxSize"];
    return site + 7;
  }
  bool SupportsConcurrentSiteUpdates() const override {
    ++calls["SupportsConcurrentSiteUpdates"];
    return true;
  }
  dmt::linalg::Matrix CoordinatorSketch() const override {
    ++calls["CoordinatorSketch"];
    return dmt::linalg::Matrix(1, 2);
  }
  dmt::linalg::Matrix CoordinatorGram() const override {
    ++calls["CoordinatorGram"];
    return dmt::linalg::Matrix(3, 3);
  }
  dmt::linalg::Matrix ExportSnapshotSketch() const override {
    ++calls["ExportSnapshotSketch"];
    return dmt::linalg::Matrix(4, 2);
  }
  const dmt::stream::CommStats& comm_stats() const override {
    ++calls["comm_stats"];
    return stats;
  }
  std::vector<uint64_t> per_site_messages() const override {
    ++calls["per_site_messages"];
    return {5, 6};
  }
  std::string name() const override {
    ++calls["name"];
    return "fake";
  }

  mutable std::map<std::string, int> calls;
  dmt::stream::CommStats stats;
  size_t last_count = 0;
};

TEST(TracedProtocolTest, MatrixWrapperForwardsEveryVirtual) {
  FakeMatrix inner;
  SpanLog log;
  TracedMatrix traced(&inner, &log);
  dmt::matrix::MatrixTrackingProtocol* p = &traced;
  const uint32_t sites[] = {1, 4};
  p->ProcessRow(0, {1.0});
  p->SiteUpdate(1, {1.0});
  p->Synchronize();
  p->SynchronizeSites(sites, 2);
  EXPECT_TRUE(p->SupportsTargetedDrain());
  EXPECT_EQ(p->PendingOutboxSize(3), 10u);
  EXPECT_TRUE(p->SupportsConcurrentSiteUpdates());
  EXPECT_EQ(p->CoordinatorSketch().rows(), 1u);
  EXPECT_EQ(p->CoordinatorGram().rows(), 3u);
  EXPECT_EQ(p->ExportSnapshotSketch().rows(), 4u);
  EXPECT_EQ(&p->comm_stats(), &inner.stats);
  EXPECT_EQ(p->per_site_messages(), (std::vector<uint64_t>{5, 6}));
  EXPECT_EQ(p->name(), "fake");

  EXPECT_EQ(inner.calls.size(), 13u);  // every virtual of the interface
  for (const auto& [name, n] : inner.calls) EXPECT_EQ(n, 1) << name;
  EXPECT_EQ(inner.last_count, 2u);
  EXPECT_EQ(Durations(log.spans(), "drain").size(), 2u);
  EXPECT_EQ(traced.drained_sites(), 2u);
}

class FakeHH : public dmt::hh::HeavyHitterProtocol {
 public:
  void Process(size_t, uint64_t, double) override { ++calls["Process"]; }
  void SiteUpdate(size_t, uint64_t, double) override {
    ++calls["SiteUpdate"];
  }
  void Synchronize() override { ++calls["Synchronize"]; }
  void SynchronizeSites(const uint32_t*, size_t) override {
    ++calls["SynchronizeSites"];
  }
  bool SupportsTargetedDrain() const override {
    ++calls["SupportsTargetedDrain"];
    return true;
  }
  size_t PendingOutboxSize(size_t site) const override {
    ++calls["PendingOutboxSize"];
    return site + 1;
  }
  bool SupportsConcurrentSiteUpdates() const override {
    ++calls["SupportsConcurrentSiteUpdates"];
    return true;
  }
  double EstimateElementWeight(uint64_t e) const override {
    ++calls["EstimateElementWeight"];
    return static_cast<double>(e) * 2.0;
  }
  double EstimateTotalWeight() const override {
    ++calls["EstimateTotalWeight"];
    return 99.0;
  }
  const dmt::stream::CommStats& comm_stats() const override {
    ++calls["comm_stats"];
    return stats;
  }
  std::vector<uint64_t> per_site_messages() const override {
    ++calls["per_site_messages"];
    return {3};
  }
  std::string name() const override {
    ++calls["name"];
    return "fake";
  }
  std::vector<uint64_t> TrackedElements() const override {
    ++calls["TrackedElements"];
    return {8, 9};
  }
  std::vector<dmt::hh::HHSnapshotEntry> ExportSnapshotEntries()
      const override {
    ++calls["ExportSnapshotEntries"];
    return {{8, 1.5}};
  }

  mutable std::map<std::string, int> calls;
  dmt::stream::CommStats stats;
};

TEST(TracedProtocolTest, HeavyHitterWrapperForwardsEveryVirtual) {
  FakeHH inner;
  SpanLog log;
  TracedHH traced(&inner, &log);
  dmt::hh::HeavyHitterProtocol* p = &traced;
  const uint32_t sites[] = {0};
  p->Process(0, 1, 1.0);
  p->SiteUpdate(0, 1, 1.0);
  p->Synchronize();
  p->SynchronizeSites(sites, 1);
  EXPECT_TRUE(p->SupportsTargetedDrain());
  EXPECT_EQ(p->PendingOutboxSize(2), 3u);
  EXPECT_TRUE(p->SupportsConcurrentSiteUpdates());
  EXPECT_EQ(p->EstimateElementWeight(4), 8.0);
  EXPECT_EQ(p->EstimateTotalWeight(), 99.0);
  EXPECT_EQ(&p->comm_stats(), &inner.stats);
  EXPECT_EQ(p->per_site_messages(), (std::vector<uint64_t>{3}));
  EXPECT_EQ(p->name(), "fake");
  EXPECT_EQ(p->TrackedElements(), (std::vector<uint64_t>{8, 9}));
  EXPECT_EQ(p->ExportSnapshotEntries().size(), 1u);

  EXPECT_EQ(inner.calls.size(), 14u);  // every virtual of the interface
  for (const auto& [name, n] : inner.calls) EXPECT_EQ(n, 1) << name;
  EXPECT_EQ(Durations(log.spans(), "drain").size(), 2u);
}

class FakeWire : public dmt::net::WireAdapter {
 public:
  std::string protocol_name() const override {
    ++calls["protocol_name"];
    return "p1";
  }
  size_t num_sites() const override {
    ++calls["num_sites"];
    return 3;
  }
  void EncodeWindow(size_t, dmt::net::FrameBatch*) override {
    ++calls["EncodeWindow"];
  }
  void ApplyBroadcast(size_t, double) override { ++calls["ApplyBroadcast"]; }
  bool ApplyFrame(size_t, dmt::net::MsgType, const uint8_t*, size_t,
                  std::string* error) override {
    ++calls["ApplyFrame"];
    *error = "bad";
    return false;
  }
  double BroadcastValue() const override {
    ++calls["BroadcastValue"];
    return 2.5;
  }

  mutable std::map<std::string, int> calls;
};

TEST(TracedProtocolTest, WireWrapperForwardsEveryVirtual) {
  FakeWire inner;
  SpanLog log;
  TracedWire traced(&inner, &log);
  dmt::net::WireAdapter* p = &traced;
  std::string error;
  EXPECT_EQ(p->protocol_name(), "p1");
  EXPECT_EQ(p->num_sites(), 3u);
  p->EncodeWindow(0, nullptr);
  p->ApplyBroadcast(0, 1.0);
  EXPECT_FALSE(
      p->ApplyFrame(0, dmt::net::MsgType::kWindowEnd, nullptr, 0, &error));
  EXPECT_EQ(error, "bad");
  EXPECT_EQ(p->BroadcastValue(), 2.5);

  EXPECT_EQ(inner.calls.size(), 6u);  // every virtual of the interface
  for (const auto& [name, n] : inner.calls) EXPECT_EQ(n, 1) << name;
  EXPECT_EQ(Durations(log.spans(), "drain").size(), 1u);
}

}  // namespace
}  // namespace perfbench
