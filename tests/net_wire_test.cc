// Wire-format tests: golden checked-in frame bytes (the format contract —
// a change that shifts any byte is a protocol break and must bump the
// frame version), encode/decode round-trips for every message payload,
// the rejection paths (bad magic/version/type, CRC, truncation,
// oversize), and the protocol decoders' domain checks: payloads that
// parse but carry values the coordinator must never apply. See
// docs/PROTOCOL.md for the layouts these pin.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hh/p1_batched_mg.h"
#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/workload.h"
#include "util/codec.h"

namespace dmt {
namespace net {
namespace {

std::vector<uint8_t> Frame(MsgType type, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  AppendFrame(type, payload.data(), payload.size(), &out);
  return out;
}

// One protocol message's payload, in protocol P's encoding.
template <typename P, typename M>
std::vector<uint8_t> Encoded(const M& msg) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  P::EncodeMessage(msg, &w);
  return payload;
}

// A P1 flush with a k = 2 summary (eps = 1 gives every P1 summary k = 2).
hh::P1Flush SmallFlush() {
  hh::P1Flush flush;
  EXPECT_TRUE(flush.summary.RestoreState(2, 12.0, 1.5, {{5, 8.0}, {9, 2.5}}));
  flush.weight = 12.0;
  return flush;
}

// ---------------------------------------------------------------------------
// Golden fixtures. Byte-for-byte images of real frames, checked in so an
// accidental encoding change (field order, width, endianness, CRC poly)
// fails loudly instead of silently forking the wire format.

TEST(WireGoldenTest, WindowEndFrameBytes) {
  std::vector<uint8_t> payload;
  EncodePayload(WindowEndMsg{7}, &payload);
  const std::vector<uint8_t> frame = Frame(MsgType::kWindowEnd, payload);
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x02, 0x00, 0x00,  // "DMTW" v1 type=2
      0x08, 0x00, 0x00, 0x00, 0x70, 0xd6, 0xe7, 0x6f,  // len=8, crc
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // window=7 (u64 LE)
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

TEST(WireGoldenTest, BroadcastFrameBytes) {
  BroadcastMsg m;
  m.window = 3;
  m.value = 2.5;
  std::vector<uint8_t> payload;
  EncodePayload(m, &payload);
  const std::vector<uint8_t> frame = Frame(MsgType::kBroadcast, payload);
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x03, 0x00, 0x00,
      0x10, 0x00, 0x00, 0x00, 0x33, 0x7b, 0xc3, 0xd7,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // window=3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  // 2.5 (IEEE-754 LE)
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

TEST(WireGoldenTest, HHFlushFrameBytes) {
  const std::vector<uint8_t> frame =
      Frame(MsgType::kProtocol, Encoded<hh::P1BatchedMG>(SmallFlush()));
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x0a, 0x00, 0x00,  // type=10 (protocol)
      0x40, 0x00, 0x00, 0x00, 0x5a, 0x16, 0x72, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x40,  // weight=12.0
      0x02, 0x00, 0x00, 0x00,                          // k=2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x40,  // total_weight=12.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // total_decrement=1.5
      0x02, 0x00, 0x00, 0x00,                          // counter count=2
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // element 5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40,  // weight 8.0
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // element 9
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  // weight 2.5
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

TEST(WireGoldenTest, MatrixDirectionFrameBytes) {
  const std::vector<uint8_t> frame =
      Frame(MsgType::kProtocol, Encoded<matrix::MP2SvdThreshold>(
                                    matrix::MP2Msg{false, 4.0, {0.5, -0.5}}));
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x0a, 0x00, 0x00,
      0x1d, 0x00, 0x00, 0x00, 0x99, 0xeb, 0x46, 0x5f,
      0x00,                                            // kind: direction
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,  // lambda=4.0
      0x02, 0x00, 0x00, 0x00,                          // dim=2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf,  // -0.5
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

// ---------------------------------------------------------------------------
// Round-trips: decode(encode(m)) must reproduce every field bit-for-bit
// (doubles compared via their byte images — the equivalence guarantee).

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(WireRoundTripTest, Hello) {
  HelloMsg m;
  m.site = 3;
  m.num_sites = 9;
  m.num_windows = 1234567;
  m.protocol = "mp2";
  std::vector<uint8_t> payload;
  EncodePayload(m, &payload);
  HelloMsg back;
  ASSERT_TRUE(DecodePayload(payload.data(), payload.size(), &back));
  EXPECT_EQ(back.site, m.site);
  EXPECT_EQ(back.num_sites, m.num_sites);
  EXPECT_EQ(back.num_windows, m.num_windows);
  EXPECT_EQ(back.protocol, m.protocol);
}

TEST(WireRoundTripTest, WindowEndAndSiteDone) {
  std::vector<uint8_t> payload;
  EncodePayload(WindowEndMsg{~uint64_t{0}}, &payload);
  WindowEndMsg we;
  ASSERT_TRUE(DecodePayload(payload.data(), payload.size(), &we));
  EXPECT_EQ(we.window, ~uint64_t{0});

  payload.clear();
  EncodePayload(SiteDoneMsg{42}, &payload);
  SiteDoneMsg sd;
  ASSERT_TRUE(DecodePayload(payload.data(), payload.size(), &sd));
  EXPECT_EQ(sd.windows, 42u);
}

TEST(WireRoundTripTest, BroadcastPreservesDoubleBits) {
  // Values picked to stress the encoding: denormal, negative zero, an
  // irrational with a full mantissa, and a huge magnitude.
  for (const double v : {5e-324, -0.0, 1.0 / 3.0, -1.7e308, 2.5}) {
    BroadcastMsg m;
    m.window = 11;
    m.value = v;
    std::vector<uint8_t> payload;
    EncodePayload(m, &payload);
    BroadcastMsg back;
    ASSERT_TRUE(DecodePayload(payload.data(), payload.size(), &back));
    EXPECT_EQ(back.window, 11u);
    EXPECT_TRUE(SameBits(back.value, v)) << v;
  }
}

TEST(WireRoundTripTest, HHFlush) {
  // eps = 1/8 gives k = 16; the 17 counters stay within 2k.
  hh::P1Flush m;
  std::vector<std::pair<uint64_t, double>> counters;
  for (uint64_t e = 0; e < 17; ++e) {
    counters.emplace_back(e * 1000003, 1.0 / static_cast<double>(e + 1));
  }
  ASSERT_TRUE(m.summary.RestoreState(16, 1e6 + 1.0 / 3.0, 5e-324, counters));
  m.weight = 123.25;
  const std::vector<uint8_t> payload = Encoded<hh::P1BatchedMG>(m);
  const hh::P1BatchedMG coordinator(2, 0.125);
  ByteReader r(payload.data(), payload.size());
  hh::P1Flush back;
  ASSERT_TRUE(coordinator.DecodeMessage(&r, &back));
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(SameBits(back.weight, m.weight));
  EXPECT_EQ(back.summary.k(), m.summary.k());
  EXPECT_TRUE(SameBits(back.summary.total_weight(), m.summary.total_weight()));
  EXPECT_TRUE(
      SameBits(back.summary.total_decrement(), m.summary.total_decrement()));
  const auto want = m.summary.Items();
  const auto got = back.summary.Items();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_TRUE(SameBits(got[i].second, want[i].second));
  }
}

TEST(WireRoundTripTest, MatrixScalarAndDirection) {
  const matrix::MP2SvdThreshold coordinator(2, 0.2);
  std::vector<uint8_t> payload =
      Encoded<matrix::MP2SvdThreshold>(matrix::MP2Msg{true, 1.0 / 7.0, {}});
  ByteReader scalar(payload.data(), payload.size(), 24);
  matrix::MP2Msg s;
  ASSERT_TRUE(coordinator.DecodeMessage(&scalar, &s));
  EXPECT_TRUE(scalar.exhausted());
  EXPECT_TRUE(s.is_scalar);
  EXPECT_TRUE(SameBits(s.value, 1.0 / 7.0));

  matrix::MP2Msg m{false, 3.75, {}};
  for (int i = 0; i < 24; ++i) m.dir.push_back(std::sin(i + 1.0));
  payload = Encoded<matrix::MP2SvdThreshold>(m);
  ByteReader direction(payload.data(), payload.size(), 24);
  matrix::MP2Msg back;
  ASSERT_TRUE(coordinator.DecodeMessage(&direction, &back));
  EXPECT_TRUE(direction.exhausted());
  EXPECT_FALSE(back.is_scalar);
  EXPECT_TRUE(SameBits(back.value, m.value));
  ASSERT_EQ(back.dir.size(), m.dir.size());
  for (size_t i = 0; i < m.dir.size(); ++i) {
    EXPECT_TRUE(SameBits(back.dir[i], m.dir[i])) << i;
  }
}

TEST(WireRoundTripTest, MP1FlushDecodesIntoTheAdapterBuffer) {
  std::vector<double> rows(3 * 5);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      rows[i * 5 + j] = static_cast<double>(i) - 0.25 * static_cast<double>(j);
    }
  }
  const std::vector<uint8_t> payload = Encoded<matrix::MP1BatchedFD>(
      matrix::MP1Flush{rows.data(), 3, 5, 321.5});
  const matrix::MP1BatchedFD coordinator(2, 0.2);
  ByteReader r(payload.data(), payload.size(), 5);
  matrix::MP1WireFlush back;
  ASSERT_TRUE(coordinator.DecodeMessage(&r, &back));
  EXPECT_TRUE(r.exhausted());
  const matrix::MP1Flush view = back;
  EXPECT_EQ(view.count, 3u);
  EXPECT_EQ(view.cols, 5u);
  EXPECT_TRUE(SameBits(view.frob, 321.5));
  EXPECT_EQ(view.rows, back.rows.data());
  EXPECT_EQ(std::memcmp(view.rows, rows.data(), rows.size() * sizeof(double)),
            0);
}

// Every decoder must reject every strict prefix of a valid payload —
// truncation never parses, and (because count fields are validated
// against remaining bytes) never over-allocates.
TEST(WireRoundTripTest, EveryPrefixOfEveryPayloadIsRejected) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> payloads;
  {
    std::vector<uint8_t> p;
    HelloMsg h;
    h.protocol = "p1";
    EncodePayload(h, &p);
    payloads.emplace_back("hello", p);
  }
  {
    std::vector<uint8_t> p;
    EncodePayload(WindowEndMsg{1}, &p);
    payloads.emplace_back("window_end", p);
  }
  {
    std::vector<uint8_t> p;
    EncodePayload(BroadcastMsg{1, 2.0}, &p);
    payloads.emplace_back("broadcast", p);
  }
  payloads.emplace_back("p1_flush", Encoded<hh::P1BatchedMG>(SmallFlush()));
  payloads.emplace_back("mp2_direction",
                        Encoded<matrix::MP2SvdThreshold>(
                            matrix::MP2Msg{false, 1.0, {1.0, 2.0}}));
  const std::vector<double> rows = {1.0, 2.0};
  payloads.emplace_back("mp1_flush", Encoded<matrix::MP1BatchedFD>(
                                         matrix::MP1Flush{rows.data(), 1, 2,
                                                          5.0}));
  const hh::P1BatchedMG p1(2, 1.0);
  const matrix::MP2SvdThreshold mp2(2, 0.2);
  const matrix::MP1BatchedFD mp1(2, 0.2);
  for (const auto& [name, p] : payloads) {
    for (size_t n = 0; n < p.size(); ++n) {
      ByteReader r(p.data(), n, 2);
      HelloMsg hello;
      WindowEndMsg we;
      BroadcastMsg bc;
      hh::P1Flush flush;
      matrix::MP2Msg mp2_msg;
      matrix::MP1WireFlush mp1_flush;
      bool accepted = false;
      if (name == "hello") accepted = DecodePayload(p.data(), n, &hello);
      if (name == "window_end") accepted = DecodePayload(p.data(), n, &we);
      if (name == "broadcast") accepted = DecodePayload(p.data(), n, &bc);
      if (name == "p1_flush") {
        accepted = p1.DecodeMessage(&r, &flush) && r.exhausted();
      }
      if (name == "mp2_direction") {
        accepted = mp2.DecodeMessage(&r, &mp2_msg) && r.exhausted();
      }
      if (name == "mp1_flush") {
        accepted = mp1.DecodeMessage(&r, &mp1_flush) && r.exhausted();
      }
      EXPECT_FALSE(accepted) << name << " accepted prefix of " << n
                             << " of " << p.size() << " bytes";
    }
  }
}

// ---------------------------------------------------------------------------
// Domain checks: payloads that parse but must never reach Apply. Each runs
// through the registered adapter's ApplyFrame, the coordinator's whole
// receive path, and must leave the protocol untouched.

WireRunConfig DomainConfig(const std::string& protocol) {
  WireRunConfig config;
  config.protocol = protocol;
  config.num_sites = 2;
  config.eps = 1.0;  // P1 summaries have k = 2
  config.dim = 2;
  return config;
}

// True when the coordinator's adapter rejects `payload` with an error and
// counted no message.
bool Rejected(const std::string& protocol,
              const std::vector<uint8_t>& payload) {
  const WireProtocol p = MakeWireProtocol(DomainConfig(protocol));
  EXPECT_NE(p.adapter, nullptr) << protocol;
  if (p.adapter == nullptr) return false;
  std::string error;
  if (p.adapter->ApplyFrame(0, MsgType::kProtocol, payload.data(),
                            payload.size(), &error)) {
    return false;
  }
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(p.instance().comm_stats().total(), 0u) << protocol;
  return true;
}

// A P1 flush payload with the given W_i, k and counters.
std::vector<uint8_t> P1Payload(
    double weight, uint32_t k,
    const std::vector<std::pair<uint64_t, double>>& counters) {
  std::vector<uint8_t> p;
  ByteWriter w(&p);
  w.Put<double>(weight);
  w.Put<uint32_t>(k);
  w.Put<double>(12.0);  // total weight
  w.Put<double>(0.0);   // total decrement
  w.Field(counters);
  return p;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(WireDomainTest, ValidPayloadsAreAccepted) {
  EXPECT_FALSE(Rejected("p1", P1Payload(12.0, 2, {{7, 4.0}, {8, 3.0}})));
  EXPECT_FALSE(Rejected("mp2", Encoded<matrix::MP2SvdThreshold>(
                                   matrix::MP2Msg{false, 2.0, {0.6, 0.8}})));
  EXPECT_FALSE(Rejected("mp2", Encoded<matrix::MP2SvdThreshold>(
                                   matrix::MP2Msg{true, 0.0, {}})));
}

// The regression payload: before the domain checks, P1's adapter merged
// it and the coordinator reported Estimate(7) = NaN, Estimate(8) = -3 and
// a NaN total.
TEST(WireDomainTest, P1FlushWithNaNWeightAndBadCountersIsRejected) {
  EXPECT_TRUE(Rejected("p1", P1Payload(kNaN, 2, {{7, kNaN}, {8, -3.0}})));
  // Each defect on its own.
  EXPECT_TRUE(Rejected("p1", P1Payload(kNaN, 2, {{7, 4.0}, {8, 3.0}})));
  EXPECT_TRUE(Rejected("p1", P1Payload(12.0, 2, {{7, kNaN}, {8, 3.0}})));
  EXPECT_TRUE(Rejected("p1", P1Payload(12.0, 2, {{7, 4.0}, {8, -3.0}})));
  EXPECT_TRUE(Rejected("p1", P1Payload(-1.0, 2, {{7, 4.0}})));
}

TEST(WireDomainTest, P1FlushMustMatchKAndHoldDistinctCounters) {
  EXPECT_TRUE(Rejected("p1", P1Payload(12.0, 3, {{7, 4.0}})));
  EXPECT_TRUE(Rejected("p1", P1Payload(12.0, 2, {{7, 4.0}, {7, 3.0}})));
  EXPECT_TRUE(Rejected(
      "p1", P1Payload(12.0, 2, {{1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0},
                                {5, 1.0}})));  // 2k + 1 counters
}

TEST(WireDomainTest, MP2DirectionWithInfiniteLambdaIsRejected) {
  std::vector<uint8_t> p;
  ByteWriter w(&p);
  w.Put<uint8_t>(0);  // direction
  w.Put<double>(kInf);
  w.Row({0.6, 0.8});
  EXPECT_TRUE(Rejected("mp2", p));
}

TEST(WireDomainTest, MP2NegativeScalarIsRejected) {
  EXPECT_TRUE(Rejected("mp2", Encoded<matrix::MP2SvdThreshold>(
                                  matrix::MP2Msg{true, -1e300, {}})));
}

// A direction one longer than the run's dimension: the coordinator must
// not size its Grams from a peer's payload.
TEST(WireDomainTest, RowsOfAnyOtherWidthAreRejected) {
  EXPECT_TRUE(Rejected("mp2", Encoded<matrix::MP2SvdThreshold>(matrix::MP2Msg{
                                  false, 1.0, {1.0, 0.0, 0.0}})));
  const std::vector<double> rows = {1.0, 0.0, 0.0};
  EXPECT_TRUE(Rejected("mp1", Encoded<matrix::MP1BatchedFD>(
                                  matrix::MP1Flush{rows.data(), 1, 3, 1.0})));
  for (const char* name : {"naivefd", "naivesvd"}) {
    std::vector<uint8_t> p;
    ByteWriter w(&p);
    w.Row(rows);
    EXPECT_TRUE(Rejected(name, p)) << name;
  }
}

TEST(WireDomainTest, IndicesMustNameACopyOrSampler) {
  // P4 runs one copy: copy 1 would index past the coordinator's tallies.
  EXPECT_TRUE(Rejected("p4", Encoded<hh::P4Randomized>(
                                 hh::P4Report{false, 3.0, 1, 7})));
  EXPECT_FALSE(Rejected("p4", Encoded<hh::P4Randomized>(
                                  hh::P4Report{false, 3.0, 0, 7})));
  // eps = 1 gives P3wr s = 8 samplers.
  EXPECT_TRUE(Rejected("p3wr", Encoded<hh::P3SamplingWR>(
                                   hh::P3Sends{7, 2.0, {{8, 4.0}}})));
  EXPECT_FALSE(Rejected("p3wr", Encoded<hh::P3SamplingWR>(
                                    hh::P3Sends{7, 2.0, {{7, 4.0}}})));
}

// ---------------------------------------------------------------------------
// Frame header validation: every corruption is a decode error, not an
// abort (the bytes come off a socket).

std::vector<uint8_t> ValidHeader() {
  std::vector<uint8_t> payload;
  EncodePayload(WindowEndMsg{1}, &payload);
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kWindowEnd, payload.data(), payload.size(), &frame);
  frame.resize(kFrameHeaderBytes);
  return frame;
}

TEST(FrameHeaderTest, AcceptsValidHeader) {
  const std::vector<uint8_t> h = ValidHeader();
  FrameHeader out;
  std::string error;
  ASSERT_TRUE(DecodeFrameHeader(h.data(), &out, &error)) << error;
  EXPECT_EQ(out.type, MsgType::kWindowEnd);
  EXPECT_EQ(out.payload_len, 8u);
}

TEST(FrameHeaderTest, RejectsBadMagic) {
  std::vector<uint8_t> h = ValidHeader();
  h[0] = 'X';
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(FrameHeaderTest, RejectsWrongVersion) {
  std::vector<uint8_t> h = ValidHeader();
  h[4] = kFrameVersion + 1;
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(FrameHeaderTest, RejectsUnknownType) {
  std::vector<uint8_t> h = ValidHeader();
  h[5] = 200;
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
  EXPECT_NE(error.find("type"), std::string::npos);
}

TEST(FrameHeaderTest, RejectsOversizePayloadLength) {
  std::vector<uint8_t> h = ValidHeader();
  // Length field at offset 8: set to kMaxFramePayload + 1.
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(h.data() + 8, &huge, sizeof(huge));
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
}

TEST(FrameHeaderTest, CrcCatchesPayloadCorruption) {
  std::vector<uint8_t> payload;
  EncodePayload(BroadcastMsg{5, 1.25}, &payload);
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kBroadcast, payload.data(), payload.size(), &frame);
  FrameHeader header;
  std::string error;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header, &error)) << error;
  // Pristine payload passes.
  EXPECT_TRUE(CheckFrameCrc(header, frame.data() + kFrameHeaderBytes, &error));
  // Any single flipped bit fails.
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    std::vector<uint8_t> corrupt(frame.begin() + kFrameHeaderBytes,
                                 frame.end());
    corrupt[byte] ^= 0x10;
    EXPECT_FALSE(CheckFrameCrc(header, corrupt.data(), &error))
        << "flip in byte " << byte << " not caught";
  }
}

TEST(FrameHeaderTest, KnownTypesRoundTheEnum) {
  for (uint8_t t : {1, 2, 3, 8, 9, 10}) {
    EXPECT_TRUE(IsKnownMsgType(t)) << int{t};
  }
  // 4-7 are retired and must stay unknown.
  for (uint8_t t : {0, 4, 5, 6, 7, 11, 255}) {
    EXPECT_FALSE(IsKnownMsgType(t)) << int{t};
  }
}

}  // namespace
}  // namespace net
}  // namespace dmt
