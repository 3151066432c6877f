// Decoder robustness: the dynamic twin of dmt_lint's untrusted-input
// family. One golden frame per message type — the transport's own and
// every protocol message, decoded and delivered by the registered wire
// adapters — is replayed through an exhaustive single-byte mutation
// sweep, every truncation, and a seeded multi-byte fuzz pass; every mutant
// must come back as a clean decode error or a clean (bounded) success —
// never an abort and never an allocation beyond what the mutant's own
// byte count can justify. See src/net/frame.h for the header layout the
// position-based assertions below index into.
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hh/exact_tracker.h"
#include "hh/p1_batched_mg.h"
#include "hh/p2_threshold.h"
#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "matrix/baselines.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "matrix/mp3_sampling.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/workload.h"
#include "util/codec.h"

namespace dmt {
namespace net {
namespace {

struct GoldenFrame {
  const char* name;
  MsgType type;
  std::vector<uint8_t> payload;
  // The registered protocol whose adapter decodes a kProtocol payload (a
  // transport frame whose type byte mutates into kProtocol goes to P1's).
  const char* protocol = "p1";
};

// Every adapter decodes for a run of 2 sites at eps = 1 (P1 summaries
// have k = 2, P3wr and MP3wr keep 8 samplers, P4 one copy) over rows of
// width 2.
WireAdapter* Adapter(const std::string& protocol) {
  static std::map<std::string, WireProtocol> adapters;
  auto it = adapters.find(protocol);
  if (it == adapters.end()) {
    WireRunConfig config;
    config.protocol = protocol;
    config.num_sites = 2;
    config.eps = 1.0;
    config.dim = 2;
    it = adapters.emplace(protocol, MakeWireProtocol(config)).first;
  }
  return it->second.adapter.get();
}

template <typename P, typename M>
GoldenFrame ProtocolFrame(const char* name, const char* protocol,
                          const M& msg) {
  std::vector<uint8_t> p;
  ByteWriter w(&p);
  P::EncodeMessage(msg, &w);
  return GoldenFrame{name, MsgType::kProtocol, std::move(p), protocol};
}

// One representative per message type with a payload (kShutdown travels
// with an empty payload): the transport's own frames, as
// tests/net_wire_test.cc pins them, and every protocol message type, each
// decoded by its registered adapter (P2bounded shares P2's reports and
// NaiveSvd NaiveFd's rows).
std::vector<GoldenFrame> GoldenFrames() {
  std::vector<GoldenFrame> frames;

  {
    HelloMsg m;
    m.site = 3;
    m.num_sites = 9;
    m.num_windows = 1234567;
    m.protocol = "mp2";
    std::vector<uint8_t> p;
    EncodePayload(m, &p);
    frames.push_back({"hello", MsgType::kHello, std::move(p)});
  }
  {
    std::vector<uint8_t> p;
    EncodePayload(WindowEndMsg{7}, &p);
    frames.push_back({"window_end", MsgType::kWindowEnd, std::move(p)});
  }
  {
    BroadcastMsg m;
    m.window = 3;
    m.value = 2.5;
    std::vector<uint8_t> p;
    EncodePayload(m, &p);
    frames.push_back({"broadcast", MsgType::kBroadcast, std::move(p)});
  }
  {
    std::vector<uint8_t> p;
    EncodePayload(SiteDoneMsg{42}, &p);
    frames.push_back({"site_done", MsgType::kSiteDone, std::move(p)});
  }
  {
    hh::P1Flush flush;
    EXPECT_TRUE(
        flush.summary.RestoreState(2, 12.0, 1.5, {{5, 8.0}, {9, 2.5}}));
    flush.weight = 12.0;
    frames.push_back(ProtocolFrame<hh::P1BatchedMG>("p1_flush", "p1", flush));
  }
  frames.push_back(ProtocolFrame<hh::P2Threshold>(
      "p2_report", "p2", hh::P2Report{false, 3.5, 42}));
  frames.push_back(ProtocolFrame<hh::P3SamplingWoR>(
      "p3wor_entry", "p3wor", sketch::PriorityEntry{42, 2.0, 5.0}));
  frames.push_back(ProtocolFrame<hh::P3SamplingWR>(
      "p3wr_sends", "p3wr", hh::P3Sends{42, 2.0, {{1, 4.0}, {5, 9.0}}}));
  frames.push_back(ProtocolFrame<hh::P4Randomized>(
      "p4_report", "p4", hh::P4Report{false, 3.0, 0, 42}));
  frames.push_back(ProtocolFrame<hh::ExactTracker>(
      "exact_forward", "exact", hh::ExactForward{42, 2.5}));
  {
    const std::vector<double> rows = {0.5, -0.5, 0.25, 1.0};
    frames.push_back(ProtocolFrame<matrix::MP1BatchedFD>(
        "mp1_flush", "mp1", matrix::MP1Flush{rows.data(), 2, 2, 1.625}));
  }
  frames.push_back(ProtocolFrame<matrix::MP2SvdThreshold>(
      "mp2_direction", "mp2", matrix::MP2Msg{false, 4.0, {0.5, -0.5}}));
  frames.push_back(ProtocolFrame<matrix::MP3SamplingWoR>(
      "mp3wor_row", "mp3wor", matrix::MP3SampledRow{{0.6, 0.8}, 1.0, 3.0}));
  frames.push_back(ProtocolFrame<matrix::MP3SamplingWR>(
      "mp3wr_sends", "mp3wr",
      matrix::MP3Sends{{0.6, 0.8}, 1.0, {{2, 3.0}, {6, 5.0}}}));
  frames.push_back(ProtocolFrame<matrix::NaiveFdBaseline>(
      "baseline_row", "naivefd", std::vector<double>{0.6, 0.8}));
  return frames;
}

std::vector<uint8_t> EncodeFrame(const GoldenFrame& g) {
  std::vector<uint8_t> out;
  AppendFrame(g.type, g.payload.data(), g.payload.size(), &out);
  return out;
}

// Runs the payload through the decoder its type byte selects and checks
// that every variable-size output is justified by the input byte count —
// the "no over-allocation" half of the contract (protocol payloads are
// bounded inside the shared reader, util/codec.h). A protocol payload
// that decodes is delivered to the coordinator, so an in-domain message
// must never reach an abort either. Returns the decoder's verdict (true =
// accepted).
bool DecodePayloadBounded(MsgType type, const char* protocol,
                          const uint8_t* p, size_t n) {
  switch (type) {
    case MsgType::kHello: {
      HelloMsg m;
      if (!DecodePayload(p, n, &m)) return false;
      EXPECT_LE(m.protocol.size(), n);
      return true;
    }
    case MsgType::kWindowEnd: {
      WindowEndMsg m;
      return DecodePayload(p, n, &m);
    }
    case MsgType::kBroadcast: {
      BroadcastMsg m;
      return DecodePayload(p, n, &m);
    }
    case MsgType::kSiteDone: {
      SiteDoneMsg m;
      return DecodePayload(p, n, &m);
    }
    case MsgType::kShutdown:
      return true;  // no payload decoder
    case MsgType::kProtocol: {
      std::string error;
      if (Adapter(protocol)->ApplyFrame(0, type, p, n, &error)) return true;
      EXPECT_FALSE(error.empty());
      return false;
    }
  }
  return false;
}

// In-memory mirror of RecvFrame (src/net/transport.cc): header decode,
// length check against what "arrived", CRC, then payload dispatch.
bool ConsumeFrame(const std::vector<uint8_t>& bytes, const char* protocol) {
  if (bytes.size() < kFrameHeaderBytes) return false;
  FrameHeader h;
  std::string error;
  if (!DecodeFrameHeader(bytes.data(), &h, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  // DecodeFrameHeader enforces the backstop; a mutant that slipped a
  // larger length through would be the over-allocation the lint guards.
  EXPECT_LE(h.payload_len, kMaxFramePayload);
  if (bytes.size() - kFrameHeaderBytes < h.payload_len) {
    return false;  // RecvFrame would still be blocked on the socket
  }
  const uint8_t* payload = bytes.data() + kFrameHeaderBytes;
  if (!CheckFrameCrc(h, payload, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  return DecodePayloadBounded(h.type, protocol, payload, h.payload_len);
}

// Every single-byte corruption of every golden frame. Positions with a
// structural guarantee assert rejection outright: magic/version (0-4) and
// the length/CRC words (8-15) fail header or CRC validation, and any
// payload byte change (>= 16) is caught by CRC-32, which detects all
// single-byte errors. The type byte (5) may mutate into another valid
// type whose decoder legitimately accepts or rejects the payload, and the
// reserved bytes (6-7) are not validated — there the invariant is only
// no-abort/no-over-allocation (checked inside ConsumeFrame).
TEST(DecoderRobustnessTest, ExhaustiveSingleByteMutations) {
  for (const GoldenFrame& g : GoldenFrames()) {
    const std::vector<uint8_t> frame = EncodeFrame(g);
    ASSERT_TRUE(ConsumeFrame(frame, g.protocol)) << g.name;
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        std::vector<uint8_t> mutant = frame;
        mutant[pos] = static_cast<uint8_t>(mutant[pos] ^ delta);
        const bool accepted = ConsumeFrame(mutant, g.protocol);
        const bool must_reject =
            pos <= 4 || (pos >= 8 && pos < kFrameHeaderBytes && pos != 6 &&
                         pos != 7) ||
            pos >= kFrameHeaderBytes;
        if (must_reject) {
          ASSERT_FALSE(accepted)
              << g.name << " byte " << pos << " xor " << delta;
        }
      }
    }
  }
}

// Every proper prefix of every golden frame must be rejected: too short
// for a header, or the header's length outruns the bytes that arrived,
// and a truncation landing exactly on the header never passes CRC against
// an empty payload (all goldens have nonempty payloads).
TEST(DecoderRobustnessTest, ExhaustiveTruncations) {
  for (const GoldenFrame& g : GoldenFrames()) {
    const std::vector<uint8_t> frame = EncodeFrame(g);
    for (size_t len = 0; len < frame.size(); ++len) {
      std::vector<uint8_t> mutant(frame.begin(), frame.begin() + len);
      ASSERT_FALSE(ConsumeFrame(mutant, g.protocol))
          << g.name << " truncated to " << len;
    }
    // Payload-level: feed every truncated payload straight to its own
    // decoder, bypassing the CRC that would otherwise mask it.
    for (size_t len = 0; len < g.payload.size(); ++len) {
      EXPECT_FALSE(
          DecodePayloadBounded(g.type, g.protocol, g.payload.data(), len))
          << g.name << " payload truncated to " << len;
    }
  }
}

// Seeded multi-byte fuzz: random corruption clusters plus random resizes,
// frame-level and payload-level. No structural rejection guarantee here —
// the assertion is the contract itself: clean verdicts, bounded outputs,
// and (implicitly) no abort, which would take the test process down.
TEST(DecoderRobustnessTest, SeededMultiByteMutations) {
  const std::vector<GoldenFrame> frames = GoldenFrames();
  for (size_t i = 0; i < frames.size(); ++i) {
    const GoldenFrame& g = frames[i];
    const std::vector<uint8_t> frame = EncodeFrame(g);
    std::mt19937 rng(0xD317u ^ static_cast<uint32_t>(i));
    for (int iter = 0; iter < 512; ++iter) {
      std::vector<uint8_t> mutant = frame;
      const size_t flips = 1 + rng() % 8;
      for (size_t f = 0; f < flips; ++f) {
        mutant[rng() % mutant.size()] = static_cast<uint8_t>(rng());
      }
      if (rng() % 4 == 0) mutant.resize(rng() % (frame.size() + 8));
      ConsumeFrame(mutant, g.protocol);

      std::vector<uint8_t> payload = g.payload;
      for (size_t f = 0; f < flips; ++f) {
        payload[rng() % payload.size()] = static_cast<uint8_t>(rng());
      }
      DecodePayloadBounded(g.type, g.protocol, payload.data(),
                           payload.size());
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace dmt
