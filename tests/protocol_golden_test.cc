// Golden table for the 12 concurrent protocols: P1, P2 (exact and
// bounded-space sites), P3wor, P3wr, P4, Exact, MP1, MP2, MP3wor, MP3wr
// and the two centralized baselines (NaiveFd, NaiveSvd).
//
// Each row pins one (protocol, routing, path) run on a fixed stream:
//  * every CommStats field and the per-site upstream message counts;
//  * the bit patterns of the coordinator's answer, as an FNV-1a hash of
//    the sorted ExportSnapshotEntries (plus EstimateTotalWeight) for the
//    heavy-hitter protocols and of CoordinatorSketch for the matrix ones.
// The path is either the serial Process/ProcessRow entry point (chunk 0
// in the table) or a SimulationDriver run at chunk 1, 64 or 4096, where
// threads 1 and 4 must both reproduce the row. Routing is uniform or
// skewed (half the stream at site 0).
//
// The table was recorded once, before the protocols moved onto the shared
// message core (stream/protocol_core.h), and must never be regenerated:
// it is the evidence that the port changed no message and no answer bit.
// A missing or mismatching row fails with the actual values printed as a
// table line, so a new protocol can be added by pasting its rows.
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/exact_tracker.h"
#include "hh/p1_batched_mg.h"
#include "hh/p2_threshold.h"
#include "hh/p3_sampling.h"
#include "hh/p4_randomized.h"
#include "matrix/baselines.h"
#include "matrix/mp1_batched_fd.h"
#include "matrix/mp2_svd_threshold.h"
#include "matrix/mp3_sampling.h"
#include "stream/comm_stats.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"

namespace dmt {
namespace {

constexpr size_t kSites = 8;
constexpr size_t kItems = 6000;
constexpr size_t kRows = 3000;
constexpr size_t kDim = 12;
constexpr uint64_t kSeed = 515;
constexpr double kHhEps = 0.1;
constexpr double kMxEps = 0.2;

const std::vector<stream::WeightedUpdate>& Items() {
  static const std::vector<stream::WeightedUpdate> items = [] {
    data::ZipfianStream zipf(/*universe=*/5000, /*skew=*/1.5, /*beta=*/10.0,
                             /*seed=*/kSeed);
    std::vector<stream::WeightedUpdate> out(kItems);
    for (auto& u : out) {
      const data::WeightedItem it = zipf.Next();
      u = stream::WeightedUpdate{it.element, it.weight};
    }
    return out;
  }();
  return items;
}

const std::vector<std::vector<double>>& Rows() {
  static const std::vector<std::vector<double>> rows = [] {
    data::SyntheticMatrixConfig cfg;
    cfg.dim = kDim;
    cfg.latent_rank = 4;
    cfg.seed = kSeed;
    data::SyntheticMatrixGenerator gen(cfg);
    std::vector<std::vector<double>> out(kRows);
    for (auto& row : out) row = gen.Next();
    return out;
  }();
  return rows;
}

std::vector<size_t> Sites(const std::string& routing, size_t n) {
  stream::Router router(kSites,
                        routing == "skewed" ? stream::RoutingPolicy::kSkewed
                                            : stream::RoutingPolicy::kUniform,
                        kSeed + 1);
  return stream::AssignSites(&router, n);
}

// FNV-1a over 64-bit words, byte by byte.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void Double(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Word(bits);
  }
};

struct Golden {
  const char* protocol;
  const char* routing;
  size_t chunk;  // 0 = serial Process path
  stream::CommStats stats;
  std::vector<uint64_t> per_site;
  uint64_t answer_size;  // snapshot entries or sketch rows
  uint64_t answer_hash;
};

struct Fingerprint {
  stream::CommStats stats;
  std::vector<uint64_t> per_site;
  uint64_t answer_size = 0;
  uint64_t answer_hash = 0;
};

Fingerprint Of(const hh::HeavyHitterProtocol& p) {
  Fingerprint f;
  f.stats = p.comm_stats();
  f.per_site = p.per_site_messages();
  const std::vector<hh::HHSnapshotEntry> entries = p.ExportSnapshotEntries();
  Fnv fnv;
  for (const hh::HHSnapshotEntry& e : entries) {
    fnv.Word(e.element);
    fnv.Double(e.weight);
  }
  fnv.Double(p.EstimateTotalWeight());
  f.answer_size = entries.size();
  f.answer_hash = fnv.h;
  return f;
}

Fingerprint Of(const matrix::MatrixTrackingProtocol& p) {
  Fingerprint f;
  f.stats = p.comm_stats();
  f.per_site = p.per_site_messages();
  const linalg::Matrix b = p.CoordinatorSketch();
  Fnv fnv;
  fnv.Word(b.rows());
  fnv.Word(b.cols());
  for (size_t i = 0; i < b.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) fnv.Double(b(i, j));
  }
  f.answer_size = b.rows();
  f.answer_hash = fnv.h;
  return f;
}

std::string TableLine(const std::string& protocol, const std::string& routing,
                      size_t chunk, const Fingerprint& f) {
  std::ostringstream os;
  os << "{\"" << protocol << "\", \"" << routing << "\", " << chunk << ", {"
     << f.stats.scalar_up << ", " << f.stats.element_up << ", "
     << f.stats.vector_up << ", " << f.stats.broadcast_events << ", "
     << f.stats.broadcast_msgs << ", " << f.stats.rounds << "}, {";
  for (size_t i = 0; i < f.per_site.size(); ++i) {
    os << (i ? ", " : "") << f.per_site[i];
  }
  os << "}, " << f.answer_size << ", 0x" << std::hex << f.answer_hash
     << "ull},";
  return os.str();
}

// Recorded at the commit before the message-core port; never regenerate.
const std::vector<Golden>& Goldens() {
  static const std::vector<Golden> g = {
      {"P1", "uniform", 0, {0, 3244, 0, 119, 952, 119},
       {378, 378, 414, 435, 435, 433, 390, 381}, 20, 0xc167ad6f0153a69aull},
      {"P1", "uniform", 1, {0, 3244, 0, 119, 952, 119},
       {378, 378, 414, 435, 435, 433, 390, 381}, 20, 0xc167ad6f0153a69aull},
      {"P1", "uniform", 64, {0, 3274, 0, 119, 952, 119},
       {381, 385, 411, 446, 432, 433, 391, 395}, 20, 0xcec78abb9a88b451ull},
      {"P1", "uniform", 4096, {0, 4942, 0, 122, 976, 122},
       {590, 576, 621, 636, 656, 642, 609, 612}, 20, 0xd71e7fbaa03ee646ull},
      {"P1", "skewed", 0, {0, 3241, 0, 118, 944, 118},
       {1830, 200, 225, 191, 227, 195, 204, 169}, 20, 0x1272b96deb0dca86ull},
      {"P1", "skewed", 1, {0, 3241, 0, 118, 944, 118},
       {1830, 200, 225, 191, 227, 195, 204, 169}, 20, 0x1272b96deb0dca86ull},
      {"P1", "skewed", 64, {0, 3221, 0, 120, 960, 120},
       {1826, 198, 211, 193, 235, 186, 205, 167}, 20, 0xf33acbfb17c090f9ull},
      {"P1", "skewed", 4096, {0, 4930, 0, 122, 976, 122},
       {2752, 300, 336, 307, 346, 308, 305, 276}, 20, 0x7fd2e9138dab6655ull},
      {"P2", "uniform", 0, {392, 228, 0, 49, 392, 49},
       {77, 70, 79, 91, 83, 74, 65, 81}, 32, 0x2862d6fb8c3dcd5ull},
      {"P2", "uniform", 1, {392, 228, 0, 49, 392, 49},
       {77, 70, 79, 91, 83, 74, 65, 81}, 32, 0x2862d6fb8c3dcd5ull},
      {"P2", "uniform", 64, {423, 262, 0, 52, 416, 52},
       {88, 77, 88, 98, 90, 84, 72, 88}, 40, 0xaacc0649219a10c8ull},
      {"P2", "uniform", 4096, {4136, 4114, 0, 517, 4136, 517},
       {995, 945, 1047, 1047, 1102, 1051, 1017, 1046}, 305, 0x752bd189a18c44feull},
      {"P2", "skewed", 0, {387, 248, 0, 48, 384, 48},
       {393, 33, 37, 38, 47, 30, 26, 31}, 33, 0x2f273cbcdb26e87bull},
      {"P2", "skewed", 1, {387, 248, 0, 48, 384, 48},
       {393, 33, 37, 38, 47, 30, 26, 31}, 33, 0x2f273cbcdb26e87bull},
      {"P2", "skewed", 64, {414, 280, 0, 51, 408, 51},
       {421, 35, 40, 43, 52, 38, 29, 36}, 40, 0x983a98453f383bffull},
      {"P2", "skewed", 4096, {4136, 4118, 0, 517, 4136, 517},
       {4583, 491, 555, 525, 578, 533, 508, 481}, 305, 0xc85468609e4856e5ull},
      {"P2bounded", "uniform", 0, {392, 228, 0, 49, 392, 49},
       {77, 70, 79, 91, 83, 74, 65, 81}, 32, 0xa7a45b85933b9799ull},
      {"P2bounded", "uniform", 1, {392, 228, 0, 49, 392, 49},
       {77, 70, 79, 91, 83, 74, 65, 81}, 32, 0xa7a45b85933b9799ull},
      {"P2bounded", "uniform", 64, {423, 262, 0, 52, 416, 52},
       {88, 77, 88, 98, 90, 84, 72, 88}, 40, 0xf810d6cae3638404ull},
      {"P2bounded", "uniform", 4096, {4136, 3958, 0, 517, 4136, 517},
       {978, 931, 1026, 1025, 1089, 1034, 984, 1027}, 305, 0x15a76ebcc05231f1ull},
      {"P2bounded", "skewed", 0, {387, 270, 0, 48, 384, 48},
       {415, 33, 37, 38, 47, 30, 26, 31}, 50, 0xd66a379dd2d2da3cull},
      {"P2bounded", "skewed", 1, {387, 270, 0, 48, 384, 48},
       {415, 33, 37, 38, 47, 30, 26, 31}, 50, 0xd66a379dd2d2da3cull},
      {"P2bounded", "skewed", 64, {414, 311, 0, 51, 408, 51},
       {452, 35, 40, 43, 52, 38, 29, 36}, 63, 0x31b2b5000806b863ull},
      {"P2bounded", "skewed", 4096, {4136, 3873, 0, 517, 4136, 517},
       {4364, 488, 551, 522, 572, 532, 502, 478}, 312, 0xaf559283df2648ccull},
      {"P3wor", "uniform", 0, {0, 1256, 0, 7, 56, 7},
       {156, 143, 166, 161, 162, 167, 140, 161}, 55, 0x1fb9f8eb29f8e139ull},
      {"P3wor", "uniform", 1, {0, 1256, 0, 7, 56, 7},
       {156, 143, 166, 161, 162, 167, 140, 161}, 55, 0x1fb9f8eb29f8e139ull},
      {"P3wor", "uniform", 64, {0, 1295, 0, 7, 56, 7},
       {163, 146, 169, 164, 172, 174, 143, 164}, 55, 0x1fb9f8eb29f8e139ull},
      {"P3wor", "uniform", 4096, {0, 4282, 0, 7, 56, 7},
       {516, 492, 551, 547, 568, 539, 524, 545}, 55, 0x1fb9f8eb29f8e139ull},
      {"P3wor", "skewed", 0, {0, 1278, 0, 7, 56, 7},
       {701, 71, 88, 86, 94, 94, 75, 69}, 64, 0xb30ef05532fdbfa1ull},
      {"P3wor", "skewed", 1, {0, 1278, 0, 7, 56, 7},
       {701, 71, 88, 86, 94, 94, 75, 69}, 64, 0xb30ef05532fdbfa1ull},
      {"P3wor", "skewed", 64, {0, 1311, 0, 7, 56, 7},
       {718, 73, 89, 90, 98, 96, 77, 70}, 64, 0xb30ef05532fdbfa1ull},
      {"P3wor", "skewed", 4096, {0, 4288, 0, 7, 56, 7},
       {2377, 256, 283, 273, 302, 279, 268, 250}, 64, 0xb30ef05532fdbfa1ull},
      {"P3wr", "uniform", 0, {0, 4592, 0, 12, 96, 12},
       {571, 536, 507, 779, 562, 504, 434, 699}, 22, 0x7f2aa8608dee97f7ull},
      {"P3wr", "uniform", 1, {0, 4592, 0, 12, 96, 12},
       {571, 536, 507, 779, 562, 504, 434, 699}, 22, 0x7f2aa8608dee97f7ull},
      {"P3wr", "uniform", 64, {0, 6337, 0, 12, 96, 12},
       {838, 733, 787, 1034, 783, 635, 572, 955}, 23, 0x7e01b6400742f31cull},
      {"P3wr", "uniform", 4096, {0, 173582, 0, 12, 96, 12},
       {20433, 19588, 21716, 23030, 23141, 22074, 21601, 21999}, 25, 0x4e23d003c7b84b74ull},
      {"P3wr", "skewed", 0, {0, 4918, 0, 12, 96, 12},
       {2728, 226, 303, 328, 425, 266, 225, 417}, 20, 0xefb9c37b7619860full},
      {"P3wr", "skewed", 1, {0, 4918, 0, 12, 96, 12},
       {2728, 226, 303, 328, 425, 266, 225, 417}, 20, 0xefb9c37b7619860full},
      {"P3wr", "skewed", 64, {0, 6564, 0, 12, 96, 12},
       {3816, 284, 307, 407, 580, 369, 314, 487}, 18, 0x84673c42a644da9cull},
      {"P3wr", "skewed", 4096, {0, 173873, 0, 12, 96, 12},
       {96610, 10180, 11797, 11394, 12462, 11007, 10318, 10105}, 14, 0x5db6f629fc925391ull},
      {"P4", "uniform", 0, {114, 1081, 0, 19, 152, 19},
       {136, 157, 138, 175, 153, 155, 115, 166}, 132, 0xc8babf98af9a8273ull},
      {"P4", "uniform", 1, {114, 1085, 0, 19, 152, 19},
       {136, 157, 138, 177, 153, 156, 116, 166}, 132, 0x2ddb98a22e2e951ull},
      {"P4", "uniform", 64, {147, 1181, 0, 19, 152, 19},
       {156, 168, 156, 195, 169, 172, 134, 178}, 133, 0x98e69b4ffd30eddbull},
      {"P4", "uniform", 4096, {3589, 12213, 0, 20, 160, 20},
       {1892, 1811, 2002, 2019, 2112, 2004, 1955, 2007}, 310, 0xdbdda8141ba6c8e5ull},
      {"P4", "skewed", 0, {116, 1087, 0, 19, 152, 19},
       {662, 78, 74, 90, 99, 73, 50, 77}, 128, 0xf9311533f5eefbdeull},
      {"P4", "skewed", 1, {116, 1090, 0, 19, 152, 19},
       {665, 78, 74, 90, 99, 73, 50, 77}, 128, 0xf9311533f5eefbdeull},
      {"P4", "skewed", 64, {152, 1205, 0, 19, 152, 19},
       {745, 85, 84, 97, 113, 88, 57, 88}, 128, 0xd008fe3a8393be81ull},
      {"P4", "skewed", 4096, {3491, 12140, 0, 19, 152, 19},
       {8633, 942, 1050, 997, 1114, 1010, 966, 919}, 308, 0x6a147e33dee8ee86ull},
      {"Exact", "uniform", 0, {0, 6000, 0, 0, 0, 0},
       {705, 695, 761, 776, 806, 770, 734, 753}, 394, 0x92e1697007521ae0ull},
      {"Exact", "uniform", 1, {0, 6000, 0, 0, 0, 0},
       {705, 695, 761, 776, 806, 770, 734, 753}, 394, 0x92e1697007521ae0ull},
      {"Exact", "uniform", 64, {0, 6000, 0, 0, 0, 0},
       {705, 695, 761, 776, 806, 770, 734, 753}, 394, 0xfa6b5eff9483725full},
      {"Exact", "uniform", 4096, {0, 6000, 0, 0, 0, 0},
       {705, 695, 761, 776, 806, 770, 734, 753}, 394, 0xed9006e93d0c1d91ull},
      {"Exact", "skewed", 0, {0, 6000, 0, 0, 0, 0},
       {3336, 377, 405, 392, 408, 372, 371, 339}, 394, 0x92e1697007521ae0ull},
      {"Exact", "skewed", 1, {0, 6000, 0, 0, 0, 0},
       {3336, 377, 405, 392, 408, 372, 371, 339}, 394, 0x92e1697007521ae0ull},
      {"Exact", "skewed", 64, {0, 6000, 0, 0, 0, 0},
       {3336, 377, 405, 392, 408, 372, 371, 339}, 394, 0xcc76d8e462eb742full},
      {"Exact", "skewed", 4096, {0, 6000, 0, 0, 0, 0},
       {3336, 377, 405, 392, 408, 372, 371, 339}, 394, 0xf8b0523cb86c5bc0ull},
      {"MP1", "uniform", 0, {0, 0, 2219, 58, 464, 58},
       {265, 238, 273, 278, 288, 302, 295, 280}, 10, 0xbe08316d233d719aull},
      {"MP1", "uniform", 1, {0, 0, 2219, 58, 464, 58},
       {265, 238, 273, 278, 288, 302, 295, 280}, 10, 0x9a802a730a7eb96eull},
      {"MP1", "uniform", 64, {0, 0, 2203, 58, 464, 58},
       {271, 252, 276, 288, 297, 251, 282, 286}, 10, 0x54b17eeae477d754ull},
      {"MP1", "uniform", 4096, {0, 0, 3000, 60, 480, 60},
       {355, 352, 381, 376, 401, 383, 367, 385}, 10, 0xd507bdb5cf263f82ull},
      {"MP1", "skewed", 0, {0, 0, 2251, 58, 464, 58},
       {1322, 134, 144, 142, 150, 120, 120, 119}, 10, 0xe3fd337235a8e2e5ull},
      {"MP1", "skewed", 1, {0, 0, 2251, 58, 464, 58},
       {1322, 134, 144, 142, 150, 120, 120, 119}, 10, 0xeffddaba5599b789ull},
      {"MP1", "skewed", 64, {0, 0, 2254, 59, 472, 59},
       {1322, 133, 142, 132, 169, 115, 125, 116}, 10, 0x4cd96c4fdeb4d011ull},
      {"MP1", "skewed", 4096, {0, 0, 3000, 62, 496, 62},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 10, 0xb8b401b40fd28878ull},
      {"MP2", "uniform", 0, {192, 0, 150, 24, 192, 24},
       {46, 44, 37, 46, 43, 40, 36, 50}, 12, 0x118ff89bc927a2caull},
      {"MP2", "uniform", 1, {192, 0, 150, 24, 192, 24},
       {46, 44, 37, 46, 43, 40, 36, 50}, 12, 0x50369a72a1f80b08ull},
      {"MP2", "uniform", 64, {224, 0, 183, 28, 224, 28},
       {56, 51, 45, 56, 52, 47, 42, 58}, 12, 0xdc633fdb36ce0937ull},
      {"MP2", "uniform", 4096, {3000, 0, 3000, 375, 3000, 375},
       {710, 704, 762, 752, 802, 766, 734, 770}, 12, 0x76f2beb98e7e700bull},
      {"MP2", "skewed", 0, {192, 0, 155, 24, 192, 24},
       {219, 15, 17, 20, 26, 15, 13, 22}, 12, 0xa8867e9418cb27cdull},
      {"MP2", "skewed", 1, {192, 0, 156, 24, 192, 24},
       {220, 15, 17, 20, 26, 15, 13, 22}, 12, 0x304de4c1813beab4ull},
      {"MP2", "skewed", 64, {222, 0, 188, 27, 216, 27},
       {255, 18, 17, 22, 34, 22, 18, 24}, 12, 0xcd8f0a7e9ea5a1b2ull},
      {"MP2", "skewed", 4096, {3000, 0, 3000, 375, 3000, 375},
       {3340, 360, 418, 382, 426, 378, 354, 342}, 12, 0x579f9a96cef78510ull},
      {"MP3wor", "uniform", 0, {0, 0, 294, 7, 56, 7},
       {40, 43, 35, 44, 43, 27, 28, 34}, 64, 0x3fb3427cc6bd0c4ull},
      {"MP3wor", "uniform", 1, {0, 0, 294, 7, 56, 7},
       {40, 43, 35, 44, 43, 27, 28, 34}, 64, 0x3fb3427cc6bd0c4ull},
      {"MP3wor", "uniform", 64, {0, 0, 324, 7, 56, 7},
       {42, 49, 37, 48, 44, 36, 28, 40}, 64, 0x4062fd054bafa360ull},
      {"MP3wor", "uniform", 4096, {0, 0, 3000, 7, 56, 7},
       {355, 352, 381, 376, 401, 383, 367, 385}, 64, 0x741089d53ffd0898ull},
      {"MP3wor", "skewed", 0, {0, 0, 292, 7, 56, 7},
       {159, 21, 20, 20, 27, 19, 9, 17}, 64, 0x7684749915018bd2ull},
      {"MP3wor", "skewed", 1, {0, 0, 292, 7, 56, 7},
       {159, 21, 20, 20, 27, 19, 9, 17}, 64, 0x7684749915018bd2ull},
      {"MP3wor", "skewed", 64, {0, 0, 326, 7, 56, 7},
       {176, 25, 22, 21, 32, 24, 9, 17}, 64, 0x7cc79b91a8114a1eull},
      {"MP3wor", "skewed", 4096, {0, 0, 3000, 7, 56, 7},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 64, 0x38dac4580291d17eull},
      {"MP3wr", "uniform", 0, {0, 0, 1711, 10, 80, 10},
       {234, 207, 161, 286, 205, 187, 160, 271}, 32, 0xb48c5fd2c1cf83aaull},
      {"MP3wr", "uniform", 1, {0, 0, 1711, 10, 80, 10},
       {234, 207, 161, 286, 205, 187, 160, 271}, 32, 0xb48c5fd2c1cf83aaull},
      {"MP3wr", "uniform", 64, {0, 0, 2250, 10, 80, 10},
       {320, 245, 214, 384, 269, 221, 244, 353}, 32, 0x767b687dbc1b873full},
      {"MP3wr", "uniform", 4096, {0, 0, 47633, 9, 72, 9},
       {5601, 5607, 5843, 6168, 6313, 5970, 6117, 6014}, 32, 0xd7bc7a0bc161256bull},
      {"MP3wr", "skewed", 0, {0, 0, 1675, 10, 80, 10},
       {911, 53, 84, 127, 128, 100, 101, 171}, 32, 0x66696ef4112e29faull},
      {"MP3wr", "skewed", 1, {0, 0, 1675, 10, 80, 10},
       {911, 53, 84, 127, 128, 100, 101, 171}, 32, 0x66696ef4112e29faull},
      {"MP3wr", "skewed", 64, {0, 0, 2401, 10, 80, 10},
       {1343, 84, 91, 169, 205, 148, 124, 237}, 32, 0xd536f9010710b578ull},
      {"MP3wr", "skewed", 4096, {0, 0, 47593, 10, 80, 10},
       {26695, 2769, 3198, 3024, 3423, 2884, 2806, 2794}, 32, 0x541c5beae0d05323ull},
      {"NaiveFd", "uniform", 0, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 6, 0xd0561ed2a4f225b9ull},
      {"NaiveFd", "uniform", 1, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 6, 0x7139bce32b276babull},
      {"NaiveFd", "uniform", 64, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 6, 0x5e3f9be17b112ca8ull},
      {"NaiveFd", "uniform", 4096, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 6, 0xd1aff365a607d862ull},
      {"NaiveFd", "skewed", 0, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 6, 0xd0561ed2a4f225b9ull},
      {"NaiveFd", "skewed", 1, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 6, 0x7139bce32b276babull},
      {"NaiveFd", "skewed", 64, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 6, 0x209968960b37b524ull},
      {"NaiveFd", "skewed", 4096, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 6, 0xca89d4005c265adaull},
      {"NaiveSvd", "uniform", 0, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 4, 0x679ffd139497780bull},
      {"NaiveSvd", "uniform", 1, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 4, 0x679ffd139497780bull},
      {"NaiveSvd", "uniform", 64, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 4, 0x9ac42f7a508ed660ull},
      {"NaiveSvd", "uniform", 4096, {0, 0, 3000, 0, 0, 0},
       {355, 352, 381, 376, 401, 383, 367, 385}, 4, 0xf550f31c2727aad2ull},
      {"NaiveSvd", "skewed", 0, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 4, 0x679ffd139497780bull},
      {"NaiveSvd", "skewed", 1, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 4, 0x679ffd139497780bull},
      {"NaiveSvd", "skewed", 64, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 4, 0xb224c1c144a10091ull},
      {"NaiveSvd", "skewed", 4096, {0, 0, 3000, 0, 0, 0},
       {1670, 180, 209, 191, 213, 189, 177, 171}, 4, 0x8347a4e9324e234full},
  };
  return g;
}

// Unoptimized builds (Debug, and the sanitizer builds made from it) do
// not fuse multiply-adds in the AVX2+FMA linalg kernels, so FD shrinks and
// covariance Grams round differently there. These answer hashes replace
// the table's in such builds; they were recorded from the same commit in a
// Debug build (message counts do not depend on the build).
struct UnoptimizedHash {
  const char* protocol;
  const char* routing;
  size_t chunk;
  uint64_t answer_hash;
};

const std::vector<UnoptimizedHash>& UnoptimizedHashes() {
  static const std::vector<UnoptimizedHash> h = {
      {"MP1", "uniform", 0, 0x70a81c50f42c0f73ull},
      {"MP1", "uniform", 1, 0x31bc3bcefbfcc93dull},
      {"MP1", "uniform", 64, 0xdbd6fde3bda55c9aull},
      {"MP1", "uniform", 4096, 0x5ced5fd18d2e67c7ull},
      {"MP1", "skewed", 0, 0x4fb2d44855a4541bull},
      {"MP1", "skewed", 1, 0x33a0f9bac67a7af8ull},
      {"MP1", "skewed", 64, 0x6750d04e7d83baccull},
      {"MP1", "skewed", 4096, 0x2929e3af9865825full},
      {"NaiveFd", "uniform", 0, 0x8909cb329d4211a1ull},
      {"NaiveFd", "uniform", 1, 0x8909cb329d4211a1ull},
      {"NaiveFd", "uniform", 64, 0x38ac309be9786b9cull},
      {"NaiveFd", "uniform", 4096, 0xf2b14bb9ab6b02e5ull},
      {"NaiveFd", "skewed", 0, 0x8909cb329d4211a1ull},
      {"NaiveFd", "skewed", 1, 0x8909cb329d4211a1ull},
      {"NaiveFd", "skewed", 64, 0xd2f86c19c6ec7efbull},
      {"NaiveFd", "skewed", 4096, 0x5f371632de43c9fcull},
      {"NaiveSvd", "uniform", 64, 0xb8c82a2441714759ull},
      {"NaiveSvd", "uniform", 4096, 0x740fd8faada0f000ull},
      {"NaiveSvd", "skewed", 64, 0x7f7eeae2ff532efaull},
      {"NaiveSvd", "skewed", 4096, 0x3519fccefe7cf58dull},
  };
  return h;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

uint64_t ExpectedHash(const Golden& g) {
  if (kOptimizedBuild) return g.answer_hash;
  for (const UnoptimizedHash& u : UnoptimizedHashes()) {
    if (std::string(g.protocol) == u.protocol &&
        std::string(g.routing) == u.routing && g.chunk == u.chunk) {
      return u.answer_hash;
    }
  }
  return g.answer_hash;
}

void ExpectGolden(const std::string& protocol, const std::string& routing,
                  size_t chunk, const Fingerprint& f) {
  const std::string actual = TableLine(protocol, routing, chunk, f);
  for (const Golden& g : Goldens()) {
    if (protocol != g.protocol || routing != g.routing || chunk != g.chunk) {
      continue;
    }
    EXPECT_EQ(f.stats.scalar_up, g.stats.scalar_up);
    EXPECT_EQ(f.stats.element_up, g.stats.element_up);
    EXPECT_EQ(f.stats.vector_up, g.stats.vector_up);
    EXPECT_EQ(f.stats.broadcast_events, g.stats.broadcast_events);
    EXPECT_EQ(f.stats.broadcast_msgs, g.stats.broadcast_msgs);
    EXPECT_EQ(f.stats.rounds, g.stats.rounds);
    EXPECT_EQ(f.per_site, g.per_site);
    EXPECT_EQ(f.answer_size, g.answer_size);
    EXPECT_EQ(f.answer_hash, ExpectedHash(g)) << "actual: " << actual;
    return;
  }
  ADD_FAILURE() << "no golden row; actual:\n" << actual;
}

struct Case {
  const char* name;
  std::function<std::unique_ptr<hh::HeavyHitterProtocol>()> make_hh;
  std::function<std::unique_ptr<matrix::MatrixTrackingProtocol>()> make_mx;
};

std::vector<Case> Cases() {
  return {
      {"P1", [] { return std::make_unique<hh::P1BatchedMG>(kSites, kHhEps); },
       nullptr},
      {"P2", [] { return std::make_unique<hh::P2Threshold>(kSites, kHhEps); },
       nullptr},
      {"P2bounded",
       [] {
         hh::P2Options opt;
         opt.site_counters = 24;
         return std::make_unique<hh::P2Threshold>(kSites, kHhEps, opt);
       },
       nullptr},
      {"P3wor",
       [] { return std::make_unique<hh::P3SamplingWoR>(kSites, kHhEps, 11); },
       nullptr},
      {"P3wr",
       [] {
         return std::make_unique<hh::P3SamplingWR>(kSites, kHhEps, 12, 64);
       },
       nullptr},
      {"P4",
       [] { return std::make_unique<hh::P4Randomized>(kSites, kHhEps, 13, 3); },
       nullptr},
      {"Exact", [] { return std::make_unique<hh::ExactTracker>(kSites); },
       nullptr},
      {"MP1", nullptr,
       [] { return std::make_unique<matrix::MP1BatchedFD>(kSites, kMxEps); }},
      {"MP2", nullptr,
       [] {
         return std::make_unique<matrix::MP2SvdThreshold>(kSites, kMxEps);
       }},
      {"MP3wor", nullptr,
       [] {
         return std::make_unique<matrix::MP3SamplingWoR>(kSites, kMxEps, 14);
       }},
      {"MP3wr", nullptr,
       [] {
         return std::make_unique<matrix::MP3SamplingWR>(kSites, kMxEps, 15,
                                                        32);
       }},
      {"NaiveFd", nullptr,
       [] { return std::make_unique<matrix::NaiveFdBaseline>(kSites, 6); }},
      {"NaiveSvd", nullptr,
       [] {
         return std::make_unique<matrix::NaiveSvdBaseline>(kSites, kDim, 4);
       }},
  };
}

// Registered test names end in the protocol name.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class ProtocolGoldenTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProtocolGoldenTest, SerialAndDriverRunsMatchGolden) {
  const Case& c = GetParam();
  const bool is_hh = c.make_hh != nullptr;
  const size_t n = is_hh ? kItems : kRows;
  for (const std::string routing : {"uniform", "skewed"}) {
    const std::vector<size_t> sites = Sites(routing, n);
    {
      SCOPED_TRACE(routing + " serial");
      if (is_hh) {
        auto p = c.make_hh();
        for (size_t i = 0; i < n; ++i) {
          p->Process(sites[i], Items()[i].element, Items()[i].weight);
        }
        ExpectGolden(c.name, routing, 0, Of(*p));
      } else {
        auto p = c.make_mx();
        for (size_t i = 0; i < n; ++i) p->ProcessRow(sites[i], Rows()[i]);
        ExpectGolden(c.name, routing, 0, Of(*p));
      }
    }
    for (size_t chunk : {size_t{1}, size_t{64}, size_t{4096}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(routing + " chunk=" + std::to_string(chunk) +
                     " threads=" + std::to_string(threads));
        stream::SimulationOptions opt;
        opt.threads = threads;
        opt.chunk_elements = chunk;
        stream::SimulationDriver driver(opt);
        if (is_hh) {
          auto p = c.make_hh();
          driver.Run(p.get(), sites, Items());
          ExpectGolden(c.name, routing, chunk, Of(*p));
        } else {
          auto p = c.make_mx();
          driver.Run(p.get(), sites, Rows());
          ExpectGolden(c.name, routing, chunk, Of(*p));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolGoldenTest,
                         ::testing::ValuesIn(Cases()));

}  // namespace
}  // namespace dmt
