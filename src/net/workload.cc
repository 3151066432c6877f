#include "net/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <utility>

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
#include "stream/router.h"
#include "util/codec.h"
#include "util/contracts.h"

namespace dmt {
namespace net {

/// The wire adapter of every registered protocol, all on the message core
/// (stream/protocol_core.h): each queued message travels as one kProtocol
/// frame in the protocol's own encoding; the coordinator decodes it into
/// a reused buffer, rejecting any row whose length is not `dim`, and
/// delivers it; the broadcast value is the core's.
template <typename P>
class CoreWire : public WireAdapter {
 public:
  /// `protocol` is not owned and must outlive the adapter.
  CoreWire(const WireRunConfig& config, P* protocol)
      : name_(config.protocol),
        protocol_(protocol),
        num_sites_(config.num_sites),
        dim_(config.dim) {}

  std::string protocol_name() const override { return name_; }
  size_t num_sites() const override { return num_sites_; }

  void EncodeWindow(size_t site, FrameBatch* batch) override {
    protocol_->EncodeOutbox(site, &payload_,
                            [batch](const std::vector<uint8_t>& payload) {
                              batch->Add(MsgType::kProtocol, payload);
                            });
  }

  void ApplyBroadcast(size_t site, double value) override {
    protocol_->InstallBroadcast(site, value);
  }

  bool ApplyFrame(size_t site, MsgType type, const uint8_t* payload,
                  size_t n, std::string* error) override {
    if (type == MsgType::kWindowEnd) {
      // Every site's messages of the window are delivered: close it the
      // way the in-process drain does. This instance queues nothing, so
      // no site is listed and only the end-of-window step runs.
      protocol_->SynchronizeSites(nullptr, 0);
      return true;
    }
    if (type != MsgType::kProtocol) {
      *error = name_ + ": unexpected frame type " +
               std::to_string(static_cast<int>(type));
      return false;
    }
    if (!Decode(payload, n)) {
      *error = name_ + ": malformed or out-of-domain message payload";
      return false;
    }
    protocol_->Deliver(site, msg_);
    return true;
  }

  double BroadcastValue() const override {
    return protocol_->broadcast_value();
  }

 private:
  // The entry point for wire bytes, apart from Deliver.
  DMT_UNTRUSTED_INPUT
  bool Decode(const uint8_t* payload, size_t n) {
    ByteReader r(payload, n, dim_);
    return protocol_->DecodeMessage(&r, &msg_) && r.exhausted();
  }

  std::string name_;
  P* protocol_;
  size_t num_sites_;
  size_t dim_;                    // the only row width Decode accepts
  typename P::WireMsg msg_{};     // decode buffer, reused across frames
  std::vector<uint8_t> payload_;  // encode buffer, reused across messages
};

namespace {

std::string ParseStringArg(int argc, char** argv, const char* flag,
                           const std::string& fallback) {
  const char* v = stream::FindArgValue(argc, argv, flag);
  return v == nullptr ? fallback : std::string(v);
}

double ParseDoubleArg(int argc, char** argv, const char* flag,
                      double fallback) {
  const char* v = stream::FindArgValue(argc, argv, flag);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end == v || *end != '\0') ? fallback : parsed;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// A double's bit pattern: the equivalence contract is bit-identity, and
// operator== would also paper over signed-zero / NaN differences.
uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// The coordinator's answer as the protocol golden table fingerprints it:
// the sorted snapshot entries plus the total weight, or the sketch.
std::vector<uint64_t> AnswerWords(const WireProtocol& p) {
  std::vector<uint64_t> words;
  if (p.hh != nullptr) {
    for (const hh::HHSnapshotEntry& e : p.hh->ExportSnapshotEntries()) {
      words.push_back(e.element);
      words.push_back(Bits(e.weight));
    }
    words.push_back(Bits(p.hh->EstimateTotalWeight()));
  } else if (p.mp != nullptr) {
    const linalg::Matrix b = p.mp->CoordinatorSketch();
    words.push_back(b.rows());
    words.push_back(b.cols());
    for (size_t i = 0; i < b.rows(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) words.push_back(Bits(b(i, j)));
    }
  }
  return words;
}

// A protocol instance bundled with its adapter.
template <typename P, typename... Args>
WireProtocol Make(const WireRunConfig& c, Args... args) {
  auto protocol = std::make_unique<P>(args...);
  WireProtocol w;
  w.adapter = std::make_unique<CoreWire<P>>(c, protocol.get());
  if constexpr (std::is_base_of_v<hh::HeavyHitterProtocol, P>) {
    w.hh = std::move(protocol);
  } else {
    w.mp = std::move(protocol);
  }
  return w;
}

using Cfg = WireRunConfig;

// Protocol coins draw from their own seed, apart from the stream's (seed)
// and the routing's (seed + 1).
uint64_t Coins(const Cfg& c) { return c.seed + 2; }

size_t InverseEps(const Cfg& c) {
  return static_cast<size_t>(std::ceil(1.0 / c.eps));
}

hh::P2Options BoundedSites(const Cfg& c) {
  hh::P2Options options;
  options.site_counters = static_cast<size_t>(
      std::ceil(4.0 * static_cast<double>(c.num_sites) / c.eps));
  return options;
}

struct Registered {
  const char* name;
  bool matrix;  // rows (matrix tracking) rather than weighted items
  WireProtocol (*make)(const Cfg&);
};

// The protocol golden table's rows (tests/protocol_golden_test.cc).
const Registered kRegistry[] = {
    {"p1", false,
     [](const Cfg& c) { return Make<hh::P1BatchedMG>(c, c.num_sites, c.eps); }},
    {"p2", false,
     [](const Cfg& c) { return Make<hh::P2Threshold>(c, c.num_sites, c.eps); }},
    {"p2bounded", false,
     [](const Cfg& c) {
       return Make<hh::P2Threshold>(c, c.num_sites, c.eps, BoundedSites(c));
     }},
    {"p3wor", false,
     [](const Cfg& c) {
       return Make<hh::P3SamplingWoR>(c, c.num_sites, c.eps, Coins(c));
     }},
    {"p3wr", false,
     [](const Cfg& c) {
       return Make<hh::P3SamplingWR>(c, c.num_sites, c.eps, Coins(c));
     }},
    {"p4", false,
     [](const Cfg& c) {
       return Make<hh::P4Randomized>(c, c.num_sites, c.eps, Coins(c));
     }},
    {"exact", false,
     [](const Cfg& c) { return Make<hh::ExactTracker>(c, c.num_sites); }},
    {"mp1", true,
     [](const Cfg& c) {
       return Make<matrix::MP1BatchedFD>(c, c.num_sites, c.eps);
     }},
    {"mp2", true,
     [](const Cfg& c) {
       return Make<matrix::MP2SvdThreshold>(c, c.num_sites, c.eps);
     }},
    {"mp3wor", true,
     [](const Cfg& c) {
       return Make<matrix::MP3SamplingWoR>(c, c.num_sites, c.eps, Coins(c));
     }},
    {"mp3wr", true,
     [](const Cfg& c) {
       return Make<matrix::MP3SamplingWR>(c, c.num_sites, c.eps, Coins(c));
     }},
    {"naivefd", true,
     [](const Cfg& c) {
       return Make<matrix::NaiveFdBaseline>(c, c.num_sites, InverseEps(c));
     }},
    {"naivesvd", true,
     [](const Cfg& c) {
       return Make<matrix::NaiveSvdBaseline>(c, c.num_sites, c.dim,
                                             InverseEps(c));
     }},
};

const Registered* Find(const std::string& name) {
  for (const Registered& r : kRegistry) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

}  // namespace

WireRunConfig ParseWireArgs(int argc, char** argv) {
  WireRunConfig c;
  c.protocol = ParseStringArg(argc, argv, "--protocol", c.protocol);
  c.num_sites = stream::ParseSizeArg(argc, argv, "--sites", c.num_sites);
  c.n = stream::ParseSizeArg(argc, argv, "--n", c.n);
  c.chunk = stream::ParseSizeArg(argc, argv, "--chunk", c.chunk);
  c.eps = ParseDoubleArg(argc, argv, "--eps", c.eps);
  c.seed = stream::ParseSizeArg(argc, argv, "--seed", c.seed);
  c.universe = stream::ParseSizeArg(argc, argv, "--universe",
                                    static_cast<size_t>(c.universe));
  c.skew = ParseDoubleArg(argc, argv, "--skew", c.skew);
  c.beta = ParseDoubleArg(argc, argv, "--beta", c.beta);
  c.dim = stream::ParseSizeArg(argc, argv, "--dim", c.dim);
  c.host = ParseStringArg(argc, argv, "--host", c.host);
  c.port = static_cast<uint16_t>(
      stream::ParseSizeArg(argc, argv, "--port", c.port));
  c.port_file = ParseStringArg(argc, argv, "--port-file", c.port_file);
  c.site = stream::ParseSizeArg(argc, argv, "--site", c.site);
  c.check = HasFlag(argc, argv, "--check");
  return c;
}

WireWorkload MakeWireWorkload(const WireRunConfig& config) {
  WireWorkload w;
  const Registered* entry = Find(config.protocol);
  if (entry != nullptr && entry->matrix) {
    data::SyntheticMatrixConfig gen_config;
    gen_config.dim = config.dim;
    gen_config.latent_rank = std::max<size_t>(1, config.dim / 3);
    gen_config.seed = config.seed;
    data::SyntheticMatrixGenerator gen(gen_config);
    w.rows.resize(config.n);
    for (size_t i = 0; i < config.n; ++i) w.rows[i] = gen.Next();
  } else {
    data::ZipfianStream z(config.universe, config.skew, config.beta,
                          config.seed);
    w.items.resize(config.n);
    for (size_t i = 0; i < config.n; ++i) {
      const data::WeightedItem item = z.Next();
      w.items[i] = stream::WeightedUpdate{item.element, item.weight};
    }
  }
  stream::Router router(config.num_sites, stream::RoutingPolicy::kUniform,
                        config.seed + 1);
  w.sites = stream::AssignSites(&router, config.n);
  // RunImpl's schedule derives num_sites from the materialized assignment
  // (max site + 1), which can be below config.num_sites for tiny streams;
  // match it exactly or the bootstrap window would differ.
  size_t sched_sites = 0;
  for (size_t s : w.sites) sched_sites = std::max(sched_sites, s + 1);
  w.window_ends = stream::WindowEnds(config.n, config.chunk, sched_sites);
  return w;
}

const stream::Protocol& WireProtocol::instance() const {
  if (hh != nullptr) return *hh;
  return *mp;
}

std::vector<std::string> WireProtocolNames() {
  std::vector<std::string> names;
  for (const Registered& r : kRegistry) names.push_back(r.name);
  return names;
}

WireProtocol MakeWireProtocol(const WireRunConfig& config) {
  const Registered* entry = Find(config.protocol);
  return entry == nullptr ? WireProtocol{} : entry->make(config);
}

std::function<void(uint32_t)> MakeSiteUpdater(const WireWorkload& workload,
                                              WireProtocol* protocol,
                                              size_t site) {
  if (protocol->hh != nullptr) {
    hh::HeavyHitterProtocol* p = protocol->hh.get();
    const auto* items = &workload.items;
    return [p, items, site](uint32_t i) {
      p->SiteUpdate(site, (*items)[i].element, (*items)[i].weight);
    };
  }
  matrix::MatrixTrackingProtocol* p = protocol->mp.get();
  const auto* rows = &workload.rows;
  return [p, rows, site](uint32_t i) { p->SiteUpdate(site, (*rows)[i]); };
}

WireProtocol RunOracle(const WireRunConfig& config,
                       const WireWorkload& workload) {
  WireProtocol p = MakeWireProtocol(config);
  stream::SimulationOptions opt;
  opt.threads = 1;  // any count is bit-identical; one keeps the check cheap
  opt.chunk_elements = config.chunk;
  stream::SimulationDriver driver(opt);
  if (p.hh != nullptr) {
    driver.Run(p.hh.get(), workload.sites, workload.items);
  } else if (p.mp != nullptr) {
    driver.Run(p.mp.get(), workload.sites, workload.rows);
  }
  return p;
}

std::string DiffWireProtocols(const WireRunConfig&, const WireProtocol& a,
                              const WireProtocol& b) {
  if (a.adapter == nullptr || b.adapter == nullptr) {
    return "protocol instance missing";
  }
  std::ostringstream out;
  const stream::CommStats& sa = a.instance().comm_stats();
  const stream::CommStats& sb = b.instance().comm_stats();
  // Six uint64_t counters, no padding: equal bytes are equal counts.
  if (std::memcmp(&sa, &sb, sizeof(stream::CommStats)) != 0) {
    out << "CommStats differ (" << sa.total() << " vs " << sb.total()
        << " messages); ";
  }
  if (a.instance().per_site_messages() != b.instance().per_site_messages()) {
    out << "per-site messages differ; ";
  }
  const double va = a.adapter->BroadcastValue();
  const double vb = b.adapter->BroadcastValue();
  if (Bits(va) != Bits(vb)) {
    out << "broadcast value differs (" << va << " vs " << vb << "); ";
  }
  const std::vector<uint64_t> wa = AnswerWords(a);
  const std::vector<uint64_t> wb = AnswerWords(b);
  if (wa != wb) {
    size_t i = 0;
    while (i < wa.size() && i < wb.size() && wa[i] == wb[i]) ++i;
    out << "coordinator answer differs (" << wa.size() << " vs " << wb.size()
        << " words, first difference at word " << i << "); ";
  }
  return out.str();
}

}  // namespace net
}  // namespace dmt
