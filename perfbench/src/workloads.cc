#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "hh/p1_batched_mg.h"
#include "hh/p2_threshold.h"
#include "matrix/error.h"
#include "matrix/mp1_batched_fd.h"
#include "metrics.h"
#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"
#include "serve/query_engine.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "traced_protocols.h"

namespace perfbench {

void Report::Check(const std::string& problem) {
  ++attempted;
  if (!problem.empty()) {
    ++failed;
    failures.push_back(problem);
  }
}

namespace {

namespace data = dmt::data;
namespace hh = dmt::hh;
namespace matrix = dmt::matrix;
namespace net = dmt::net;
namespace serve = dmt::serve;
namespace stream = dmt::stream;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Sites of the in-process workloads.
constexpr size_t kSites = 32;
// Timed set-ups per run, after one untimed one: on a shared 4-vCPU Xeon
// VM a freshly started process ran its first fraction of a second up to a
// quarter slower. setup_s is their median.
constexpr size_t kSetups = 5;
// Every 8th query op is timed: two clock reads per op would otherwise be
// a large share of a sub-microsecond op.
constexpr uint64_t kSampleEvery = 8;
// Workloads without live readers end every ingest by querying its final
// state from this many threads, for a tenth of the ingest's wall time but
// at least 0.1 s, so slow ingests still gather many query samples.
constexpr size_t kServeReaders = 2;
double ServeSeconds(double ingest_s) { return std::max(0.1, 0.1 * ingest_s); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Payload bytes of the paper's messages at 8 bytes per scalar: a scalar
// report, an (element, weight) pair, a d-dimensional row, and one value
// per broadcast receiver. The in-process workloads report this as
// wire_bytes; p1_wire reports the bytes its sockets carried.
double PayloadBytes(const stream::CommStats& c, size_t dim) {
  return 8.0 * static_cast<double>(c.scalar_up + 2 * c.element_up +
                                   dim * c.vector_up + c.broadcast_msgs);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string ErrCheck(double err_over_eps) {
  return err_over_eps <= 1.0
             ? ""
             : "err_over_eps " + std::to_string(err_over_eps) + " > 1";
}

// ---------------------------------------------------------------------
// Result fingerprints: messages plus a hash of the coordinator state.
// ---------------------------------------------------------------------

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

struct Fingerprint {
  stream::CommStats comm;
  std::vector<uint64_t> per_site;
  uint64_t state = 0;
};

uint64_t StateHash(const matrix::MatrixTrackingProtocol& p) {
  const dmt::linalg::Matrix g = p.CoordinatorGram();
  Fnv f;
  f.U64(g.rows());
  f.U64(g.cols());
  for (size_t i = 0; i < g.rows(); ++i) {
    f.Bytes(g.Row(i), g.cols() * sizeof(double));
  }
  return f.value();
}

uint64_t StateHash(const hh::HeavyHitterProtocol& p) {
  Fnv f;
  f.F64(p.EstimateTotalWeight());
  for (const hh::HHSnapshotEntry& e : p.ExportSnapshotEntries()) {
    f.U64(e.element);
    f.F64(e.weight);
  }
  return f.value();
}

template <typename Protocol>
Fingerprint FingerprintOf(const Protocol& p) {
  return Fingerprint{p.comm_stats(), p.per_site_messages(), StateHash(p)};
}

// "" when identical, else what differs.
std::string CompareFingerprints(const Fingerprint& a, const Fingerprint& b) {
  const stream::CommStats& x = a.comm;
  const stream::CommStats& y = b.comm;
  if (x.scalar_up != y.scalar_up || x.element_up != y.element_up ||
      x.vector_up != y.vector_up || x.broadcast_events != y.broadcast_events ||
      x.broadcast_msgs != y.broadcast_msgs || x.rounds != y.rounds) {
    return "messages differ (" + std::to_string(x.total()) + " vs " +
           std::to_string(y.total()) + ")";
  }
  if (a.per_site != b.per_site) return "per-site messages differ";
  if (a.state != b.state) return "coordinator state fingerprint differs";
  return "";
}

// ---------------------------------------------------------------------
// Error at every window boundary. The paper's guarantees hold at all
// times, and the worst boundary is a far steadier number than the last
// one: a heavy-hitter error at stream end depends on where each site
// happens to be in its flush cycle.
// ---------------------------------------------------------------------

// Worst covariance error / eps over the boundaries of one ingest of `p`.
class MatrixErrorTracker {
 public:
  MatrixErrorTracker(const std::vector<std::vector<double>>* rows,
                     size_t dim, const matrix::MatrixTrackingProtocol* p,
                     double eps)
      : rows_(rows), prefix_(dim), p_(p), eps_(eps) {}

  void operator()(const stream::WindowEndInfo& info) {
    for (; fed_ < info.arrivals_total; ++fed_) prefix_.AddRow((*rows_)[fed_]);
    worst_ = std::max(
        worst_, matrix::CovarianceError(prefix_, p_->CoordinatorGram()) / eps_);
  }
  double worst() const { return worst_; }

 private:
  const std::vector<std::vector<double>>* rows_;
  matrix::CovarianceTracker prefix_;
  const matrix::MatrixTrackingProtocol* p_;
  double eps_;
  size_t fed_ = 0;
  double worst_ = 0.0;
};

// Worst max_e |estimate(e) - w(e)| / (W eps) over the boundaries of one
// ingest of `p`, over the elements seen so far.
class HHErrorTracker {
 public:
  HHErrorTracker(const std::vector<stream::WeightedUpdate>* items,
                 const hh::HeavyHitterProtocol* p, double eps)
      : items_(items), p_(p), eps_(eps) {}

  void operator()(const stream::WindowEndInfo& info) {
    for (; fed_ < info.arrivals_total; ++fed_) {
      const stream::WeightedUpdate& it = (*items_)[fed_];
      if (it.element >= weight_.size()) weight_.resize(it.element + 1, 0.0);
      if (weight_[it.element] == 0.0) seen_.push_back(it.element);
      weight_[it.element] += it.weight;
      total_ += it.weight;
    }
    double err = 0.0;
    for (uint64_t e : seen_) {
      err = std::max(err, std::abs(p_->EstimateElementWeight(e) - weight_[e]));
    }
    worst_ = std::max(worst_, err / total_ / eps_);
  }
  double worst() const { return worst_; }

 private:
  const std::vector<stream::WeightedUpdate>* items_;
  const hh::HeavyHitterProtocol* p_;
  double eps_;
  size_t fed_ = 0;
  std::vector<double> weight_;  // weights are >= 1, so 0 means unseen
  std::vector<uint64_t> seen_;
  double total_ = 0.0;
  double worst_ = 0.0;
};

// ---------------------------------------------------------------------
// Readers: pin a snapshot, answer a fixed query mix, unpin.
// ---------------------------------------------------------------------

// One reader slot's samples, kept across the ingests of a run.
struct ReaderSamples {
  uint64_t ops = 0;
  uint64_t regressions = 0;  // a pinned snapshot older than the last one
  SampleBuffer op_us;
  SampleBuffer acquire_us;  // traced ingests only
  SampleBuffer engine_us;   // traced ingests only
};

using QueryLog = std::vector<ReaderSamples>;

uint64_t TotalOps(const QueryLog& log) {
  uint64_t ops = 0;
  for (const ReaderSamples& s : log) ops += s.ops;
  return ops;
}

uint64_t TotalRegressions(const QueryLog& log) {
  uint64_t n = 0;
  for (const ReaderSamples& s : log) n += s.regressions;
  return n;
}

std::vector<double> SortedSamples(const QueryLog& log,
                                  SampleBuffer ReaderSamples::*series) {
  std::vector<double> all;
  for (const ReaderSamples& s : log) {
    const std::vector<double>& v = (s.*series).values();
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

// One serving phase: the readers beside one ingest, or after it.
struct PhaseStats {
  uint64_t ops = 0;
  uint64_t regressions = 0;
  double seconds = 0.0;  // wall time the readers ran
  size_t samples = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Summarizes one phase's readers and folds their samples into the run's
// pooled log (null: not reported). A run reports the medians of the
// per-phase latency percentiles: a burst of load from outside the process
// then spoils one phase's p99, not the run's.
PhaseStats FinishPhase(const QueryLog& phase, double seconds, QueryLog* run) {
  PhaseStats st;
  st.ops = TotalOps(phase);
  st.regressions = TotalRegressions(phase);
  st.seconds = seconds;
  const std::vector<double> sorted =
      SortedSamples(phase, &ReaderSamples::op_us);
  st.samples = sorted.size();
  st.p50_us = SortedQuantile(sorted, 0.50);
  st.p99_us = SortedQuantile(sorted, 0.99);
  if (run != nullptr) {
    for (size_t i = 0; i < phase.size(); ++i) {
      ReaderSamples& to = (*run)[i];
      for (double v : phase[i].op_us.values()) to.op_us.Add(v);
      for (double v : phase[i].acquire_us.values()) to.acquire_us.Add(v);
      for (double v : phase[i].engine_us.values()) to.engine_us.Add(v);
    }
  }
  return st;
}

// The serving query mix: top-k, a point lookup and the total for heavy
// hitters; a covariance quadratic form along a basis vector and the top
// singular values for a matrix sketch. `i` varies the looked-up key.
void QueryMix(const serve::Snapshot& snap, uint64_t i, uint64_t universe,
              std::vector<double>* x) {
  serve::QueryEngine engine(&snap);
  if (snap.has_hh) {
    (void)engine.TopK(8);
    (void)engine.ElementWeight(i % universe);
    (void)engine.TotalWeight();
  }
  if (snap.has_matrix && !snap.sketch.empty()) {
    x->assign(snap.sketch.cols(), 0.0);
    (*x)[i % x->size()] = 1.0;
    (void)engine.CovarianceQuadraticForm(*x);
    (void)engine.TopSingularValues(3);
  }
}

void ReaderLoop(serve::SnapshotStore* store, const std::atomic<bool>* stop,
                std::atomic<size_t>* ready, bool split, uint64_t universe,
                ReaderSamples* out) {
  serve::SnapshotReader reader(store);
  std::vector<double> x;
  uint64_t last_window = 0;
  ready->fetch_add(1, std::memory_order_release);
  for (uint64_t i = 0; !stop->load(std::memory_order_acquire); ++i) {
    const bool sample = i % kSampleEvery == 0;
    const Clock::time_point t0 = sample ? Clock::now() : Clock::time_point{};
    serve::SnapshotRef ref = reader.Acquire();
    const Clock::time_point t1 =
        sample && split ? Clock::now() : Clock::time_point{};
    if (ref->window_index < last_window) ++out->regressions;
    last_window = ref->window_index;
    QueryMix(*ref, i, universe, &x);
    const Clock::time_point t2 =
        sample && split ? Clock::now() : Clock::time_point{};
    ref.Reset();
    if (sample) {
      out->op_us.Add(Micros(t0, Clock::now()));
      if (split) {
        out->acquire_us.Add(Micros(t0, t1));
        out->engine_us.Add(Micros(t1, t2));
      }
    }
    ++out->ops;
  }
}

// One reader thread per slot of `log`, querying `store` until destroyed.
class ReaderPool {
 public:
  ReaderPool(serve::SnapshotStore* store, QueryLog* log, bool split,
             uint64_t universe) {
    for (ReaderSamples& slot : *log) {
      threads_.emplace_back(ReaderLoop, store, &stop_, &ready_, split,
                            universe, &slot);
    }
    while (ready_.load(std::memory_order_acquire) < threads_.size()) {
      std::this_thread::yield();
    }
  }
  ~ReaderPool() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<size_t> ready_{0};
  std::vector<std::thread> threads_;
};

// Serving the final state of one ingest: publish it, check the snapshot
// against the protocol, then query it for `seconds`.
struct ServePhase {
  std::string problem;     // snapshot answers differ from the protocol's
  double publish_s = 0.0;  // snapshot build + publish
  double seconds = 0.0;    // wall time the readers ran
};

template <typename Protocol, typename CheckFn>
ServePhase ServeState(const Protocol& p, uint64_t windows, uint64_t n,
                      double seconds, bool split, uint64_t universe,
                      QueryLog* log, const CheckFn& check) {
  ServePhase out;
  serve::SnapshotStore store;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<const serve::Snapshot> snap =
      serve::BuildSnapshot(p, windows, n);
  const serve::Snapshot* published = snap.get();
  store.Publish(std::move(snap));
  out.publish_s = SecondsSince(t0);
  out.problem = check(p, *published);
  const Clock::time_point t1 = Clock::now();
  {
    ReaderPool pool(&store, log, split, universe);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  out.seconds = SecondsSince(t1);
  return out;
}

// ---------------------------------------------------------------------
// The metric sets. Every workload reports every metric; a layer that is
// not on a workload's path reads 0 there (see README.md).
// ---------------------------------------------------------------------

struct EndToEnd {
  double setup_s = 0.0;
  double ingest_per_s = 0.0;
  double messages = 0.0;
  double err_over_eps = 0.0;
  double wire_bytes = 0.0;
  // Medians over the timed untraced ingests' serving phases (FillQueries).
  double query_per_s = 0.0;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  size_t fewest_phase_samples = 0;
  std::vector<double> query_us;  // all phases' op latencies, sorted

};

void AddEndToEnd(const EndToEnd& e, Report* r) {
  r->Check(SamplesBeyond(e.fewest_phase_samples, 99000) >= 10
               ? ""
               : "too few query samples in a phase for p99 (" +
                     std::to_string(e.fewest_phase_samples) + ")");
  r->Add("setup_s", e.setup_s, "s");
  r->Add("ingest_per_s", e.ingest_per_s, "1/s");
  r->Add("messages", e.messages, "count");
  r->Add("err_over_eps", e.err_over_eps, "1");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("wire_bytes", e.wire_bytes, "bytes");
  r->Add("query_per_s", e.query_per_s, "1/s");
  r->Add("query_p50_us", e.query_p50_us, "us");
  r->Add("query_p99_us", e.query_p99_us, "us");
  const TailPercentile tail = SupportedTail(e.query_us);
  r->Detail("query_samples", static_cast<double>(e.query_us.size()),
            "count");
  r->Detail("query_tail_percentile", tail.percentile, "percent");
  r->Detail("query_tail_us", tail.value, "us");
}

struct Layers {
  double wall_s = 0.0;  // traced ingest wall, the base of every share
  double site_phase_s = 0.0;
  double drain_s = 0.0;
  double publish_s = 0.0;
  double net_wait_s = 0.0;
  double unattributed_s = 0.0;
  double window_p50_us = 0.0;
  double windows = 0.0;
  double batches_reserved = 0.0;
  double sites_per_batch = 0.0;
  double drain_stalls = 0.0;
  double speedup_vs_1thread = 0.0;
  double trace_overhead = 0.0;
  bool matrix = false;  // whose drain: matrix or hh
  double drained_sites = 0.0;
  double sketch_rows = 0.0;
  double tracked_elements = 0.0;
  stream::CommStats comm;
  double publish_p50_us = 0.0;
  double reader_interference = 0.0;
  double acquire_p50_us = 0.0;
  double query_engine_p50_us = 0.0;
  double retired_max = 0.0;
  double bytes_up = 0.0;
  double bytes_down = 0.0;
  double frames_up = 0.0;
  double wire_overhead = 0.0;
  double connect_s = 0.0;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double truth_s = 0.0;
};

void AddLayers(const Layers& l, Report* r) {
  const auto share = [&](double s) { return Ratio(s, l.wall_s); };
  r->Add("stream.site_phase_s", l.site_phase_s, "s");
  r->Add("stream.drain_s", l.drain_s, "s");
  r->Add("stream.window_p50_us", l.window_p50_us, "us");
  r->Add("stream.windows", l.windows, "count");
  r->Add("stream.batches_reserved", l.batches_reserved, "count");
  r->Add("stream.sites_per_batch", l.sites_per_batch, "1");
  r->Add("stream.drain_stalls", l.drain_stalls, "count");
  r->Add("stream.speedup_vs_1thread", l.speedup_vs_1thread, "1");
  r->Add("stream.unattributed_share", share(l.unattributed_s), "1");
  r->Add("stream.trace_overhead", l.trace_overhead, "1");
  r->Add("matrix.drain_share", l.matrix ? share(l.drain_s) : 0.0, "1");
  r->Add("matrix.drained_sites", l.drained_sites, "count");
  r->Add("matrix.sketch_rows", l.sketch_rows, "count");
  r->Add("hh.drain_share", l.matrix ? 0.0 : share(l.drain_s), "1");
  r->Add("hh.tracked_elements", l.tracked_elements, "count");
  r->Add("comm.scalar_up", static_cast<double>(l.comm.scalar_up), "count");
  r->Add("comm.element_up", static_cast<double>(l.comm.element_up), "count");
  r->Add("comm.vector_up", static_cast<double>(l.comm.vector_up), "count");
  r->Add("comm.broadcast_msgs", static_cast<double>(l.comm.broadcast_msgs),
         "count");
  r->Add("serve.publish_share", share(l.publish_s), "1");
  r->Add("serve.publish_p50_us", l.publish_p50_us, "us");
  r->Add("serve.reader_interference", l.reader_interference, "1");
  r->Add("serve.acquire_p50_us", l.acquire_p50_us, "us");
  r->Add("serve.query_engine_p50_us", l.query_engine_p50_us, "us");
  r->Add("serve.retired_max", l.retired_max, "count");
  r->Add("net.bytes_up", l.bytes_up, "bytes");
  r->Add("net.bytes_down", l.bytes_down, "bytes");
  r->Add("net.frames_up", l.frames_up, "count");
  r->Add("net.wire_overhead", l.wire_overhead, "1");
  r->Add("net.wait_share", share(l.net_wait_s), "1");
  r->Add("net.connect_share", Ratio(l.connect_s, l.setup_s), "1");
  r->Add("data.generate_s", l.generate_s, "s");
  r->Add("data.truth_s", l.truth_s, "s");

  // Where the traced wall time went; the parts sum to the wall.
  r->Detail("breakdown.wall_s", l.wall_s, "s");
  r->Detail("breakdown.site_phase_s", l.site_phase_s, "s");
  r->Detail("breakdown.drain_s", l.drain_s, "s");
  r->Detail("breakdown.publish_s", l.publish_s, "s");
  r->Detail("breakdown.net_wait_s", l.net_wait_s, "s");
  r->Detail("breakdown.unattributed_s", l.unattributed_s, "s");
}

struct SetupTimes {
  std::vector<double> generate, truth, connect, total;
  void Add(double g, double t, double c) {
    generate.push_back(g);
    truth.push_back(t);
    connect.push_back(c);
    total.push_back(g + t + c);
  }
  void Fill(Layers* l) const {
    l->setup_s = Median(total);
    l->generate_s = Median(generate);
    l->truth_s = Median(truth);
    l->connect_s = Median(connect);
  }
};

// Query-side per-layer numbers from traced readers.
void FillQueryLayers(const QueryLog& q, Layers* l) {
  l->acquire_p50_us =
      SortedQuantile(SortedSamples(q, &ReaderSamples::acquire_us), 0.5);
  l->query_engine_p50_us =
      SortedQuantile(SortedSamples(q, &ReaderSamples::engine_us), 0.5);
}

void WriteTrace(const RunOptions& opt, const SpanLog& log) {
  if (opt.trace_out.empty()) return;
  if (FILE* f = std::fopen(opt.trace_out.c_str(), "w")) {
    log.WriteChromeTrace(f);
    std::fclose(f);
  }
}

// One ingest of the whole stream on a fresh protocol. kChecked is a run's
// first, untimed ingest: it measures the error at every window boundary.
enum class RepKind { kUntraced, kTraced, kPublishOnly, kOneThread, kChecked };

const char* KindName(RepKind kind) {
  switch (kind) {
    case RepKind::kUntraced: return "untraced ingest";
    case RepKind::kTraced: return "traced ingest";
    case RepKind::kPublishOnly: return "publish-only ingest";
    case RepKind::kOneThread: return "1-thread ingest";
    case RepKind::kChecked: return "error-checked ingest";
  }
  return "ingest";
}

// Ingest kinds one run cycles through until its seconds are used up.
// Traced runs alternate traced and untraced ingests (and, with readers,
// publish-only ones) so that drift hits every kind alike.
std::vector<RepKind> RepCycle(bool trace, bool publish_only) {
  std::vector<RepKind> cycle = {RepKind::kUntraced};
  if (trace) {
    cycle.push_back(RepKind::kTraced);
    if (publish_only) cycle.push_back(RepKind::kPublishOnly);
  }
  return cycle;
}

// Whether one more ingest fits in a run's measuring time: it does while
// the time used so far plus the mean ingest so far (with its checks and
// serving phase) stays within the seconds, so that a run ends near its
// seconds and not one ingest past them. The first `min_reps` always run.
class RepBudget {
 public:
  RepBudget(double seconds, size_t min_reps)
      : seconds_(seconds), min_reps_(min_reps), start_(Clock::now()) {}
  bool More(size_t done) const {
    if (done < min_reps_) return true;
    const double used = SecondsSince(start_);
    return used + used / static_cast<double>(done) <= seconds_;
  }

 private:
  double seconds_;
  size_t min_reps_;
  Clock::time_point start_;
};

// Wall times of the timed ingests of one kind. The first ingest of a run
// warms caches and allocator up and is checked but not timed.
template <typename Rep>
std::vector<double> Walls(const std::vector<Rep>& reps, RepKind kind) {
  std::vector<double> walls;
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].kind == kind) walls.push_back(reps[i].wall_s);
  }
  return walls;
}

template <typename Rep>
double MedianWall(const std::vector<Rep>& reps, RepKind kind) {
  return Median(Walls(reps, kind));
}

// The query metrics: medians over the timed untraced ingests' serving
// phases, plus every phase's samples pooled for the tail.
template <typename Rep>
void FillQueries(const std::vector<Rep>& reps, const QueryLog& pooled,
                 EndToEnd* e) {
  std::vector<double> rate, p50, p99;
  e->fewest_phase_samples = SIZE_MAX;
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].kind != RepKind::kUntraced) continue;
    const PhaseStats& q = reps[i].queries;
    rate.push_back(Ratio(static_cast<double>(q.ops), q.seconds));
    p50.push_back(q.p50_us);
    p99.push_back(q.p99_us);
    e->fewest_phase_samples = std::min(e->fewest_phase_samples, q.samples);
  }
  e->query_per_s = Median(rate);
  e->query_p50_us = Median(p50);
  e->query_p99_us = Median(p99);
  e->query_us = SortedSamples(pooled, &ReaderSamples::op_us);
}

// Per-window spans of one traced ingest, summarized.
struct SpanSplit {
  double wall_s = 0.0;
  double window_self_s = 0.0;
  double window_total_s = 0.0;
  double drain_s = 0.0;
  double publish_s = 0.0;
  double unattributed_s = 0.0;
  double window_p50_us = 0.0;
  double publish_p50_us = 0.0;
};

SpanSplit SplitSpans(const SpanLog& log) {
  SpanSplit s;
  const std::map<std::string, double> self = SelfTimeByName(log.spans());
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const std::vector<double> ingest = Durations(log.spans(), "ingest");
  const std::vector<double> windows = Durations(log.spans(), "window");
  s.wall_s = ingest.empty() ? 0.0 : ingest.front();
  s.window_self_s = get("window");
  for (double w : windows) s.window_total_s += w;
  s.drain_s = get("drain");
  s.publish_s = get("publish");
  s.unattributed_s = get("ingest");
  s.window_p50_us = Median(windows) * 1e6;
  s.publish_p50_us = Median(Durations(log.spans(), "publish")) * 1e6;
  return s;
}

template <typename T>
double MedianOf(const std::vector<T>& items, double T::*field) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(item.*field);
  return Median(v);
}

// Closes a window span at every window boundary and adopts the drain and
// publish spans recorded since the previous one.
class WindowSpans {
 public:
  explicit WindowSpans(SpanLog* log) : log_(log) {}
  void Start() { window_start_ = log_->Now(); }
  void Close() {
    const double now = log_->Now();
    log_->Adopt(first_child_, log_->Add("window", -1, window_start_, now));
    first_child_ = log_->size();
    window_start_ = now;
  }

 private:
  SpanLog* log_;
  double window_start_ = 0.0;
  size_t first_child_ = 0;
};

// ---------------------------------------------------------------------
// In-process workloads (SimulationDriver).
// ---------------------------------------------------------------------

struct InProcessConfig {
  size_t threads = 4;   // driver threads
  size_t readers = 0;   // live readers during ingest (0 = none)
  size_t chunk = 4096;  // arrivals per synchronization window
  double eps = 0.1;
};

// Matrix-tracking stream: rows, their sites and the exact covariance.
class MatrixStream {
 public:
  using Protocol = matrix::MatrixTrackingProtocol;
  using Traced = TracedMatrix;
  using ErrorTracker = MatrixErrorTracker;
  using Make = std::function<std::unique_ptr<Protocol>()>;
  static constexpr bool kMatrix = true;

  MatrixStream(data::SyntheticMatrixConfig gen, size_t n, Make make)
      : gen_(gen), n_(n), make_(std::move(make)) {}

  size_t n() const { return n_; }
  uint64_t universe() const { return 1; }
  size_t dim() const { return gen_.dim; }
  std::unique_ptr<Protocol> MakeProtocol() const { return make_(); }

  void Generate() {
    rows_ = {};
    data::SyntheticMatrixGenerator gen(gen_);
    rows_.resize(n_);
    for (auto& row : rows_) row = gen.Next();
    stream::Router router(kSites, stream::RoutingPolicy::kUniform,
                          gen_.seed + 1);
    sites_ = stream::AssignSites(&router, n_);
  }
  void Truth() {
    truth_ = std::make_unique<matrix::CovarianceTracker>(gen_.dim);
    truth_->AddRows(dmt::linalg::Matrix::FromRows(rows_));
  }
  void Run(stream::SimulationDriver* driver, Protocol* p) const {
    driver->Run(p, sites_, rows_);
  }
  void Attach(serve::ServingCoordinator* s, stream::SimulationDriver* d,
              Protocol* p) const {
    s->AttachMatrix(d, p);
  }
  void AttachProtocol(serve::ServingCoordinator* s, Protocol* p) const {
    s->AttachMatrixProtocol(p);
  }
  ErrorTracker MakeErrorTracker(const Protocol* p, double eps) const {
    return ErrorTracker(&rows_, gen_.dim, p, eps);
  }
  double EndErrOverEps(const Protocol& p, double eps) const {
    return matrix::CovarianceError(*truth_, p.CoordinatorGram()) / eps;
  }
  // Snapshot answers must equal the protocol's own, bit for bit.
  static std::string CheckSnapshot(const Protocol& p,
                                   const serve::Snapshot& snap) {
    const dmt::linalg::Matrix b = p.ExportSnapshotSketch();
    serve::QueryEngine engine(&snap);
    std::vector<double> x;
    for (size_t j = 0; j < b.cols(); ++j) {
      x.assign(b.cols(), 0.0);
      x[j] = 1.0;
      const double want = b.SquaredNormAlong(x);
      const double got = engine.CovarianceQuadraticForm(x);
      if (std::memcmp(&want, &got, sizeof want) != 0) {
        return "snapshot quadratic form differs from the protocol sketch";
      }
    }
    return "";
  }
  static void FillCounts(const Protocol& p, Layers* l) {
    l->sketch_rows = static_cast<double>(p.CoordinatorSketch().rows());
  }

 private:
  data::SyntheticMatrixConfig gen_;
  size_t n_;
  Make make_;
  std::vector<std::vector<double>> rows_;
  std::vector<size_t> sites_;
  std::unique_ptr<matrix::CovarianceTracker> truth_;
};

// Largest |estimate - weight| over the elements seen, divided by W.
double MaxWeightError(const hh::HeavyHitterProtocol& p,
                      const data::ExactWeights& truth, uint64_t universe) {
  double worst = 0.0;
  for (uint64_t e = 0; e < universe; ++e) {
    const double w = truth.Weight(e);
    if (w > 0.0) {
      worst = std::max(worst, std::abs(p.EstimateElementWeight(e) - w));
    }
  }
  return worst / truth.total_weight();
}

std::string CheckHHSnapshot(const hh::HeavyHitterProtocol& p,
                            const serve::Snapshot& snap) {
  serve::QueryEngine engine(&snap);
  const double total = p.EstimateTotalWeight();
  const double got_total = engine.TotalWeight();
  if (std::memcmp(&total, &got_total, sizeof total) != 0) {
    return "snapshot total weight differs from the protocol's";
  }
  for (const hh::HHSnapshotEntry& e : p.ExportSnapshotEntries()) {
    const double got = engine.ElementWeight(e.element);
    if (std::memcmp(&e.weight, &got, sizeof got) != 0) {
      return "snapshot weight of element " + std::to_string(e.element) +
             " differs from the protocol's";
    }
  }
  return "";
}

data::ExactWeights ExactTruth(const std::vector<stream::WeightedUpdate>& items) {
  data::ExactWeights truth;
  for (const stream::WeightedUpdate& it : items) {
    truth.Observe(data::WeightedItem{it.element, it.weight});
  }
  return truth;
}

// Weighted heavy-hitter stream: Zipf items, their sites and exact weights.
class ZipfStream {
 public:
  using Protocol = hh::HeavyHitterProtocol;
  using Traced = TracedHH;
  using ErrorTracker = HHErrorTracker;
  using Make = std::function<std::unique_ptr<Protocol>()>;
  static constexpr bool kMatrix = false;

  ZipfStream(uint64_t universe, double skew, double beta, uint64_t seed,
             size_t n, Make make)
      : universe_(universe), skew_(skew), beta_(beta), seed_(seed), n_(n),
        make_(std::move(make)) {}

  size_t n() const { return n_; }
  uint64_t universe() const { return universe_; }
  size_t dim() const { return 0; }
  std::unique_ptr<Protocol> MakeProtocol() const { return make_(); }

  void Generate() {
    items_ = {};
    data::ZipfianStream z(universe_, skew_, beta_, seed_);
    items_.resize(n_);
    for (auto& it : items_) {
      const data::WeightedItem w = z.Next();
      it = stream::WeightedUpdate{w.element, w.weight};
    }
    stream::Router router(kSites, stream::RoutingPolicy::kUniform,
                          seed_ + 1);
    sites_ = stream::AssignSites(&router, n_);
  }
  void Truth() { truth_ = ExactTruth(items_); }
  void Run(stream::SimulationDriver* driver, Protocol* p) const {
    driver->Run(p, sites_, items_);
  }
  void Attach(serve::ServingCoordinator* s, stream::SimulationDriver* d,
              Protocol* p) const {
    s->AttachHH(d, p);
  }
  void AttachProtocol(serve::ServingCoordinator* s, Protocol* p) const {
    s->AttachHHProtocol(p);
  }
  ErrorTracker MakeErrorTracker(const Protocol* p, double eps) const {
    return ErrorTracker(&items_, p, eps);
  }
  double EndErrOverEps(const Protocol& p, double eps) const {
    return MaxWeightError(p, truth_, universe_) / eps;
  }
  static std::string CheckSnapshot(const Protocol& p,
                                   const serve::Snapshot& snap) {
    return CheckHHSnapshot(p, snap);
  }
  static void FillCounts(const Protocol& p, Layers* l) {
    l->tracked_elements = static_cast<double>(p.TrackedElements().size());
  }

 private:
  uint64_t universe_;
  double skew_;
  double beta_;
  uint64_t seed_;
  size_t n_;
  Make make_;
  std::vector<stream::WeightedUpdate> items_;
  std::vector<size_t> sites_;
  data::ExactWeights truth_;
};

template <typename Protocol>
struct Rep {
  RepKind kind = RepKind::kUntraced;
  double wall_s = 0.0;
  Fingerprint fp;
  stream::SchedulerStats sched;
  std::string problem;
  // Queries beside the ingest, or after it when there are no live readers.
  PhaseStats queries;
  double publish_s = 0.0;  // final-state publish, without live readers
  double err_over_eps = 0.0;  // kChecked only
  std::unique_ptr<Protocol> protocol;
  // Traced ingests only.
  std::unique_ptr<SpanLog> log;
  uint64_t drained_sites = 0;
  size_t retired_max = 0;
};

template <typename Stream>
class InProcessRunner {
 public:
  using Protocol = typename Stream::Protocol;
  using Traced = typename Stream::Traced;

  InProcessRunner(const Stream* s, const InProcessConfig& cfg)
      : s_(s),
        cfg_(cfg),
        readers_(cfg.readers > 0 ? cfg.readers : kServeReaders),
        live_(readers_),
        traced_(readers_) {}

  // Query samples of the timed untraced / traced ingests.
  const QueryLog& live() const { return live_; }
  const QueryLog& traced() const { return traced_; }

  Rep<Protocol> Ingest(RepKind kind) {
    stream::SimulationOptions opt;
    opt.threads = kind == RepKind::kOneThread ? 1 : cfg_.threads;
    opt.chunk_elements = cfg_.chunk;
    if (driver_ == nullptr || driver_->threads() != opt.threads) {
      driver_ = std::make_unique<stream::SimulationDriver>(opt);
    }
    stream::SimulationDriver* driver = driver_.get();

    Rep<Protocol> rep;
    rep.kind = kind;
    rep.protocol = s_->MakeProtocol();
    const bool traced = kind == RepKind::kTraced;
    // With live readers, every ingest but the checked one publishes per
    // window, and all but the publish-only one has readers beside it.
    const bool live = cfg_.readers > 0 && kind != RepKind::kChecked;
    const bool readers = live && kind != RepKind::kPublishOnly;
    // Without live readers, the timed ingests end by serving their state.
    const bool serve_after =
        cfg_.readers == 0 && (kind == RepKind::kUntraced || traced);
    QueryLog none;
    QueryLog phase(readers_);
    QueryLog* pooled = traced                        ? &traced_
                       : kind == RepKind::kUntraced ? &live_
                                                    : nullptr;
    serve::SnapshotStore store;
    serve::ServingCoordinator serving(&store);

    if (traced) {
      rep.log = std::make_unique<SpanLog>();
      SpanLog* log = rep.log.get();
      Traced wrapper(rep.protocol.get(), log);
      if (live) s_->AttachProtocol(&serving, &wrapper);
      WindowSpans windows(log);
      driver->set_window_callback([&](const stream::WindowEndInfo& info) {
        if (live) {
          const double start = log->Now();
          serving.PublishWindow(info.window_index, info.arrivals_total);
          log->Add("publish", -1, start, log->Now());
          rep.retired_max = std::max(rep.retired_max, store.retired_count());
        }
        windows.Close();
      });
      {
        ReaderPool pool(&store, readers ? &phase : &none, /*split=*/true,
                        s_->universe());
        const double t0 = log->Now();
        windows.Start();
        s_->Run(driver, &wrapper);
        const double t1 = log->Now();
        rep.wall_s = t1 - t0;
        log->Adopt(0, log->Add("ingest", -1, t0, t1));
      }
      driver->set_window_callback({});
      serving.Detach();
      rep.drained_sites = wrapper.drained_sites();
    } else if (kind == RepKind::kChecked) {
      typename Stream::ErrorTracker tracker =
          s_->MakeErrorTracker(rep.protocol.get(), cfg_.eps);
      driver->set_window_callback(
          [&tracker](const stream::WindowEndInfo& info) { tracker(info); });
      s_->Run(driver, rep.protocol.get());
      driver->set_window_callback({});
      rep.err_over_eps = tracker.worst();
    } else {
      if (live) s_->Attach(&serving, driver, rep.protocol.get());
      {
        ReaderPool pool(&store, readers ? &phase : &none, /*split=*/false,
                        s_->universe());
        const Clock::time_point t0 = Clock::now();
        s_->Run(driver, rep.protocol.get());
        rep.wall_s = SecondsSince(t0);
      }
      serving.Detach();
    }
    rep.sched = driver->scheduler_stats();
    rep.fp = FingerprintOf(*rep.protocol);
    if (readers) {
      rep.queries = FinishPhase(phase, rep.wall_s, pooled);
    } else if (serve_after) {
      const ServePhase served =
          ServeState(*rep.protocol, rep.sched.windows, s_->n(),
                     ServeSeconds(rep.wall_s), traced, s_->universe(),
                     &phase, Stream::CheckSnapshot);
      rep.problem = served.problem;
      rep.publish_s = served.publish_s;
      rep.queries = FinishPhase(phase, served.seconds, pooled);
    }
    return rep;
  }

 private:
  const Stream* s_;
  InProcessConfig cfg_;
  size_t readers_;
  std::unique_ptr<stream::SimulationDriver> driver_;
  QueryLog live_;
  QueryLog traced_;
};

// The checks every ingest passes: the same result as the checked ingest,
// no drain stall, snapshots that answer like the protocol, and no reader
// seeing a snapshot older than one it saw.
template <typename Protocol>
std::string CheckRep(const Rep<Protocol>& rep, const Fingerprint& reference) {
  const std::string what = KindName(rep.kind);
  const std::string diff = CompareFingerprints(rep.fp, reference);
  if (!diff.empty()) return what + ": " + diff;
  if (rep.sched.drain_stalls != 0) {
    return what + ": " + std::to_string(rep.sched.drain_stalls) +
           " drain stalls";
  }
  if (!rep.problem.empty()) return what + ": " + rep.problem;
  if (rep.queries.regressions != 0) {
    return what + ": a reader saw an older snapshot after a newer one";
  }
  return "";
}

template <typename Stream>
void RunInProcess(Stream* s, const InProcessConfig& cfg,
                  const RunOptions& opt, Report* r) {
  using Protocol = typename Stream::Protocol;
  SetupTimes setup;
  for (size_t i = 0; i <= kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    s->Generate();
    const double generate_s = SecondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    s->Truth();
    if (i > 0) setup.Add(generate_s, SecondsSince(t1), 0.0);
  }

  InProcessRunner<Stream> runner(s, cfg);
  const std::vector<RepKind> cycle = RepCycle(opt.trace, cfg.readers > 0);
  // The first, untimed ingest warms caches and allocator up and measures
  // the error at every window boundary; then the cycle repeats, at least
  // once, while the seconds last. A traced run ends with a 1-thread
  // ingest, outside the seconds.
  std::vector<Rep<Protocol>> reps;
  reps.push_back(runner.Ingest(RepKind::kChecked));
  const RepBudget budget(opt.seconds, cycle.size());
  for (size_t i = 0; budget.More(i); ++i) {
    reps.push_back(runner.Ingest(cycle[i % cycle.size()]));
    reps.back().protocol.reset();  // only the checked one is kept
  }
  if (opt.trace) {
    reps.push_back(runner.Ingest(RepKind::kOneThread));
    reps.back().protocol.reset();
  }

  const Rep<Protocol>& checked = reps.front();
  const Fingerprint reference = checked.fp;
  for (const Rep<Protocol>& rep : reps) r->Check(CheckRep(rep, reference));
  r->Check(ErrCheck(checked.err_over_eps));
  const double end_err = s->EndErrOverEps(*checked.protocol, cfg.eps);
  if (cfg.readers > 0) {
    std::unique_ptr<const serve::Snapshot> snap = serve::BuildSnapshot(
        *checked.protocol, checked.sched.windows, s->n());
    r->Check(Stream::CheckSnapshot(*checked.protocol, *snap));
  }

  const std::vector<double> walls = Walls(reps, RepKind::kUntraced);
  const double untraced_wall = Median(walls);
  r->Detail("stream_length", static_cast<double>(s->n()), "count");
  r->Detail("timed_ingests", static_cast<double>(walls.size()), "count");
  r->Detail("ingest_wall_s", untraced_wall, "s");
  r->Detail("ingest_wall_min_s", *std::min_element(walls.begin(), walls.end()),
            "s");
  r->Detail("ingest_wall_max_s", *std::max_element(walls.begin(), walls.end()),
            "s");
  std::vector<double> sorted_walls = walls;
  std::sort(sorted_walls.begin(), sorted_walls.end());
  r->Detail("ingest_wall_q1_s", SortedQuantile(sorted_walls, 0.25), "s");
  r->Detail("ingest_wall_q3_s", SortedQuantile(sorted_walls, 0.75), "s");
  r->Detail("err_end_over_eps", end_err, "1");

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = Median(setup.total);
    e.ingest_per_s = static_cast<double>(s->n()) / untraced_wall;
    e.messages = static_cast<double>(reference.comm.total());
    e.err_over_eps = checked.err_over_eps;
    e.wire_bytes = PayloadBytes(reference.comm, s->dim());
    FillQueries(reps, runner.live(), &e);
    AddEndToEnd(e, r);
    return;
  }

  std::vector<SpanSplit> splits;
  std::vector<double> drained_sites;
  std::vector<double> final_publish_s;
  Layers l;
  for (size_t i = 1; i < reps.size(); ++i) {
    const Rep<Protocol>& rep = reps[i];
    if (rep.kind != RepKind::kTraced) continue;
    if (splits.empty()) WriteTrace(opt, *rep.log);
    splits.push_back(SplitSpans(*rep.log));
    drained_sites.push_back(static_cast<double>(rep.drained_sites));
    final_publish_s.push_back(rep.publish_s);
    l.retired_max =
        std::max(l.retired_max, static_cast<double>(rep.retired_max));
  }
  l.wall_s = MedianOf(splits, &SpanSplit::wall_s);
  l.site_phase_s = MedianOf(splits, &SpanSplit::window_self_s);
  l.drain_s = MedianOf(splits, &SpanSplit::drain_s);
  l.publish_s = MedianOf(splits, &SpanSplit::publish_s);
  l.unattributed_s = MedianOf(splits, &SpanSplit::unattributed_s);
  l.window_p50_us = MedianOf(splits, &SpanSplit::window_p50_us);
  const stream::SchedulerStats& sched = reps.front().sched;
  l.windows = static_cast<double>(sched.windows);
  l.batches_reserved = static_cast<double>(sched.batches_reserved);
  l.sites_per_batch = sched.mean_sites_per_batch();
  l.drain_stalls = static_cast<double>(sched.drain_stalls);
  l.speedup_vs_1thread =
      MedianWall(reps, RepKind::kOneThread) / untraced_wall;
  l.trace_overhead = MedianWall(reps, RepKind::kTraced) / untraced_wall;
  l.matrix = Stream::kMatrix;
  if (Stream::kMatrix) l.drained_sites = Median(drained_sites);
  Stream::FillCounts(*checked.protocol, &l);
  l.comm = reference.comm;
  if (cfg.readers > 0) {
    l.publish_p50_us = MedianOf(splits, &SpanSplit::publish_p50_us);
    l.reader_interference =
        untraced_wall / MedianWall(reps, RepKind::kPublishOnly);
  } else {
    // Without per-window publishing, the publish is the final state's.
    l.publish_p50_us = Median(final_publish_s) * 1e6;
  }
  FillQueryLayers(runner.traced(), &l);
  setup.Fill(&l);
  AddLayers(l, r);
  r->Detail("one_thread_wall_s", MedianWall(reps, RepKind::kOneThread), "s");
}

// ---------------------------------------------------------------------
// p1_wire: P1 over TCP loopback, sites and coordinator on threads.
// ---------------------------------------------------------------------

using Channels = std::vector<std::unique_ptr<net::Connection>>;

// Listens on an ephemeral loopback port and connects every site to it.
std::string ConnectSites(size_t sites, Channels* coord_ends,
                         Channels* site_ends) {
  std::string error;
  std::unique_ptr<net::TcpListener> listener =
      net::TcpListener::Listen(0, &error);
  if (listener == nullptr) return "listen failed: " + error;
  site_ends->clear();
  site_ends->resize(sites);
  std::vector<std::thread> dialers;
  for (size_t s = 0; s < sites; ++s) {
    dialers.emplace_back([&, s] {
      std::string dial_error;
      (*site_ends)[s] =
          net::TcpConnect("127.0.0.1", listener->port(), &dial_error);
    });
  }
  coord_ends->clear();
  for (size_t s = 0; s < sites; ++s) {
    coord_ends->push_back(listener->Accept(&error));
    if (coord_ends->back() == nullptr) break;
  }
  for (std::thread& t : dialers) t.join();
  for (size_t s = 0; s < sites; ++s) {
    if ((*site_ends)[s] == nullptr || s >= coord_ends->size() ||
        (*coord_ends)[s] == nullptr) {
      return "connect failed: " + error;
    }
  }
  return "";
}

struct WireSetup {
  net::WireRunConfig config;
  net::WireWorkload workload;
  std::vector<std::vector<std::vector<uint32_t>>> site_windows;
  data::ExactWeights truth;
  Channels coord_ends;  // the first ingest's connections
  Channels site_ends;
};

// Times one site's updates window by window: two clock reads per window
// instead of two per arrival.
class SiteWindowTimer {
 public:
  SiteWindowTimer(const std::vector<std::vector<uint32_t>>* windows,
                  std::function<void(uint32_t)> update)
      : windows_(windows), update_(std::move(update)) {}

  void operator()(uint32_t idx) {
    if (pos_ == 0) {
      while ((*windows_)[w_].empty()) ++w_;
      start_ = Clock::now();
    }
    update_(idx);
    if (++pos_ == (*windows_)[w_].size()) {
      busy_s_ += SecondsSince(start_);
      ++w_;
      pos_ = 0;
    }
  }
  double busy_s() const { return busy_s_; }

 private:
  const std::vector<std::vector<uint32_t>>* windows_;
  std::function<void(uint32_t)> update_;
  size_t w_ = 0;
  size_t pos_ = 0;
  Clock::time_point start_;
  double busy_s_ = 0.0;
};

struct WireRep {
  RepKind kind = RepKind::kUntraced;
  double wall_s = 0.0;
  std::string problem;
  net::WireProtocol coord;
  net::WireCoordinatorReport report;
  PhaseStats queries;
  double publish_s = 0.0;
  // Traced ingests only.
  std::unique_ptr<SpanLog> log;
  double site_busy_s = 0.0;  // mean over sites
};

WireRep WireIngest(const WireSetup& setup, RepKind kind, Channels coord_ends,
                   Channels site_ends) {
  const net::WireRunConfig& config = setup.config;
  const size_t m = config.num_sites;
  WireRep rep;
  rep.kind = kind;
  rep.coord = net::MakeWireProtocol(config);
  std::vector<net::WireProtocol> sites(m);
  for (net::WireProtocol& p : sites) p = net::MakeWireProtocol(config);
  std::vector<std::string> site_errors(m);
  std::vector<std::unique_ptr<SiteWindowTimer>> timers(m);
  const bool traced = kind == RepKind::kTraced;
  if (traced) rep.log = std::make_unique<SpanLog>();
  TracedWire traced_adapter(rep.coord.adapter.get(), rep.log.get());
  WindowSpans windows(rep.log.get());

  const double t0 = traced ? rep.log->Now() : 0.0;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < m; ++s) {
    std::function<void(uint32_t)> update =
        net::MakeSiteUpdater(setup.workload, &sites[s], s);
    if (traced) {
      timers[s] = std::make_unique<SiteWindowTimer>(&setup.site_windows[s],
                                                    std::move(update));
      SiteWindowTimer* timer = timers[s].get();
      update = [timer](uint32_t idx) { (*timer)(idx); };
    }
    threads.emplace_back([&, s, update = std::move(update)] {
      if (!net::RunWireSite(sites[s].adapter.get(), s,
                            setup.site_windows[s], update, site_ends[s].get(),
                            &site_errors[s])) {
        site_ends[s].reset();  // unblocks the coordinator
      }
    });
  }
  std::string error;
  std::function<void(size_t)> on_window;
  if (traced) {
    windows.Start();
    on_window = [&](size_t) { windows.Close(); };
  }
  net::WireAdapter* adapter =
      traced ? static_cast<net::WireAdapter*>(&traced_adapter)
             : rep.coord.adapter.get();
  const bool ok = net::RunWireCoordinator(
      adapter, &coord_ends, setup.workload.window_ends.size(), &rep.report,
      &error, on_window);
  if (!ok) coord_ends.clear();  // unblocks the sites
  for (std::thread& t : threads) t.join();
  rep.wall_s = SecondsSince(start);

  if (!ok) rep.problem = "wire coordinator: " + error;
  for (size_t s = 0; s < m && rep.problem.empty(); ++s) {
    if (!site_errors[s].empty()) rep.problem = "wire site: " + site_errors[s];
  }
  if (traced) {
    rep.log->Adopt(0, rep.log->Add("ingest", -1, t0, t0 + rep.wall_s));
    for (const auto& timer : timers) rep.site_busy_s += timer->busy_s();
    rep.site_busy_s /= static_cast<double>(m);
  }
  return rep;
}

void RunWire(const RunOptions& opt, Report* r) {
  WireSetup setup;
  net::WireRunConfig& config = setup.config;
  config.protocol = "p1";
  config.num_sites = 3;
  config.n = 4000000;
  config.chunk = 1024;
  config.eps = 0.1;
  config.seed = opt.seed;

  SetupTimes times;
  for (size_t i = 0; i <= kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup.workload = {};
    setup.workload = net::MakeWireWorkload(config);
    setup.site_windows.clear();
    for (size_t s = 0; s < config.num_sites; ++s) {
      setup.site_windows.push_back(net::SiteWindowIndices(
          setup.workload.sites, s, setup.workload.window_ends));
    }
    const double generate_s = SecondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    setup.truth = ExactTruth(setup.workload.items);
    const double truth_s = SecondsSince(t1);
    const Clock::time_point t2 = Clock::now();
    const std::string problem = ConnectSites(
        config.num_sites, &setup.coord_ends, &setup.site_ends);
    if (i > 0) times.Add(generate_s, truth_s, SecondsSince(t2));
    if (!problem.empty()) {
      r->Check(problem);
      return;
    }
  }

  // The in-process oracle: one driver thread over the same schedule.
  const Clock::time_point oracle_start = Clock::now();
  const net::WireProtocol oracle = net::RunOracle(config, setup.workload);
  const double oracle_s = SecondsSince(oracle_start);

  QueryLog live(kServeReaders);
  QueryLog traced(kServeReaders);
  const std::vector<RepKind> cycle = RepCycle(opt.trace, false);
  std::vector<WireRep> reps;
  // The first ingest is checked but not timed; then the cycle repeats, at
  // least once, while the seconds last.
  const RepBudget budget(opt.seconds, 1 + cycle.size());
  while (budget.More(reps.size())) {
    Channels coord_ends;
    Channels site_ends;
    if (reps.empty()) {
      coord_ends = std::move(setup.coord_ends);
      site_ends = std::move(setup.site_ends);
    } else {
      const std::string problem =
          ConnectSites(config.num_sites, &coord_ends, &site_ends);
      if (!problem.empty()) {
        r->Check(problem);
        return;
      }
    }
    const RepKind kind =
        cycle[reps.empty() ? 0 : (reps.size() - 1) % cycle.size()];
    QueryLog* pooled = reps.empty()                ? nullptr
                       : kind == RepKind::kTraced ? &traced
                                                  : &live;
    reps.push_back(WireIngest(setup, kind, std::move(coord_ends),
                              std::move(site_ends)));
    WireRep& rep = reps.back();
    if (rep.problem.empty()) {
      const std::string diff =
          net::DiffWireProtocols(config, rep.coord, oracle);
      if (!diff.empty()) {
        rep.problem = "differs from the in-process oracle: " + diff;
      }
    }
    if (rep.problem.empty()) {
      QueryLog phase(kServeReaders);
      const ServePhase served = ServeState(
          static_cast<const hh::HeavyHitterProtocol&>(*rep.coord.hh),
          setup.workload.window_ends.size(), config.n,
          ServeSeconds(rep.wall_s), kind == RepKind::kTraced,
          config.universe, &phase, CheckHHSnapshot);
      rep.problem = served.problem;
      rep.publish_s = served.publish_s;
      rep.queries = FinishPhase(phase, served.seconds, pooled);
    }
    r->Check(rep.problem.empty()
                 ? ""
                 : std::string(KindName(rep.kind)) + ": " + rep.problem);
    if (!rep.problem.empty()) return;
    if (reps.size() > 1) reps[reps.size() - 2].coord = {};
  }

  // Error at every window boundary, on an in-process replay of the
  // oracle's schedule (bit-identical to the wire run, checked above).
  hh::P1BatchedMG replay(config.num_sites, config.eps);
  HHErrorTracker tracker(&setup.workload.items, &replay, config.eps);
  {
    stream::SimulationOptions sim;
    sim.threads = 1;
    sim.chunk_elements = config.chunk;
    stream::SimulationDriver driver(sim);
    driver.set_window_callback(
        [&tracker](const stream::WindowEndInfo& info) { tracker(info); });
    driver.Run(&replay, setup.workload.sites, setup.workload.items);
  }
  const Fingerprint fp = FingerprintOf(*oracle.hh);
  r->Check(CompareFingerprints(FingerprintOf(replay), fp).empty()
               ? ""
               : "error-checked replay differs from the oracle");
  r->Check(ErrCheck(tracker.worst()));

  const hh::HeavyHitterProtocol& final_state = *reps.back().coord.hh;
  const std::vector<double> walls = Walls(reps, RepKind::kUntraced);
  const double untraced_wall = Median(walls);
  const net::WireCoordinatorReport& report = reps.front().report;
  const size_t windows = setup.workload.window_ends.size();
  r->Detail("stream_length", static_cast<double>(config.n), "count");
  r->Detail("timed_ingests", static_cast<double>(walls.size()), "count");
  r->Detail("ingest_wall_s", untraced_wall, "s");
  r->Detail("ingest_wall_min_s", *std::min_element(walls.begin(), walls.end()),
            "s");
  r->Detail("ingest_wall_max_s", *std::max_element(walls.begin(), walls.end()),
            "s");
  r->Detail("err_end_over_eps",
            MaxWeightError(final_state, setup.truth, config.universe) /
                config.eps,
            "1");
  r->Detail("oracle_wall_s", oracle_s, "s");
  r->Detail("net.connect_s", Median(times.connect), "s");

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = Median(times.total);
    e.ingest_per_s = static_cast<double>(config.n) / untraced_wall;
    e.messages = static_cast<double>(fp.comm.total());
    e.err_over_eps = tracker.worst();
    e.wire_bytes = static_cast<double>(report.total_bytes_up() +
                                       report.total_bytes_down());
    FillQueries(reps, live, &e);
    AddEndToEnd(e, r);
    return;
  }

  struct WireSplit {
    double wall_s, rounds_s, drain_s, site_s, unattributed_s, round_p50_us,
        publish_s;
  };
  std::vector<WireSplit> splits;
  for (size_t i = 1; i < reps.size(); ++i) {
    const WireRep& rep = reps[i];
    if (rep.kind != RepKind::kTraced) continue;
    if (splits.empty()) WriteTrace(opt, *rep.log);
    const SpanSplit s = SplitSpans(*rep.log);
    splits.push_back(WireSplit{s.wall_s, s.window_total_s, s.drain_s,
                               rep.site_busy_s, s.unattributed_s,
                               s.window_p50_us, rep.publish_s});
  }
  Layers l;
  l.wall_s = MedianOf(splits, &WireSplit::wall_s);
  l.site_phase_s = MedianOf(splits, &WireSplit::site_s);
  l.drain_s = MedianOf(splits, &WireSplit::drain_s);
  // A round is the coordinator's drain plus waiting on the sites, whose
  // own update time is site_phase_s; the rest is the wire.
  l.net_wait_s = std::max(0.0, MedianOf(splits, &WireSplit::rounds_s) -
                                   l.drain_s - l.site_phase_s);
  l.unattributed_s = MedianOf(splits, &WireSplit::unattributed_s);
  l.window_p50_us = MedianOf(splits, &WireSplit::round_p50_us);
  l.windows = static_cast<double>(windows);
  l.trace_overhead = MedianWall(reps, RepKind::kTraced) / untraced_wall;
  l.tracked_elements =
      static_cast<double>(final_state.TrackedElements().size());
  l.comm = fp.comm;
  l.publish_p50_us = MedianOf(splits, &WireSplit::publish_s) * 1e6;
  FillQueryLayers(traced, &l);
  l.bytes_up = static_cast<double>(report.total_bytes_up());
  l.bytes_down = static_cast<double>(report.total_bytes_down());
  l.frames_up = static_cast<double>(report.frames_received);
  l.wire_overhead = untraced_wall / oracle_s;
  times.Fill(&l);
  AddLayers(l, r);
}

}  // namespace

bool RunWorkload(const RunOptions& opt, Report* report) {
  if (opt.workload == "mp1_pamap") {
    InProcessConfig cfg;
    cfg.threads = 4;
    cfg.chunk = 4096;
    cfg.eps = 0.1;
    const double eps = cfg.eps;
    MatrixStream s(
        data::SyntheticMatrixGenerator::PamapLike(opt.seed), 40000,
        [eps]() -> std::unique_ptr<matrix::MatrixTrackingProtocol> {
          return std::make_unique<matrix::MP1BatchedFD>(kSites, eps);
        });
    RunInProcess(&s, cfg, opt, report);
    return true;
  }
  if (opt.workload == "p2_zipf_serve") {
    InProcessConfig cfg;
    cfg.threads = 2;
    cfg.readers = 2;
    cfg.chunk = 32768;
    cfg.eps = 0.05;
    const double eps = cfg.eps;
    ZipfStream s(100000, 1.5, 100.0, opt.seed, 2000000,
                 [eps]() -> std::unique_ptr<hh::HeavyHitterProtocol> {
                   return std::make_unique<hh::P2Threshold>(kSites, eps);
                 });
    RunInProcess(&s, cfg, opt, report);
    return true;
  }
  if (opt.workload == "p1_wire") {
    RunWire(opt, report);
    return true;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return false;
}

}  // namespace perfbench
