// The benchmark's workloads. Each one generates its stream from the seed,
// sets up several times (the median is setup_s), ingests the stream again
// and again for the measured seconds on fresh protocol instances, checks
// every run's outputs, and reports either the end-to-end metrics
// (untraced) or the per-layer metrics (traced). See ../README.md for the
// metric table and what each workload is for.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When non-empty, the first traced ingest's spans go here as a Chrome
  /// trace-event file.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;  ///< checks made (one per ingest, plus run-wide)
  uint64_t failed = 0;     ///< of those, how many failed
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;        ///< the BENCHMARK.json metric set
  std::vector<Metric> detail;         ///< supporting numbers, not compared

  /// Records one checked operation; `problem` empty means it passed.
  void Check(const std::string& problem);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    detail.push_back(Metric{name, value, unit});
  }
};

/// Runs one workload. Returns false (with a message on stderr) for an
/// unknown workload name.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
