// Sample statistics and in-memory span tracing for the benchmark.
//
// Everything here is timed from outside the library: spans are recorded
// by the benchmark around calls into the layers' public functions and
// kept in memory until the run ends.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample: the value at
/// 1-based rank ceil(q * n), q in (0, 1]. Returns 0 for an empty sample.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Nearest-rank median of an unsorted sample (0 when empty).
double Median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank position of a percentile
/// given in parts per 100000 (99000 = p99).
size_t SamplesBeyond(size_t n, uint32_t percentile_pcm);

/// The tail percentile a sample supports: the highest of p50, p90, p99,
/// p99.9, p99.99 and p99.999 that leaves at least ten samples beyond it.
/// `percentile` is 0 when the sample is too small even for p50.
struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
  size_t beyond = 0;
};
TailPercentile SupportedTail(const std::vector<double>& sorted);

/// A bounded, evenly thinned sample of a long series: keeps every
/// stride-th value offered, doubling the stride (and dropping every other
/// kept value) whenever `capacity` values are held. Memory stays fixed
/// however long the series runs, and early and late values are kept at
/// the same density.
class SampleBuffer {
 public:
  /// Reserves all `capacity` values up front, so the buffer's footprint
  /// does not depend on how many values a run happens to offer.
  explicit SampleBuffer(size_t capacity = size_t{1} << 16)
      : capacity_(capacity < 2 ? 2 : capacity) {
    values_.reserve(capacity_);
  }

  void Add(double value);
  const std::vector<double>& values() const { return values_; }
  uint64_t offered() const { return offered_; }
  uint64_t stride() const { return stride_; }

 private:
  size_t capacity_;
  uint64_t stride_ = 1;
  uint64_t offered_ = 0;
  std::vector<double> values_;
};

/// One timed interval. Times are seconds since the log's origin.
struct Span {
  const char* name = "";
  int64_t parent = -1;  ///< index into the log, -1 for a root
  double start = 0.0;
  double end = 0.0;
};

/// Spans of one run, in memory. Not thread-safe: one log per thread.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Seconds since the log was created.
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Appends a finished span and returns its index.
  size_t Add(const char* name, int64_t parent, double start, double end);

  /// Makes `parent` the parent of every root span at index >= `first`
  /// (spans that finish before their parent is known, such as a drain
  /// inside a window that closes later).
  void Adopt(size_t first, size_t parent);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (viewable in chrome://tracing or Perfetto).
  void WriteChromeTrace(FILE* f) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-span self time: the span's duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Self time summed by span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// Durations of every span with this name, in log order.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
