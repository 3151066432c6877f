#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace perfbench {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.5);
}

size_t SamplesBeyond(size_t n, uint32_t percentile_pcm) {
  // Integer nearest rank, so p99 of 1000 samples is rank 990 exactly.
  const uint64_t rank =
      (static_cast<uint64_t>(n) * percentile_pcm + 99999) / 100000;
  return n - static_cast<size_t>(rank);
}

TailPercentile SupportedTail(const std::vector<double>& sorted) {
  static const uint32_t kLadder[] = {50000, 90000, 99000,
                                     99900, 99990, 99999};
  TailPercentile tail;
  for (uint32_t pcm : kLadder) {
    const size_t beyond = SamplesBeyond(sorted.size(), pcm);
    if (beyond < 10) break;
    tail.percentile = pcm / 1000.0;
    tail.beyond = beyond;
    tail.value = sorted[sorted.size() - beyond - 1];
  }
  return tail;
}

void SampleBuffer::Add(double value) {
  if (offered_++ % stride_ != 0) return;
  values_.push_back(value);
  if (values_.size() < capacity_) return;
  size_t kept = 0;
  for (size_t i = 0; i < values_.size(); i += 2) values_[kept++] = values_[i];
  values_.resize(kept);
  stride_ *= 2;
}

size_t SpanLog::Add(const char* name, int64_t parent, double start,
                    double end) {
  spans_.push_back(Span{name, parent, start, end});
  return spans_.size() - 1;
}

void SpanLog::Adopt(size_t first, size_t parent) {
  for (size_t i = first; i < spans_.size(); ++i) {
    if (i != parent && spans_[i].parent < 0) {
      spans_[i].parent = static_cast<int64_t>(parent);
    }
  }
}

void SpanLog::WriteChromeTrace(FILE* f) const {
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld}}%s\n",
                 s.name, s.start * 1e6, (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, reach);
      const double b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
  }
  return out;
}

}  // namespace perfbench
