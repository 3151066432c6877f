// Benchmark program: runs one workload and prints one JSON object as the
// last line of stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// The object holds the keys correct, attempted, failed and metrics (the
// end-to-end metrics untraced, the per-layer metrics traced), plus
// "detail" and "failures" with the supporting numbers. run.py builds this
// program, adds the machine description and prints the first four keys.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  std::printf("{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(m.name);
    // Non-finite values are not JSON; print them as 0 (the checks
    // above have already failed the run in that case).
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage();
    }
    if (end != nullptr && (end == value || *end != '\0')) return Usage();
  }
  if (!have_workload || argc % 2 == 0 || !(opt.seconds > 0.0)) {
    return Usage();
  }

  perfbench::Report report;
  if (!perfbench::RunWorkload(opt, &report)) return 2;

  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": ",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  PrintMetrics(report.metrics);
  std::printf(", \"detail\": ");
  PrintMetrics(report.detail);
  std::printf(", \"failures\": [");
  for (size_t i = 0; i < report.failures.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(report.failures[i]);
  }
  std::printf("]}\n");
  return 0;
}
