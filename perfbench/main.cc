// pipbench: the PIP end-to-end benchmark program (run through run.py).
//
//   pipbench --workload W --seed N --seconds S --trace 0|1
//            --server-bin PATH --trace-dir DIR
//
// Prints one JSON object as the last line of stdout: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "workloads.h"

namespace perfbench {

void SetOpMetrics(const std::vector<double>& latencies_ms, double window_s,
                  Report* report) {
  report->Set("op_p10_ms", Quantile(latencies_ms, 0.1), "ms");
  report->Set("ops_per_s", latencies_ms.size() / window_s, "1/s");
}

}  // namespace perfbench

namespace {

const char* const kEndToEnd[] = {"setup_s", "op_p10_ms", "ops_per_s",
                                 "peak_rss_mb"};

int Usage() {
  std::fprintf(stderr,
               "usage: pipbench --workload paper_queries|sql_analyze_cold|"
               "sql_point_mixed --seed N --seconds S --trace 0|1 "
               "--server-bin PATH --trace-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.process_start = perfbench::Clock::now();
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::atoi(value) != 0;
      have_trace = true;
    } else if (std::strcmp(flag, "--server-bin") == 0) {
      args.server_bin = value;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      args.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_trace || args.seconds < 1 ||
      args.trace_dir.empty()) {
    return Usage();
  }

  perfbench::Report report;
  if (args.workload == "paper_queries") {
    perfbench::RunPaperQueries(args, &report);
  } else if (args.workload == "sql_analyze_cold") {
    perfbench::RunSqlAnalyzeCold(args, &report);
  } else if (args.workload == "sql_point_mixed") {
    perfbench::RunSqlPointMixed(args, &report);
  } else {
    return Usage();
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "pipbench: no operation was attempted\n");
    return 1;
  }

  // The result must carry exactly the metric set of its mode.
  std::set<std::string> want;
  if (args.trace) {
    for (const auto& m : perfbench::PerLayerMetrics()) want.insert(m.first);
  } else {
    want.insert(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::set<std::string> have;
  for (const auto& m : report.metrics) have.insert(m.first);
  if (have != want) {
    std::fprintf(stderr, "pipbench: internal error: metric set mismatch\n");
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
