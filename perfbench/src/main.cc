// The benchmark's measuring program: runs one workload in this process and
// prints a header, a line per note and metric, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds it and is the command to use:
//
//   python3 perfbench/run.py --workload music-2000 --seed 0 --seconds 1 \
//       --trace 0
//
// Exit codes: 0 with a result line; 2 on bad arguments or when the inputs
// cannot be built (no result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH "unknown"
#endif

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH] "
               "[--git-sha SHA]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.workload.empty()) {
    Usage();
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# git_sha=%s build_type=%s MULTIEM_NATIVE_ARCH=%s nproc=%u "
              "threads=%zu\n",
              git_sha.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE_ARCH,
              std::thread::hardware_concurrency(), perfbench::kThreads);
  std::fflush(stdout);

  auto report = perfbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", report.status().ToString().c_str());
    return 2;
  }
  for (const std::string& note : report->notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& problem : report->problems) {
    std::printf("# PROBLEM: %s\n", problem.c_str());
  }
  for (const auto& metric : report->metrics) {
    std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report->correct() ? "true" : "false", report->attempted,
              report->failed);
  for (size_t i = 0; i < report->metrics.size(); ++i) {
    const auto& metric = report->metrics[i];
    std::printf("%s", i == 0 ? "" : ", ");
    PrintJsonString(metric.name);
    // JSON has no NaN or infinity; a non-finite value is reported as null.
    if (std::isfinite(metric.value)) {
      std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    } else {
      std::printf(": {\"value\": null, \"unit\": ");
    }
    PrintJsonString(metric.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
