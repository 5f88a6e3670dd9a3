// perfbench — the repository benchmark. One invocation runs one workload
// for a fixed time, checks every answer against a reference solve, prints
// every metric with its unit, and ends with a one-line JSON result:
//
//   perfbench --workload <serve_mixed|solve_cold|store_restart>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes a Chrome
// trace. The exit code is non-zero when any answer fails the gate.
// See perfbench/README.md for the workloads and the metric map.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mixed|solve_cold|"
               "store_restart --seed N --seconds S --trace 0|1 [--out DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds < 1) {
    usage();
    return 2;
  }
  std::printf("perfbench workload %s seed %llu seconds %d trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  perfbench::Report report;
  perfbench::Tally tally;
  int code = 0;
  if (options.workload == "serve_mixed") {
    code = perfbench::run_serve_mixed(options, report, tally);
  } else if (options.workload == "solve_cold") {
    code = perfbench::run_solve_cold(options, report, tally);
  } else if (options.workload == "store_restart") {
    code = perfbench::run_store_restart(options, report, tally);
  } else {
    usage();
    return 2;
  }
  if (code != 0) return code;  // set-up failed: no result line
  report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  return report.finish(options, tally);
}
