/// \file main.cc
/// \brief Entry point of the Spindle serving benchmark.
///
///   spindle_perfbench --workload search|fleet|strategy --seed N
///                     --seconds S --trace 0|1 [--smoke] [--trace-dir DIR]
///
/// Prints progress on stderr and, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics"} with every metric
/// the run measured. run.py keeps the ones BENCHMARK.json names: the
/// end-to-end metrics for --trace 0, the per-layer ones for --trace 1.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void PrintUsage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: spindle_perfbench --workload "
               "search|fleet|strategy --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-dir DIR]\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) PrintUsage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value();
    } else {
      PrintUsage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) PrintUsage("--workload is required");
  if (o.seconds <= 0) PrintUsage("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opts = ParseArgs(argc, argv);
  Outcome out;
  if (opts.workload == "search") {
    RunSearch(opts, &out);
  } else if (opts.workload == "fleet") {
    RunFleet(opts, &out);
  } else if (opts.workload == "strategy") {
    RunStrategy(opts, &out);
  } else {
    PrintUsage(("unknown workload " + opts.workload).c_str());
  }

  if (opts.trace && !opts.trace_dir.empty()) {
    const std::string path = opts.trace_dir + "/trace-" + opts.workload +
                             "-" + std::to_string(opts.seed) + ".json";
    if (WriteFile(path, out.spans.ChromeJson())) {
      std::fprintf(stderr, "wrote %zu spans to %s\n", out.spans.size(),
                   path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.report.MetricsJson().c_str());
  std::fflush(stdout);
  return 0;
}
