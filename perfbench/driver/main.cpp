// perfbench_driver: runs one workload of the dmfstream benchmark and prints
// its metrics, ending with one JSON result line.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --daemon PATH --work-dir DIR
//                    [--requests-out FILE] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// replay and reports the per-layer metrics. perfbench/run.py builds this
// program and calls it; see there for the workloads.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "report/json.h"
#include "runs.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void printTable(const char* title,
                const std::vector<perfbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

RunOptions parseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument: " + flag);
    }
    args[flag.substr(2)] = argv[++i];
  }
  auto need = [&](const char* name) {
    const auto it = args.find(name);
    if (it == args.end()) {
      throw std::invalid_argument(std::string("missing --") + name);
    }
    return it->second;
  };
  RunOptions options;
  options.workload = need("workload");
  options.seed = std::stoull(need("seed"));
  options.seconds = std::stod(need("seconds"));
  options.trace = need("trace") == "1";
  options.daemon = need("daemon");
  options.workDir = need("work-dir");
  if (args.count("requests-out") != 0) options.requestsOut = args["requests-out"];
  if (args.count("trace-out") != 0) options.traceOut = args["trace-out"];
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const RunOptions options = parseArgs(argc, argv);
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
      std::fprintf(stderr, "perfbench: refusing a %s build (need Release)\n",
                   PERFBENCH_BUILD_TYPE);
      return 2;
    }
    std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d | nproc %u, "
                "build %s, compiler %s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

    RunResult result;
    if (options.trace) {
      result = perfbench::runTraced(options);
    } else if (options.workload == "cold_plan") {
      result = perfbench::runColdPlan(options);
    } else if (options.workload == "hot_serve") {
      result = perfbench::runHotServe(options);
    } else if (options.workload == "fleet_kill") {
      result = perfbench::runFleetKill(options);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }

    for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
    if (!result.endToEnd.empty()) {
      printTable("end-to-end (untraced wire phase)", result.endToEnd);
    }
    printTable(options.trace ? "per-layer" : "end-to-end", result.metrics);
    std::printf("requests: attempted %llu, failed %llu, error_rate %.6g, %s\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted),
                result.correct ? "outputs correct" : "OUTPUTS INCORRECT");

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, result.attempted));
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const perfbench::Metric& m = result.metrics[i];
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::fflush(stdout);
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
