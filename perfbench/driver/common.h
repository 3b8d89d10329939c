// Shared pieces of the benchmark driver: clocks, sample statistics, seeded
// draws and the result record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `seconds` after `start`.
inline Clock::time_point after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  template <class Rng>
  std::size_t operator()(Rng& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the result (tables, diagnostics).
  std::vector<std::string> notes;
  /// The daemon's `stats` op reply at the end of a served run.
  std::string daemonStats;
  /// A traced run's untraced wire-phase figures, printed beside its
  /// per-layer table.
  std::vector<Metric> endToEnd;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records an output mismatch: the run stays countable but is incorrect.
  void mismatch(const std::string& what) {
    correct = false;
    if (notes.size() < 64) notes.push_back("MISMATCH " + what);
  }
};

/// One equal slice of a measured run.
struct Window {
  double seconds = 0.0;
  std::vector<double> latencyMs;  ///< one per request completed in the slice
  double cpuMs = 0.0;             ///< CPU the measured process used in it
};

/// Width of the measurement windows: one second on cold_plan, whose
/// requests take milliseconds, half a second elsewhere.
inline double windowSeconds(const std::string& workload) {
  return workload == "cold_plan" ? 1.0 : 0.5;
}

/// Adds latency_p50_ms and cpu_ms_per_kreq from a run cut into equal
/// windows. latency_p50_ms is the mean over the windows of each window's
/// median; CPU per request is a total over the run. The speed of some of
/// this code flips between two levels every second or so (fleet_kill's
/// dispatch takes either ~6 or ~10 ms), and a mean or total averages the
/// flips, where a median over the run would follow whichever level most of
/// it caught. The throughput is printed, not reported: a closed loop's is
/// its latency seen from the other side, and it spread more between runs.
inline void addWindowed(const std::vector<Window>& windows, RunResult& result) {
  double p50Sum = 0.0;
  double p50Count = 0.0;
  double requests = 0.0;
  double seconds = 0.0;
  double cpuMs = 0.0;
  for (const Window& w : windows) {
    seconds += w.seconds;
    cpuMs += w.cpuMs;
    if (w.latencyMs.empty()) continue;
    requests += static_cast<double>(w.latencyMs.size());
    p50Sum += quantile(w.latencyMs, 0.50);
    p50Count += 1.0;
  }
  result.add("latency_p50_ms", p50Count > 0.0 ? p50Sum / p50Count : 0.0, "ms");
  result.add("cpu_ms_per_kreq", cpuMs / std::max(1.0, requests) * 1000.0, "ms");
  result.notes.push_back("throughput: " +
                         std::to_string(seconds > 0.0 ? requests / seconds : 0.0) +
                         " requests/s over " + std::to_string(windows.size()) +
                         " windows");
}

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The `dmfstream` binary to spawn as the daemon.
  std::string daemon;
  /// Scratch directory inside the checkout for this run (cache dirs, logs,
  /// traces); created by the caller, removed by the caller.
  std::string workDir;
  /// When non-empty, the generated request lines are written here so the
  /// run replays through `dmfstream serve --drive FILE`.
  std::string requestsOut;
  /// Where a traced run writes its Chrome trace JSON (empty = not written).
  std::string traceOut;
};

}  // namespace perfbench
