// The closed-loop load engine and the response tally, shared by the
// measured served runs (over TCP) and the traced run (in-process handle()).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

/// What the load threads observed. Responses are kept once per distinct
/// bytes (with a count) and checked after the run, so the check is untimed
/// and still covers every response.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t transportFailed = 0;
  std::vector<double> latencyMs;
  /// When each latency sample's response arrived (closed loop only).
  std::vector<Clock::time_point> doneAt;
  /// Request lines in send order (only when logging requests).
  std::vector<std::string> lines;

  struct Seen {
    std::string line;  ///< one request line for the key (for the reference)
    std::vector<std::pair<std::string, std::uint64_t>> responses;
  };
  std::unordered_map<std::string, Seen> byKey;

  void record(const Request& request, const std::string& response);
  void merge(Tally&& other);
};

/// Compares every recorded response with the in-process reference of its
/// canonical request and adds attempted/failed to `result`. A mismatch, a
/// transport failure, or an error other than `infeasible` fails the
/// request.
void checkTally(const Tally& tally, ReferenceSet& refs, RunResult& result);

/// Sends one request line and receives its response; false on failure.
using Exchange = std::function<bool(const std::string& line,
                                    std::string& response)>;

/// A closed loop over `lanes` threads until `deadline`; `makeExchange(lane)`
/// is called on the lane's thread.
[[nodiscard]] Tally runClosedLoop(
    const std::function<Exchange(unsigned lane)>& makeExchange, unsigned lanes,
    Clock::time_point deadline, RequestStream& stream, bool logLines);

/// Cuts a closed-loop tally into `cpuAtBoundary.size() - 1` windows of
/// `seconds` from `start`, by response arrival; window k's CPU is
/// cpuAtBoundary[k + 1] - cpuAtBoundary[k].
[[nodiscard]] std::vector<Window> windowsOf(const Tally& tally,
                                            Clock::time_point start,
                                            double seconds,
                                            const std::vector<double>& cpuAtBoundary);

/// Connections (and load threads) of a workload's closed loop.
[[nodiscard]] unsigned closedLanes(const std::string& workload);

}  // namespace perfbench
