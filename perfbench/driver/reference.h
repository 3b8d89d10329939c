// The output check: every daemon response is compared byte for byte with a
// reference computed in-process for its canonical request, and every
// distinct plan is re-validated with check::checkStreamingPlan.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "engine/streaming.h"

namespace perfbench {

/// What the daemon must answer for one canonical request.
struct Expected {
  bool ok = false;
  /// Dumped plan JSON when ok; the whole error response otherwise.
  std::string bytes;
  /// Error taxonomy of a failed outcome (infeasible|request|internal).
  std::string kind;
};

/// The in-process equivalent of the daemon's computation for one request
/// line (planStreaming / planStreamingOptimized, serial, then
/// engine::toJson(plan).dump() or the error response), plus
/// checkStreamingPlan on the plan. Oracle failures go to `failures`.
[[nodiscard]] Expected computeExpected(const std::string& line,
                                       std::vector<std::string>& failures);

class ReferenceSet {
 public:
  /// Registers a request line under its canonical key (once per key).
  void add(const std::string& key, const std::string& line);

  /// Computes every registered reference over `threads` threads. Oracle
  /// failures mark `result` incorrect.
  void compute(unsigned threads, RunResult& result);

  /// True when `response` is exactly what the daemon must send for `key`
  /// (any of the plan sources cache|planned|coalesced).
  [[nodiscard]] bool matches(const std::string& key,
                             const std::string& response) const;

  /// The expected plan response kind for `key` ("ok" or the error kind).
  [[nodiscard]] const Expected& expected(const std::string& key) const {
    return expected_.at(key);
  }
  [[nodiscard]] std::size_t size() const { return lines_.size(); }

 private:
  std::unordered_map<std::string, std::string> lines_;
  std::unordered_map<std::string, Expected> expected_;
};

/// Splits a plan response into its source tag ("cache", "planned",
/// "coalesced") or "" for an error response.
[[nodiscard]] std::string responseSource(const std::string& response);

}  // namespace perfbench
