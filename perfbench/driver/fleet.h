// The fleet_kill scenario, shared by its measured and traced runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "fleet/dispatcher.h"

namespace perfbench {

/// wfq over defaultFleet(4): one weight-8 PCR user (2:1:1:1:1:1:9, demand
/// 256, cap 3), 8 seeded light users, and chip 1 killed mid-run (at half the
/// makespan of the same dispatch without the kill).
struct FleetScenario {
  std::vector<dmf::fleet::UserStream> users;
  dmf::fleet::DispatcherOptions options;
  /// The same dispatch without the kill.
  dmf::fleet::FleetResult unkilled;
  /// Per-user plans computed directly with planStreaming, serialized.
  std::vector<std::string> referencePlans;
};

/// Builds the scenario for a seed (this is the workload's set-up work).
/// `jobs` is the dispatcher's planning fan-out.
[[nodiscard]] FleetScenario makeFleetScenario(std::uint64_t seed,
                                              unsigned jobs);

/// Output check of one dispatch: per-user plans equal the direct reference
/// and the unkilled run's plans, every plan passes checkStreamingPlan, and
/// chip busy time equals user service. Problems mark `result` incorrect;
/// returns false when any was found.
bool checkFleetResult(const FleetScenario& scenario,
                      const dmf::fleet::FleetResult& fleet, RunResult& result);

}  // namespace perfbench
