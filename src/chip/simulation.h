// Full space-time simulation of an executed schedule: every droplet
// transport of every cycle is routed concurrently under fluidic constraints,
// yielding a physically consistent actuation count (the BFS-priced trace is
// a lower bound; this is the realizable figure).
#pragma once

#include <cstdint>
#include <vector>

#include "chip/executor.h"
#include "chip/timed_router.h"

namespace dmf::chip {

/// One simulated transport phase (the inter-cycle window before `cycle`).
struct SimulatedPhase {
  unsigned cycle = 0;
  PhaseResult routing;
};

/// Aggregate result of simulating a whole trace.
struct SimulationResult {
  std::vector<SimulatedPhase> phases;
  /// Electrodes actuated over all phases (>= the trace's BFS total).
  std::uint64_t totalActuations = 0;
  /// Longest single phase in routing steps.
  unsigned maxPhaseMakespan = 0;
  /// Sum of phase makespans — the transport time budget of the schedule.
  std::uint64_t totalSteps = 0;
};

/// Routes every move of `trace` concurrently, one phase per cycle.
/// Throws chip::ChipError (a std::runtime_error carrying phase "simulate"
/// and the failing mix cycle) when some phase is unroutable.
[[nodiscard]] SimulationResult simulateTrace(const Layout& layout,
                                             const ExecutionTrace& trace,
                                             TimedRouterOptions options = {});

}  // namespace dmf::chip
