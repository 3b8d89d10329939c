// Simulated-annealing placement: optimizes module positions against a
// droplet-flow profile, standing in for the routing-aware resource
// allocation of the paper's reference [21] (used to produce Fig. 5).
#pragma once

#include <vector>

#include "chip/executor.h"
#include "chip/layout.h"

namespace dmf::chip {

/// Pairwise droplet-flow weights between modules: flow[a][b] = number of
/// droplet transports between modules a and b in a reference execution.
using FlowMatrix = std::vector<std::vector<double>>;

/// Builds the flow matrix of an execution trace (symmetric, one count per
/// move).
[[nodiscard]] FlowMatrix flowFromTrace(const ExecutionTrace& trace,
                                       std::size_t moduleCount);

/// Configuration of the annealer.
struct AnnealOptions {
  /// Proposed relocations.
  unsigned iterations = 20000;
};

/// Deterministic simulated annealing over module origins. The objective is
/// sum(flow[a][b] * manhattan(port_a, port_b)); legality (in-array,
/// non-overlap) is preserved by construction. The walk is seeded with 1,
/// starts at a temperature of 0.2 x the initial cost and cools by 0.95
/// every `iterations / 100` steps. Returns the best layout found (never
/// worse than the input under the objective).
[[nodiscard]] Layout annealPlacement(const Layout& initial,
                                     const FlowMatrix& flow,
                                     const AnnealOptions& options = {});

/// The annealer's objective on a layout (exposed for tests and reporting).
[[nodiscard]] double placementCost(const Layout& layout,
                                   const FlowMatrix& flow);

}  // namespace dmf::chip
