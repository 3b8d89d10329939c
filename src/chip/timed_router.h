// Concurrent droplet routing in the time domain.
//
// The plain Router prices a single droplet's path on an empty array. During
// a real transport phase several droplets move at once, and electrowetting
// imposes *fluidic constraints* (Su & Chakrabarty): two non-merging droplets
// must never come within one cell of each other, neither in the same step
// (static constraint) nor across consecutive steps (dynamic constraint —
// else they could merge while one electrode hands off to the next).
//
// TimedRouter routes a whole phase with prioritized space-time A*: droplets
// reserve (cell, step) slots with a one-cell halo; later droplets route
// around or wait. When an ordering fails, priorities rotate and the phase is
// retried.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chip/layout.h"

namespace dmf::chip {

/// One droplet that must travel during a transport phase.
struct PhaseMove {
  Cell from;
  Cell to;
  /// Caller tag carried through to the result (e.g. index into a trace).
  std::uint32_t tag = 0;
};

/// The routed trajectory of one droplet: position per step, index 0 =
/// departure position. Trailing entries equal `to` once the droplet arrived.
struct Trajectory {
  std::uint32_t tag = 0;
  std::vector<Cell> positions;
  /// Steps actually spent moving or waiting before arrival.
  [[nodiscard]] unsigned arrivalStep() const;
  /// Electrodes actuated: cells entered after the start.
  [[nodiscard]] unsigned actuations() const;
};

/// Result of routing one phase.
struct PhaseResult {
  std::vector<Trajectory> trajectories;
  /// Steps until the last droplet arrived.
  unsigned makespan = 0;
  /// Total electrodes actuated across all trajectories.
  std::uint64_t totalActuations = 0;
};

/// Options for the timed router.
struct TimedRouterOptions {
  /// Re-verify every routed phase with the O(n²·makespan) checkInterference
  /// sweep before returning it. The router's per-step occupancy index already
  /// enforces both fluidic constraints during the search, so the sweep is a
  /// belt-and-braces audit: leave it on in tests and debugging, switch it off
  /// on benchmark/throughput paths.
  bool verifyInterference = true;
};

/// Routes sets of simultaneous droplet moves under fluidic constraints.
class TimedRouter {
 public:
  explicit TimedRouter(const Layout& layout, TimedRouterOptions options = {});

  /// Routes one phase. Module cells are obstacles except each droplet's own
  /// endpoint modules. Throws std::invalid_argument for out-of-array
  /// endpoints and chip::ChipError (a std::runtime_error carrying the
  /// failing step and droplet tag) when no interference-free routing is
  /// found within 128 steps (the A* horizon) in any of 9 priority orders
  /// (the longest-first order and 8 rotations of it).
  [[nodiscard]] PhaseResult routePhase(std::vector<PhaseMove> moves) const;

  /// Verifies that a set of trajectories obeys both fluidic constraints and
  /// stays on traversable cells; throws std::logic_error naming the first
  /// violation (used by tests and by routePhase in debug paths).
  void checkInterference(const std::vector<Trajectory>& trajectories) const;

 private:
  const Layout* layout_;
  TimedRouterOptions options_;
};

/// Renders a routed phase as ASCII frames (one grid per step, droplets shown
/// as letters) — handy for demos and debugging.
[[nodiscard]] std::string renderPhase(const Layout& layout,
                                      const PhaseResult& result);

}  // namespace dmf::chip
