// Schedules of mixing forests on a bank of identical on-chip mixers.
//
// Model (paper section 2.2): every (1:1) mix-split takes one time-cycle in
// one mixer; a mix-split scheduled at cycle t needs both operand droplets
// produced at cycles <= t-1 (or dispensed from reservoirs, which is free).
// A droplet produced at cycle t and consumed at cycle t' occupies one on-chip
// storage unit during cycles t+1 .. t'-1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "forest/task_forest.h"

namespace dmf::sched {

struct PlanScratch;

/// A complete schedule of a TaskForest, stored structure-of-arrays: the two
/// per-task attributes live in parallel flat vectors indexed by
/// forest::TaskId. Most hot sweeps (storage recount, ready-queue release,
/// validation) only read cycles, so splitting halves their memory traffic
/// compared to the previous vector-of-{cycle, mixer} layout.
struct Schedule {
  /// Time-cycle per task, 1-based (paper convention); 0 = unscheduled.
  std::vector<unsigned> cycles;
  /// Mixer index per task, 0-based (reported as M1..Mk).
  std::vector<unsigned> mixers;
  /// Time of completion Tc — the last busy cycle.
  unsigned completionTime = 0;
  /// Number of mixers the scheduler was given (Mc).
  unsigned mixerCount = 0;
  /// Scheme name for reporting ("MMS", "SRS", "OMS").
  std::string scheme;

  [[nodiscard]] std::size_t size() const { return cycles.size(); }

  /// Resets to `n` unscheduled tasks.
  void reset(std::size_t n) {
    cycles.assign(n, 0);
    mixers.assign(n, 0);
  }

  void place(forest::TaskId id, unsigned cycle, unsigned mixer) {
    cycles[id] = cycle;
    mixers[id] = mixer;
  }
};

/// Verifies a schedule against its forest: every task placed exactly once in
/// cycle range, precedence respected (operands strictly earlier), at most one
/// task per (cycle, mixer), mixer ids within range, completionTime correct.
/// Throws std::logic_error naming the violated property.
void validateOrThrow(const forest::TaskForest& forest, const Schedule& s);

/// Algorithm 3 (Counting_Storage_Units): the peak number of droplets parked
/// between production and consumption, i.e. the number of on-chip storage
/// units q the schedule needs.
[[nodiscard]] unsigned countStorage(const forest::TaskForest& forest,
                                    const Schedule& s);
/// As above on the difference array of `scratch`.
[[nodiscard]] unsigned countStorage(const forest::TaskForest& forest,
                                    const Schedule& s, PlanScratch& scratch);

/// Per-cycle storage occupancy (index 1..completionTime; index 0 unused).
[[nodiscard]] std::vector<unsigned> storageProfile(
    const forest::TaskForest& forest, const Schedule& s);

/// Cycles (1-based) at which target droplets are emitted, one entry per
/// target droplet, sorted ascending — the droplet emission sequence of Fig 4.
[[nodiscard]] std::vector<unsigned> emissionCycles(
    const forest::TaskForest& forest, const Schedule& s);

}  // namespace dmf::sched
