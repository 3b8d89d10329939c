// Genetic-algorithm scheduling (after Su & Chakrabarty's GA synthesis, the
// paper's reference [22]) — an alternative to the deterministic MMS/SRS/OMS
// engines, used by the scheduler-ablation bench.
//
// Chromosomes are random-key priority vectors; decoding is list scheduling
// with the keys as priorities, so every individual is a feasible schedule by
// construction. Fitness minimizes completion time first and storage units
// second.
//
// Fitness evaluation is the hot loop (population × generations full forest
// decodes): chromosomes are bred from the seeded RNG, then scored with one
// reusable decode scratch and a chromosome-hash memo cache. Scoring is
// serial: a thread-pool fan-out of it measured no faster on the Table-2/3
// forests (DESIGN.md §10).
#pragma once

#include <cstdint>

#include "forest/task_forest.h"
#include "sched/schedule.h"

namespace dmf::sched {

/// GA tuning knobs. Defaults converge on forest sizes up to a few hundred
/// tasks in well under a second. Parents are picked by 3-way tournament,
/// the best two individuals carry over unchanged (elitism), and each child
/// gene is resampled with probability 0.05.
struct GaOptions {
  std::uint64_t seed = 1;
  unsigned population = 32;
  unsigned generations = 60;
};

/// Runs the GA and returns the best schedule found (never worse than the
/// plain critical-path seed individual). Deterministic for a fixed seed.
/// Throws std::invalid_argument if mixers == 0 or the population does not
/// exceed the two elites.
[[nodiscard]] Schedule scheduleGA(const forest::TaskForest& forest,
                                  unsigned mixers,
                                  const GaOptions& options = {});

}  // namespace dmf::sched
