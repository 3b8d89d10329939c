// The paper's schedulers: MMS (Algorithm 1), SRS (Algorithm 2), and the
// OMS baseline realized as critical-path (Hu) list scheduling. Each one
// borrows its temporaries from a PlanScratch: the overloads taking one use
// the caller's, the others make a local one.
#pragma once

#include <optional>

#include "forest/task_forest.h"
#include "sched/plan_scratch.h"
#include "sched/schedule.h"

namespace dmf::sched {

/// M_Mixers_Schedule (Algorithm 1): list scheduling with a FIFO ready queue;
/// tasks becoming schedulable in the same cycle enqueue ordered by level
/// ascending ("from level l upwards"). Throws std::invalid_argument if
/// mixers == 0.
[[nodiscard]] Schedule scheduleMMS(const forest::TaskForest& forest,
                                   unsigned mixers);
[[nodiscard]] Schedule scheduleMMS(const forest::TaskForest& forest,
                                   unsigned mixers, PlanScratch& scratch);

/// Storage_Reduced_Scheduling (Algorithm 2): every mix-split runs as late as
/// the mixer bank allows (list scheduling of the reversed precedence DAG,
/// mirrored in time), so droplets are produced just before they are consumed
/// and Type-C nodes — whose stalling parks no droplets — are deferred the
/// most. Mixers idle rather than dispense early; completion can be slightly
/// later than MMS while the storage requirement drops, the trade-off the
/// paper reports. Throws std::invalid_argument if mixers == 0.
[[nodiscard]] Schedule scheduleSRS(const forest::TaskForest& forest,
                                   unsigned mixers);
[[nodiscard]] Schedule scheduleSRS(const forest::TaskForest& forest,
                                   unsigned mixers, PlanScratch& scratch);

/// scheduleSRS under a storage cap: nullopt only when SRS provably stores
/// more than `cap` units, otherwise exactly scheduleSRS(forest, mixers).
/// Both answers start from one SRS prelude. A prelude over the cap first
/// runs the refinement's budgets with their storage caps clipped to `cap`,
/// skipping budgets a failed run already settles (DESIGN.md §15); if every
/// clipped run fails, the refinement is skipped. Throws
/// std::invalid_argument if mixers == 0.
[[nodiscard]] std::optional<Schedule> scheduleSRS(
    const forest::TaskForest& forest, unsigned mixers, unsigned cap);
[[nodiscard]] std::optional<Schedule> scheduleSRS(
    const forest::TaskForest& forest, unsigned mixers, unsigned cap,
    PlanScratch& scratch);

/// The verbatim two-queue pseudo-code of Algorithm 2 (Q_int Type-A/B highest
/// level first, then Q_leaf Type-C lowest level first, greedily every cycle).
/// Exposed for comparison; scheduleSRS dominates it on storage.
[[nodiscard]] Schedule scheduleSRSGreedy(const forest::TaskForest& forest,
                                         unsigned mixers);

/// List scheduling under a hard storage budget: a mix-split is admitted into
/// a cycle only if the droplets parked on chip never exceed `storageCap`
/// units. Consumers of stored droplets (Type-A/B, highest level first) are
/// served before fresh dispense mixes (Type-C); mixers idle when admitting
/// more work would overflow the storage. Throws dmf::InfeasibleError when the
/// cap is too tight to make progress, std::invalid_argument if mixers == 0.
[[nodiscard]] Schedule scheduleStorageCapped(const forest::TaskForest& forest,
                                             unsigned mixers,
                                             unsigned storageCap);

/// Optimal Mix Scheduling stand-in: Hu's algorithm — list scheduling with
/// longest-path-to-emission priority. Optimal for unit-time in-tree
/// precedence (every single-pass mixing tree); a strong heuristic on forest
/// DAGs. Throws std::invalid_argument if mixers == 0.
[[nodiscard]] Schedule scheduleOMS(const forest::TaskForest& forest,
                                   unsigned mixers);
[[nodiscard]] Schedule scheduleOMS(const forest::TaskForest& forest,
                                   unsigned mixers, PlanScratch& scratch);

/// Length of the longest dependency chain — the makespan with unbounded
/// mixers.
[[nodiscard]] unsigned criticalPathLength(const forest::TaskForest& forest);

/// The paper's Mlb: the smallest mixer count whose OMS makespan equals the
/// critical path length (fastest possible completion).
[[nodiscard]] unsigned minimumMixers(const forest::TaskForest& forest);

}  // namespace dmf::sched
