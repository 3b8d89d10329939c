// The reusable workspace of one planning call. Every scheduler and the
// storage counter borrow their temporaries from a PlanScratch the caller
// owns, so a scheduling run pays only for its own forest, and the
// workspace's memory goes away with the call that made it (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "forest/task_forest.h"
#include "sched/schedule.h"

namespace dmf::sched {

namespace detail {

/// The list-scheduling driver's bookkeeping (detail::runListScheduler).
struct ListScratch {
  std::vector<std::uint8_t> pending;
  /// The tasks that became schedulable this cycle, and those this cycle
  /// releases, which become schedulable the next one.
  std::vector<forest::TaskId> arrivals;
  std::vector<forest::TaskId> released;
  std::vector<forest::TaskId> batch;
  /// Arrival slots emptied by runs on this scratch, over its lifetime: two
  /// when a run starts and one per cycle it completes.
  std::uint64_t slotsCleared = 0;
};

/// The storage of one bucketed ready queue (detail::BucketQueue): one id
/// bitset per priority class, a summary bitset per class marking its
/// non-empty words, and a mask marking the non-empty classes. Every bit is
/// clear whenever `size` is 0, so a drained queue is reused without clearing.
struct BucketScratch {
  std::vector<std::uint64_t> bits;
  std::vector<std::uint64_t> summary;
  std::vector<std::uint64_t> classMask;
  std::size_t size = 0;
};

/// The ready queues of the list-scheduling policies: MMS's FIFO, the
/// verbatim Algorithm 2's two queues, and the one queue of OMS and of the
/// just-in-time pass.
struct QueueScratch {
  std::vector<forest::TaskId> fifo;
  BucketScratch qInt;
  BucketScratch qLeaf;
  BucketScratch ranked;
};

/// SRS's just-in-time reverse pass.
struct JitScratch {
  std::vector<unsigned> revColevel;
  std::vector<forest::TaskId> roots;  // the reversed DAG's sources
  Schedule reversed;
  std::vector<unsigned> used;
};

/// The storage-capped runs: one SRS refinement runs one capped simulation
/// per distinct admission budget over the same forest and seed.
struct CappedScratch {
  /// The seed schedule's cycles: the service order of every capped run.
  std::vector<unsigned> seedCycles;
  /// The cycle-1 ready list every run starts from: the tasks with no
  /// predecessor, keyed (seed cycle, id) and sorted. Built once per seed.
  std::vector<std::uint64_t> initialReady;
  /// The ready consumers of stored droplets, sorted ascending by packed
  /// key. Only cycle-1 tasks lack a mix-split operand, so every later
  /// arrival lands here, and the ready producers are always a suffix of
  /// `initialReady`, read through a cursor.
  std::vector<std::uint64_t> ready;
  std::vector<std::uint64_t> arrivalKeys;
  std::vector<std::uint64_t> merged;
  /// Work of the capped runs on this scratch, over its lifetime: ready
  /// entries the service passes read, tasks they took, and cycles they ran.
  std::uint64_t readyVisits = 0;
  std::uint64_t tasksTaken = 0;
  std::uint64_t cyclesRun = 0;
  Schedule out;  // the run's result; copied out on adoption
  /// Peak droplets parked in one cycle (carried - consumedNow) over the run.
  std::int64_t peak = 0;
  /// The largest admission pressure the run let through and the smallest it
  /// turned away. Every budget in [passedMax, blockedMin) answers each of
  /// the run's pressure tests the same way, so it follows the same
  /// trajectory.
  std::int64_t passedMax = 0;
  std::int64_t blockedMin = 0;

  /// The SRS refinement's memo: one entry per distinct admission budget
  /// (cap + window in 64 bits, so no window wraps it), sorted by budget — at
  /// most six per scanned cap, never sized by the mixer count. Only
  /// successful runs keep a schedule, in the first `winCount` of `wins`.
  struct Run {
    static constexpr std::size_t kFailed = static_cast<std::size_t>(-1);
    std::int64_t peak = 0;
    std::size_t win = kFailed;  // index into wins
  };
  std::vector<std::pair<std::uint64_t, Run>> runs;
  std::vector<Schedule> wins;
  std::size_t winCount = 0;

  /// Copies `out` into the next slot of `wins` and returns its index. A
  /// slot left by an earlier refinement keeps its buffers.
  std::size_t keepOut() {
    if (winCount == wins.size()) {
      wins.push_back(out);
    } else {
      wins[winCount] = out;
    }
    return winCount++;
  }

  /// The clipped scan's record of failed runs: each one settles the later
  /// budgets in [passedMax, blockedMin).
  struct Settled {
    std::int64_t passedMax = 0;
    std::int64_t blockedMin = 0;
  };
  std::vector<Settled> settled;
};

}  // namespace detail

/// Scratch for the schedulers, countStorage and the forest of
/// engine::evaluatePass. Runs never nest, so one scratch serves one planning call
/// from start to end; it is not thread-safe, so concurrent calls each own
/// one. Reusing a scratch changes no result, only what is allocated.
struct PlanScratch {
  /// The forest of the pass being evaluated (engine::evaluatePass), rebuilt
  /// in place for each pass.
  std::optional<forest::TaskForest> forest;
  detail::ListScratch list;
  detail::QueueScratch queues;
  detail::JitScratch jit;
  detail::CappedScratch capped;
  /// The SRS prelude's MMS and verbatim Algorithm 2 schedules.
  Schedule candidate;
  /// countStorage's occupancy difference array.
  std::vector<std::int32_t> delta;

  /// Arrival slots the list-scheduling runs on this scratch emptied: a run
  /// of T cycles empties T + 2 of them, however long the runs before it
  /// were.
  [[nodiscard]] std::uint64_t arrivalSlotsCleared() const {
    return list.slotsCleared;
  }
};

}  // namespace dmf::sched
