#include "sched/schedule.h"

#include <algorithm>
#include <stdexcept>

#include "obs/scope.h"
#include "sched/plan_scratch.h"

namespace dmf::sched {

using forest::DropletFate;
using forest::kNoTask;
using forest::TaskForest;
using forest::TaskId;

void validateOrThrow(const TaskForest& forest, const Schedule& s) {
  const std::size_t n = forest.taskCount();
  if (s.size() != n || s.mixers.size() != n) {
    throw std::logic_error("Schedule: assignment count mismatch");
  }
  if (s.mixerCount == 0 && n > 0) {
    throw std::logic_error("Schedule: zero mixers");
  }
  const std::vector<TaskId>& depLeft = forest.depLefts();
  const std::vector<TaskId>& depRight = forest.depRights();
  unsigned last = 0;
  for (TaskId id = 0; id < n; ++id) {
    const unsigned cycle = s.cycles[id];
    if (cycle == 0) {
      throw std::logic_error("Schedule: task " + std::to_string(id) +
                             " unscheduled");
    }
    if (s.mixers[id] >= s.mixerCount) {
      throw std::logic_error("Schedule: mixer index out of range");
    }
    for (TaskId dep : {depLeft[id], depRight[id]}) {
      if (dep != kNoTask && s.cycles[dep] >= cycle) {
        throw std::logic_error("Schedule: precedence violated at task " +
                               std::to_string(id));
      }
    }
    last = std::max(last, cycle);
  }
  // (cycle, mixer) slot uniqueness via one sort over packed keys instead of
  // a std::set — validation runs after every scheduling attempt.
  std::vector<std::uint64_t> slots(n);
  for (TaskId id = 0; id < n; ++id) {
    slots[id] = (std::uint64_t{s.cycles[id]} << 32) | s.mixers[id];
  }
  std::sort(slots.begin(), slots.end());
  const auto dup = std::adjacent_find(slots.begin(), slots.end());
  if (dup != slots.end()) {
    throw std::logic_error(
        "Schedule: two mix-splits share cycle " +
        std::to_string(static_cast<unsigned>(*dup >> 32)) + " mixer " +
        std::to_string(static_cast<unsigned>(*dup & 0xFFFFFFFFu)));
  }
  if (last != s.completionTime) {
    throw std::logic_error("Schedule: completionTime " +
                           std::to_string(s.completionTime) +
                           " != last busy cycle " + std::to_string(last));
  }
}

namespace {

/// Fills `delta` with the storage occupancy difference array: +1 the cycle
/// after a consumed droplet is produced, -1 the cycle it is consumed. The
/// prefix sum at cycle t is the droplet count parked in storage during t,
/// identical to the old per-gap increment loop but O(n + T) instead of
/// O(sum of gap lengths).
void storageDeltas(const TaskForest& forest, const Schedule& s,
                   std::vector<std::int32_t>& delta) {
  delta.assign(s.completionTime + 2, 0);
  const std::vector<TaskId>& consumers = forest.outConsumers();
  const std::size_t n = forest.taskCount();
  for (std::size_t id = 0; id < n; ++id) {
    const unsigned produced = s.cycles[id];
    for (unsigned slot = 0; slot < 2; ++slot) {
      const TaskId consumer = consumers[2 * id + slot];
      if (consumer == kNoTask) continue;
      const unsigned consumed = s.cycles[consumer];
      if (consumed > produced + 1) {
        ++delta[produced + 1];
        --delta[consumed];
      }
    }
  }
}

}  // namespace

std::vector<unsigned> storageProfile(const TaskForest& forest,
                                     const Schedule& s) {
  std::vector<std::int32_t> delta;
  storageDeltas(forest, s, delta);
  std::vector<unsigned> storage(s.completionTime + 1, 0);
  std::int32_t occupancy = 0;
  for (unsigned t = 0; t <= s.completionTime; ++t) {
    occupancy += delta[t];
    storage[t] = static_cast<unsigned>(occupancy);
  }
  return storage;
}

unsigned countStorage(const TaskForest& forest, const Schedule& s) {
  PlanScratch scratch;
  return countStorage(forest, s, scratch);
}

unsigned countStorage(const TaskForest& forest, const Schedule& s,
                      PlanScratch& scratch) {
  std::vector<std::int32_t>& delta = scratch.delta;
  storageDeltas(forest, s, delta);
  std::int32_t occupancy = 0;
  std::int32_t peak = 0;
  for (unsigned t = 0; t <= s.completionTime; ++t) {
    occupancy += delta[t];
    peak = std::max(peak, occupancy);
  }
  obs::gaugeMax("sched.storage_high_water", static_cast<unsigned>(peak));
  return static_cast<unsigned>(peak);
}

std::vector<unsigned> emissionCycles(const TaskForest& forest,
                                     const Schedule& s) {
  std::vector<unsigned> cycles;
  const std::vector<std::uint8_t>& fates = forest.outFates();
  const std::size_t n = forest.taskCount();
  for (std::size_t id = 0; id < n; ++id) {
    for (unsigned slot = 0; slot < 2; ++slot) {
      if (fates[2 * id + slot] ==
          static_cast<std::uint8_t>(DropletFate::kTarget)) {
        cycles.push_back(s.cycles[id]);
      }
    }
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

}  // namespace dmf::sched
