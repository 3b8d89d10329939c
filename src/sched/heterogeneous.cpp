#include "sched/heterogeneous.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>

#include "sched/list_scheduler.h"

namespace dmf::sched {

using forest::kNoTask;
using forest::TaskForest;
using forest::TaskId;

MixerBank uniformBank(unsigned mixers, unsigned cycles) {
  return MixerBank{std::vector<unsigned>(mixers, cycles)};
}

Schedule scheduleHeterogeneous(const TaskForest& forest,
                               const MixerBank& bank) {
  if (bank.size() == 0) {
    throw std::invalid_argument("scheduleHeterogeneous: empty mixer bank");
  }
  for (unsigned cycles : bank.cyclesPerMix) {
    if (cycles == 0) {
      throw std::invalid_argument(
          "scheduleHeterogeneous: zero-cycle mixer duration");
    }
  }
  Schedule s;
  s.mixerCount = static_cast<unsigned>(bank.size());
  s.scheme = "HET";
  const std::size_t n = forest.taskCount();
  s.reset(n);
  if (n == 0) return s;

  const std::vector<TaskId>& consumers = forest.outConsumers();

  // Longest remaining dependency chain first (Hu priority), ties by id.
  const std::vector<unsigned> colevel = detail::computeColevels(forest);
  const unsigned longest = *std::max_element(colevel.begin(), colevel.end());

  const std::vector<std::uint8_t>& initialPending = forest.initialPending();
  std::vector<unsigned> pending(initialPending.begin(), initialPending.end());
  std::map<unsigned, std::vector<TaskId>> arrivals;
  // Earliest cycle a task may start: one past the latest operand finish
  // (operands can finish out of scheduling order on a mixed bank).
  std::vector<unsigned> readyAt(n, 1);
  for (TaskId id = 0; id < n; ++id) {
    if (pending[id] == 0) arrivals[1].push_back(id);
  }

  // Mixers ordered fastest-first; freeAt[m] = first idle cycle.
  std::vector<unsigned> order(bank.size());
  for (unsigned m = 0; m < bank.size(); ++m) order[m] = m;
  std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return bank.cyclesPerMix[a] < bank.cyclesPerMix[b];
  });
  std::vector<unsigned> freeAt(bank.size(), 1);

  detail::BucketScratch storage;
  detail::BucketQueue ready(storage, longest, n);
  std::size_t remaining = n;
  for (unsigned t = 1; remaining > 0; ++t) {
    const auto it = arrivals.find(t);
    if (it != arrivals.end()) {
      for (TaskId id : it->second) {
        ready.push(longest - colevel[id], id);
      }
      arrivals.erase(it);
    }
    for (unsigned m : order) {
      if (ready.empty()) break;
      if (freeAt[m] > t) continue;
      const TaskId id = ready.pop();
      s.place(id, t, m);
      const unsigned finish = t + bank.cyclesPerMix[m] - 1;
      freeAt[m] = finish + 1;
      s.completionTime = std::max(s.completionTime, finish);
      --remaining;
      for (unsigned slot = 0; slot < 2; ++slot) {
        const TaskId consumer = consumers[2 * id + slot];
        if (consumer == kNoTask) continue;
        readyAt[consumer] = std::max(readyAt[consumer], finish + 1);
        if (--pending[consumer] == 0) {
          arrivals[readyAt[consumer]].push_back(consumer);
        }
      }
    }
    if (ready.empty() && remaining > 0 && arrivals.empty()) {
      throw std::logic_error("scheduleHeterogeneous: stalled");
    }
  }
  return s;
}

unsigned finishCycle(const Schedule& s, const MixerBank& bank, TaskId id) {
  return s.cycles[id] + bank.cyclesPerMix[s.mixers[id]] - 1;
}

void validateHeterogeneous(const TaskForest& forest, const Schedule& s,
                           const MixerBank& bank) {
  if (s.size() != forest.taskCount()) {
    throw std::logic_error("validateHeterogeneous: assignment count mismatch");
  }
  // Per-mixer occupancy intervals must be disjoint.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> busy(bank.size());
  const std::vector<TaskId>& depLeft = forest.depLefts();
  const std::vector<TaskId>& depRight = forest.depRights();
  for (TaskId id = 0; id < forest.taskCount(); ++id) {
    const unsigned cycle = s.cycles[id];
    const unsigned mixer = s.mixers[id];
    if (cycle == 0) {
      throw std::logic_error("validateHeterogeneous: unscheduled task");
    }
    if (mixer >= bank.size()) {
      throw std::logic_error("validateHeterogeneous: mixer out of range");
    }
    busy[mixer].push_back({cycle, finishCycle(s, bank, id)});
    for (TaskId dep : {depLeft[id], depRight[id]}) {
      if (dep != kNoTask && finishCycle(s, bank, dep) >= cycle) {
        throw std::logic_error(
            "validateHeterogeneous: operand not ready at task " +
            std::to_string(id));
      }
    }
  }
  for (auto& intervals : busy) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].first <= intervals[i - 1].second) {
        throw std::logic_error(
            "validateHeterogeneous: overlapping mixes on one mixer");
      }
    }
  }
}

unsigned countStorageHeterogeneous(const TaskForest& forest,
                                   const Schedule& s, const MixerBank& bank) {
  // Difference array over cycles (+1 the cycle after the producing mix
  // finishes, -1 at consumption), prefix-summed for the peak — identical to
  // the old per-gap increment loop in O(n + T).
  std::vector<std::int32_t> delta(s.completionTime + 2, 0);
  const std::vector<TaskId>& consumers = forest.outConsumers();
  for (TaskId id = 0; id < forest.taskCount(); ++id) {
    const unsigned produced = finishCycle(s, bank, id);
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
  std::int32_t occupancy = 0;
  std::int32_t peak = 0;
  for (std::size_t t = 0; t < delta.size(); ++t) {
    occupancy += delta[t];
    peak = std::max(peak, occupancy);
  }
  return static_cast<unsigned>(peak);
}

}  // namespace dmf::sched
