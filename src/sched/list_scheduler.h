// The sched layer's one unit-time list-scheduling driver (internal, not part
// of the public sched API). MMS, the verbatim Algorithm 2, OMS, SRS's
// just-in-time reverse pass, the storage-capped runs and GA decoding all run
// on it; they differ only in the DAG direction and in the ready-queue policy.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "forest/task_forest.h"
#include "sched/plan_scratch.h"
#include "sched/schedule.h"

namespace dmf::sched::detail {

// Ready queues are binary min-heaps over unique keys: packed 64-bit keys
// (priority in the high half, TaskId in the low half) or (key, TaskId)
// pairs. Unique keys make the pop sequence the sorted key order.
constexpr std::uint64_t kIdMask = 0xFFFFFFFFull;

// The key is taken as the heap's element type, never deduced from it, so
// `unsigned long long` priorities push onto a `std::uint64_t` heap.
template <typename Key>
void heapPush(std::vector<Key>& heap,
              typename std::vector<Key>::value_type key) {
  heap.push_back(std::move(key));
  std::push_heap(heap.begin(), heap.end(), std::greater<>());
}

template <typename Key>
Key heapPop(std::vector<Key>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>());
  Key key = std::move(heap.back());
  heap.pop_back();
  return key;
}

inline forest::TaskId taskOf(std::uint64_t key) {
  return static_cast<forest::TaskId>(key & kIdMask);
}

inline forest::TaskId taskOf(const std::pair<double, forest::TaskId>& key) {
  return key.second;
}

/// colevel(v) = length of the longest dependency chain starting at v
/// (inclusive): Hu's priority.
[[nodiscard]] std::vector<unsigned> computeColevels(
    const forest::TaskForest& forest);

/// The forward DAG: a task's successors are the consumers of its two output
/// droplets (forest::kNoTask where a droplet is emitted or wasted).
inline auto consumersOf(const forest::TaskForest& forest) {
  const forest::TaskId* consumers = forest.outConsumers().data();
  return [consumers](forest::TaskId id) {
    return std::array<forest::TaskId, 2>{consumers[2 * id],
                                         consumers[2 * id + 1]};
  };
}

/// A ready queue popping the smallest key first, at most `capacity` a cycle.
/// The heap is the caller's, so a hot caller reuses its allocation.
template <typename Key, typename KeyOf>
class HeapPolicy {
 public:
  HeapPolicy(std::vector<Key>& heap, KeyOf keyOf)
      : heap_(&heap), keyOf_(std::move(keyOf)) {
    heap_->clear();
  }

  void add(const std::vector<forest::TaskId>& arrivals) {
    for (const forest::TaskId id : arrivals) heapPush(*heap_, keyOf_(id));
  }

  bool take(unsigned /*t*/, unsigned capacity,
            std::vector<forest::TaskId>& out) {
    while (capacity-- > 0 && !heap_->empty()) {
      out.push_back(taskOf(heapPop(*heap_)));
    }
    return true;
  }

 private:
  std::vector<Key>* heap_;
  KeyOf keyOf_;
};

/// Unit-time list scheduling into `out`: a task becomes schedulable the
/// cycle after its last predecessor runs. `pendingCounts[id]` is the number
/// of predecessor releases task `id` waits for; `successors(id)` names the
/// two tasks it releases (kNoTask for none), so the forward DAG and the
/// reversed one run alike. Each cycle the policy receives the tasks that
/// became schedulable (add) and yields at most `capacity` of them to run
/// (take); take returns false to abandon the run. Batch position k is the
/// mixer index (paper Algorithms 1/2). Returns false on an abandoned run or
/// a stall: a cycle that runs nothing releases nothing and leaves the
/// policy's queue and state as they were, so no later cycle runs anything.
/// A task released in cycle t is schedulable at t + 1, so the run keeps two
/// arrival slots, the current cycle's and the next one's, and swaps them
/// each cycle: its cost never depends on how long earlier runs on the same
/// scratch were.
template <typename Successors, typename Policy>
bool runListScheduler(ListScratch& scratch,
                      const std::vector<std::uint8_t>& pendingCounts,
                      Successors successors, unsigned capacity,
                      Policy& policy, Schedule& out) {
  const std::size_t n = pendingCounts.size();
  out.reset(n);
  out.completionTime = 0;
  std::vector<unsigned>& pending = scratch.pending;
  std::vector<forest::TaskId>& arrivals = scratch.arrivals;
  std::vector<forest::TaskId>& released = scratch.released;
  std::vector<forest::TaskId>& batch = scratch.batch;

  pending.assign(pendingCounts.begin(), pendingCounts.end());
  arrivals.clear();
  released.clear();
  scratch.slotsCleared += 2;
  for (forest::TaskId id = 0; id < n; ++id) {
    if (pending[id] == 0) arrivals.push_back(id);
  }

  std::size_t remaining = n;
  for (unsigned t = 1; remaining > 0; ++t) {
    if (!arrivals.empty()) policy.add(arrivals);
    batch.clear();
    if (!policy.take(t, capacity, batch) || batch.empty()) return false;
    for (unsigned k = 0; k < batch.size(); ++k) {
      const forest::TaskId id = batch[k];
      out.place(id, t, k);
      --remaining;
      for (const forest::TaskId next : successors(id)) {
        if (next == forest::kNoTask || --pending[next] != 0) continue;
        released.push_back(next);
      }
    }
    out.completionTime = t;
    arrivals.swap(released);
    released.clear();
    ++scratch.slotsCleared;
  }
  return true;
}

}  // namespace dmf::sched::detail
