// The sched layer's one unit-time list-scheduling driver (internal, not part
// of the public sched API). MMS, the verbatim Algorithm 2, OMS, SRS's
// just-in-time reverse pass, the storage-capped runs and GA decoding all run
// on it; they differ only in the DAG direction and in the ready-queue policy.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "forest/task_forest.h"
#include "sched/plan_scratch.h"
#include "sched/schedule.h"

namespace dmf::sched::detail {

// Capped runs keep their ready lists as packed 64-bit keys: the priority in
// the high half, the TaskId in the low half.
constexpr std::uint64_t kIdMask = 0xFFFFFFFFull;

inline forest::TaskId taskOf(std::uint64_t key) {
  return static_cast<forest::TaskId>(key & kIdMask);
}

/// A ready queue over small-integer priority classes: push(c, id) files
/// task `id` under class `c`, and pop() returns the lowest class's lowest
/// id. Keys (class, id) are unique, so pops come out in the sorted order of
/// the packed (class, id) keys, which is the order a binary min-heap over
/// them pops (DESIGN.md §15). A push costs O(1) and a pop one word scan per
/// level: up to 64 classes and 4096 ids take one word each, and every 64
/// more classes or 4096 more ids add one. Any class count works.
class BucketQueue {
 public:
  /// Sized for classes [0, classes) and ids [0, ids). Storage a drained
  /// queue left is reused as is; entries an abandoned run left are cleared.
  BucketQueue(BucketScratch& storage, std::size_t classes, std::size_t ids)
      : s_(&storage),
        words_((ids + 63) / 64),
        summaryWords_((words_ + 63) / 64) {
    if (s_->size != 0) {
      std::fill(s_->bits.begin(), s_->bits.end(), 0);
      std::fill(s_->summary.begin(), s_->summary.end(), 0);
      std::fill(s_->classMask.begin(), s_->classMask.end(), 0);
      s_->size = 0;
    }
    growTo(s_->bits, classes * words_);
    growTo(s_->summary, classes * summaryWords_);
    growTo(s_->classMask, (classes + 63) / 64);
  }

  [[nodiscard]] bool empty() const { return s_->size == 0; }
  [[nodiscard]] std::size_t size() const { return s_->size; }

  void push(std::size_t cls, forest::TaskId id) {
    const std::size_t word = id / 64;
    s_->bits[cls * words_ + word] |= bit(id % 64);
    s_->summary[cls * summaryWords_ + word / 64] |= bit(word % 64);
    s_->classMask[cls / 64] |= bit(cls % 64);
    ++s_->size;
  }

  /// Removes and returns the lowest id of the lowest class. Not empty().
  forest::TaskId pop() {
    std::size_t m = 0;
    while (s_->classMask[m] == 0) ++m;
    const std::size_t cls = m * 64 + lowest(s_->classMask[m]);
    std::uint64_t* summary = &s_->summary[cls * summaryWords_];
    std::size_t k = 0;
    while (summary[k] == 0) ++k;
    const std::size_t word = k * 64 + lowest(summary[k]);
    std::uint64_t& bits = s_->bits[cls * words_ + word];
    const std::size_t id = word * 64 + lowest(bits);
    bits &= bits - 1;
    if (bits == 0) {
      summary[k] &= summary[k] - 1;
      bool drained = true;
      for (std::size_t j = k; drained && j < summaryWords_; ++j) {
        drained = summary[j] == 0;
      }
      if (drained) s_->classMask[m] &= s_->classMask[m] - 1;
    }
    --s_->size;
    return static_cast<forest::TaskId>(id);
  }

 private:
  static std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }
  static std::size_t lowest(std::uint64_t word) {
    return static_cast<std::size_t>(std::countr_zero(word));
  }
  static void growTo(std::vector<std::uint64_t>& v, std::size_t n) {
    if (v.size() < n) v.resize(n, 0);
  }

  BucketScratch* s_;
  std::size_t words_;         // id-bitset words per class
  std::size_t summaryWords_;  // summary words per class
};

/// colevel(v) = length of the longest dependency chain starting at v
/// (inclusive): Hu's priority.
[[nodiscard]] std::vector<unsigned> computeColevels(
    const forest::TaskForest& forest);

/// SRS's just-in-time pass: the latest-feasible schedule, list-scheduled on
/// the reversed DAG and mirrored in time (scheme "SRS").
[[nodiscard]] Schedule scheduleJustInTime(const forest::TaskForest& forest,
                                          unsigned mixers,
                                          PlanScratch& scratch);

/// The forward DAG: a task's successors are the consumers of its two output
/// droplets (forest::kNoTask where a droplet is emitted or wasted).
inline auto consumersOf(const forest::TaskForest& forest) {
  const forest::TaskId* consumers = forest.outConsumers().data();
  return [consumers](forest::TaskId id) {
    return std::array<forest::TaskId, 2>{consumers[2 * id],
                                         consumers[2 * id + 1]};
  };
}

/// A ready queue popping the lowest class, then the lowest id, at most
/// `capacity` a cycle; `classOf(id)` is a task's class in [0, classes).
template <typename ClassOf>
class BucketPolicy {
 public:
  BucketPolicy(BucketScratch& storage, std::size_t classes, std::size_t ids,
               ClassOf classOf)
      : queue_(storage, classes, ids), classOf_(std::move(classOf)) {}

  void add(const std::vector<forest::TaskId>& arrivals) {
    for (const forest::TaskId id : arrivals) queue_.push(classOf_(id), id);
  }

  bool take(unsigned /*t*/, unsigned capacity,
            std::vector<forest::TaskId>& out) {
    while (capacity-- > 0 && !queue_.empty()) out.push_back(queue_.pop());
    return true;
  }

 private:
  BucketQueue queue_;
  ClassOf classOf_;
};

/// GA's ready queue: a binary min-heap over real-valued (key, id) pairs,
/// at most `capacity` a cycle. The heap is the caller's, so a hot caller
/// reuses its allocation.
template <typename KeyOf>
class HeapPolicy {
 public:
  using Key = std::pair<double, forest::TaskId>;

  HeapPolicy(std::vector<Key>& heap, KeyOf keyOf)
      : heap_(&heap), keyOf_(std::move(keyOf)) {
    heap_->clear();
  }

  void add(const std::vector<forest::TaskId>& arrivals) {
    for (const forest::TaskId id : arrivals) {
      heap_->push_back(keyOf_(id));
      std::push_heap(heap_->begin(), heap_->end(), std::greater<>());
    }
  }

  bool take(unsigned /*t*/, unsigned capacity,
            std::vector<forest::TaskId>& out) {
    while (capacity-- > 0 && !heap_->empty()) {
      std::pop_heap(heap_->begin(), heap_->end(), std::greater<>());
      out.push_back(heap_->back().second);
      heap_->pop_back();
    }
    return true;
  }

 private:
  std::vector<Key>* heap_;
  KeyOf keyOf_;
};

/// Unit-time list scheduling into `out`: a task becomes schedulable the
/// cycle after its last predecessor runs. `pendingCounts[id]` is the number
/// of predecessor releases task `id` waits for, and `sources` lists the
/// tasks whose count is 0; `successors(id)` names the two tasks it releases
/// (kNoTask for none), so the forward DAG and the reversed one run alike.
/// Each cycle the policy receives the tasks that became schedulable (add;
/// `sources` itself in cycle 1) and yields at most `capacity` of them to
/// run (take); take returns false to abandon the run. Batch position k is the
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
                      const std::vector<forest::TaskId>& sources,
                      Successors successors, unsigned capacity,
                      Policy& policy, Schedule& out) {
  const std::size_t n = pendingCounts.size();
  out.reset(n);
  out.completionTime = 0;
  std::vector<std::uint8_t>& pending = scratch.pending;
  std::vector<forest::TaskId>& arrivals = scratch.arrivals;
  std::vector<forest::TaskId>& released = scratch.released;
  std::vector<forest::TaskId>& batch = scratch.batch;

  pending.assign(pendingCounts.begin(), pendingCounts.end());
  arrivals.clear();
  released.clear();
  scratch.slotsCleared += 2;

  std::size_t remaining = n;
  for (unsigned t = 1; remaining > 0; ++t) {
    const std::vector<forest::TaskId>& ready = t == 1 ? sources : arrivals;
    if (!ready.empty()) policy.add(ready);
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
