#include "sched/schedulers.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dmf/errors.h"
#include "obs/scope.h"
#include "sched/list_scheduler.h"

namespace dmf::sched {

using forest::kNoTask;
using forest::OperandClass;
using forest::TaskForest;
using forest::TaskId;

namespace {

using detail::BucketPolicy;
using detail::BucketQueue;
using detail::CappedScratch;
using detail::consumersOf;
using detail::runListScheduler;

// MMS, Algorithm 2 and OMS: the forward DAG, into `s`.
template <typename Policy>
void scheduleForwardInto(const TaskForest& forest, unsigned mixers,
                         Policy policy, const char* name,
                         PlanScratch& scratch, Schedule& s) {
  if (mixers == 0) {
    throw std::invalid_argument(std::string(name) +
                                ": at least one mixer required");
  }
  s.mixerCount = mixers;
  s.scheme = name;
  if (!runListScheduler(scratch.list, forest.initialPending(),
                        forest.initialReady(), consumersOf(forest), mixers,
                        policy, s)) {
    throw std::logic_error(s.scheme + ": scheduler stalled");
  }
}

template <typename Policy>
Schedule scheduleForward(const TaskForest& forest, unsigned mixers,
                         Policy policy, const char* name,
                         PlanScratch& scratch) {
  Schedule s;
  scheduleForwardInto(forest, mixers, std::move(policy), name, scratch, s);
  return s;
}

// Algorithm 1 policy: plain FIFO; same-cycle arrivals enter ordered by level
// ascending ("from level l upwards"), ties by task id.
class MmsPolicy {
 public:
  MmsPolicy(const TaskForest& forest, std::vector<TaskId>& queue)
      : levels_(&forest.taskLevels()), queue_(&queue) {
    queue_->clear();
  }

  void add(const std::vector<TaskId>& arrivals) {
    const auto first = static_cast<std::ptrdiff_t>(queue_->size());
    queue_->insert(queue_->end(), arrivals.begin(), arrivals.end());
    std::sort(queue_->begin() + first, queue_->end(),
              [this](TaskId a, TaskId b) {
                const unsigned la = (*levels_)[a];
                const unsigned lb = (*levels_)[b];
                return la != lb ? la < lb : a < b;
              });
  }

  bool take(unsigned /*t*/, unsigned capacity, std::vector<TaskId>& out) {
    while (capacity-- > 0 && head_ < queue_->size()) {
      out.push_back((*queue_)[head_++]);
    }
    return true;
  }

 private:
  const std::vector<unsigned>* levels_;
  // FIFO as a flat vector with a read cursor instead of a deque: every task
  // enters exactly once, so the backlog is bounded by the task count.
  std::vector<TaskId>* queue_;
  std::size_t head_ = 0;
};

// Literal Algorithm 2 policy: Q_int (Type-A/B, highest level first) is served
// before Q_leaf (Type-C, lowest level first); when |Q_int| >= Mc no Type-C
// node runs this cycle, matching the paper's dequeue formula
// max(0, min(Mc - |Q_int|, |Q_leaf|)). Both queues break ties by task id.
class SrsGreedyPolicy {
 public:
  SrsGreedyPolicy(const TaskForest& forest, detail::QueueScratch& queues)
      : forest_(&forest),
        maxLevel_(forest.taskCount() == 0
                      ? 0
                      : *std::max_element(forest.taskLevels().begin(),
                                          forest.taskLevels().end())),
        qInt_(queues.qInt, maxLevel_ + 1, forest.taskCount()),
        qLeaf_(queues.qLeaf, maxLevel_ + 1, forest.taskCount()) {}

  void add(const std::vector<TaskId>& arrivals) {
    const std::vector<unsigned>& levels = forest_->taskLevels();
    const std::vector<OperandClass>& classes = forest_->operandClasses();
    for (TaskId id : arrivals) {
      if (classes[id] == OperandClass::kTypeC) {
        qLeaf_.push(levels[id], id);  // lowest level first
      } else {
        qInt_.push(maxLevel_ - levels[id], id);  // highest first
      }
    }
  }

  bool take(unsigned /*t*/, unsigned capacity, std::vector<TaskId>& out) {
    const std::size_t intNodes = qInt_.size();
    for (unsigned k = 0; k < capacity && !qInt_.empty(); ++k) {
      out.push_back(qInt_.pop());
    }
    if (capacity > intNodes) {
      unsigned leafBudget = capacity - static_cast<unsigned>(intNodes);
      while (leafBudget-- > 0 && !qLeaf_.empty()) {
        out.push_back(qLeaf_.pop());
      }
    }
    return true;
  }

 private:
  const TaskForest* forest_;
  unsigned maxLevel_;
  BucketQueue qInt_;
  BucketQueue qLeaf_;
};

}  // namespace

namespace detail {

// Task ids are level-ascending, so consumers always have larger ids and one
// descending sweep suffices.
std::vector<unsigned> computeColevels(const TaskForest& forest) {
  std::vector<unsigned> colevel(forest.taskCount(), 1);
  const std::vector<TaskId>& consumers = forest.outConsumers();
  for (TaskId id = static_cast<TaskId>(forest.taskCount()); id-- > 0;) {
    for (unsigned slot = 0; slot < 2; ++slot) {
      const TaskId consumer = consumers[2 * id + slot];
      if (consumer != kNoTask) {
        colevel[id] = std::max(colevel[id], colevel[consumer] + 1);
      }
    }
  }
  return colevel;
}

}  // namespace detail

Schedule scheduleMMS(const TaskForest& forest, unsigned mixers) {
  PlanScratch scratch;
  return scheduleMMS(forest, mixers, scratch);
}

Schedule scheduleMMS(const TaskForest& forest, unsigned mixers,
                     PlanScratch& scratch) {
  return scheduleForward(forest, mixers,
                         MmsPolicy(forest, scratch.queues.fifo), "MMS",
                         scratch);
}

Schedule scheduleSRSGreedy(const TaskForest& forest, unsigned mixers) {
  PlanScratch scratch;
  return scheduleForward(forest, mixers,
                         SrsGreedyPolicy(forest, scratch.queues),
                         "SRS-greedy", scratch);
}

namespace detail {

// Latest-feasible (just-in-time) schedule: list-schedule the reversed
// precedence DAG, then mirror the result in time, so droplets are produced
// as late as the mixer bank allows.
Schedule scheduleJustInTime(const TaskForest& forest, unsigned mixers,
                            PlanScratch& scratch) {
  Schedule s;
  s.mixerCount = mixers;
  s.scheme = "SRS";
  const std::size_t n = forest.taskCount();
  s.reset(n);
  if (n == 0) return s;

  // Storage shrinks when droplets are produced just before they are
  // consumed. SRS therefore schedules every mix-split as LATE as the mixer
  // bank allows: list-schedule the reversed precedence DAG (consumers release
  // their producers), then mirror the result in time. Stalling a mix-split
  // never parks extra droplets beyond its own operands, and Type-C nodes —
  // whose stall is free (section 4.2.2) — end up deferred the most: they sit
  // at the reversed DAG's deepest positions. Mixers idle rather than dispense
  // early, the behaviour the paper attributes to SRS.
  JitScratch& jit = scratch.jit;

  const std::vector<TaskId>& depLeft = forest.depLefts();
  const std::vector<TaskId>& depRight = forest.depRights();

  // Reverse chain length: longest path from a task back through its operand
  // producers (its successors in the reversed DAG). The reversed DAG's
  // sources are the tasks none of whose droplets is consumed.
  const std::vector<std::uint8_t>& consumedOuts = forest.consumedOutCounts();
  std::vector<unsigned>& revColevel = jit.revColevel;
  std::vector<TaskId>& roots = jit.roots;
  revColevel.assign(n, 1);
  roots.clear();
  unsigned longest = 1;
  for (TaskId id = 0; id < n; ++id) {
    for (TaskId dep : {depLeft[id], depRight[id]}) {
      if (dep != kNoTask) {
        revColevel[id] = std::max(revColevel[id], revColevel[dep] + 1);
      }
    }
    longest = std::max(longest, revColevel[id]);
    if (consumedOuts[id] == 0) roots.push_back(id);
  }

  // Reverse readiness: a task is reverse-ready once every consumer of its
  // droplets is reverse-scheduled. Root instances (no consumers) seed it.
  // Priority: longest reverse chain first (Hu on the reversed DAG), breaking
  // ties in favour of Type-C nodes (defer them furthest in forward time),
  // then by task id. Class 2 * (longest - revColevel) + (Type-C ? 0 : 1).
  const std::vector<OperandClass>& classes = forest.operandClasses();
  BucketPolicy policy(scratch.queues.ranked, 2 * std::size_t{longest}, n,
                      [&](TaskId id) {
                        const bool typeC = classes[id] == OperandClass::kTypeC;
                        return 2 * std::size_t{longest - revColevel[id]} +
                               (typeC ? 0 : 1);
                      });
  const auto producersOf = [&](TaskId id) {
    return std::array<TaskId, 2>{depLeft[id], depRight[id]};
  };
  Schedule& reversed = jit.reversed;
  if (!runListScheduler(scratch.list, consumedOuts, roots, producersOf,
                        mixers, policy, reversed)) {
    throw std::logic_error("SRS: reverse pass stalled");
  }

  // Mirror into forward time and hand out mixer indices per cycle.
  const unsigned span = reversed.completionTime;
  std::vector<unsigned>& used = jit.used;
  used.assign(span + 2, 0);
  for (TaskId id = 0; id < n; ++id) {
    const unsigned cycle = span + 1 - reversed.cycles[id];
    s.place(id, cycle, used[cycle]++);
  }
  s.completionTime = span;
  return s;
}

}  // namespace detail

namespace {

/// Fixes the service order of the capped runs that follow: `seedCycles`
/// and the sorted cycle-1 ready list every run starts from, built here once
/// instead of re-keyed and re-sorted by each run.
void seedCappedRuns(const TaskForest& forest,
                    const std::vector<unsigned>& seedCycles,
                    CappedScratch& scratch) {
  scratch.seedCycles.assign(seedCycles.begin(), seedCycles.end());
  std::vector<std::uint64_t>& ready = scratch.initialReady;
  ready.clear();
  for (const TaskId id : forest.initialReady()) {
    ready.push_back((std::uint64_t{scratch.seedCycles[id]} << 32) | id);
  }
  std::sort(ready.begin(), ready.end());
}

/// The knobs of one storage-capped run.
struct CappedLimits {
  /// Admission budget: storage cap + production-lookahead window. It is the
  /// only way the cap steers the simulation (the pass-1/pass-2 pressure
  /// tests), so runs with equal budgets follow one trajectory.
  std::int64_t admission = 0;
  /// Fail once a cycle parks more droplets than this. The test changes no
  /// state, so a run that passes it reports its peak and answers every
  /// smaller cap sharing the admission budget.
  std::int64_t storageCap = 0;
  /// Give up once a task would start after this cycle: the caller rejects
  /// any schedule completing later anyway.
  unsigned deadline = std::numeric_limits<unsigned>::max();
};

// The storage-capped admission policy: Algorithm 2's two queues under a
// storage budget, served in the order of the seed schedule (seedCappedRuns).
// Abandons the run when a cycle parks more than the cap or a task would
// start after the deadline.
class CappedPolicy {
 public:
  CappedPolicy(const TaskForest& forest, const CappedLimits& limits,
               CappedScratch& scratch)
      : consumedOuts_(forest.consumedOutCounts()),
        storedOperands_(forest.initialPending()),
        limits_(limits),
        scratch_(scratch) {
    scratch.ready.clear();
    scratch.peak = 0;
    scratch.passedMax = std::numeric_limits<std::int64_t>::min();
    scratch.blockedMin = std::numeric_limits<std::int64_t>::max();
  }

  // Ready tasks in just-in-time order: the latest-feasible schedule's cycle
  // assignment pipelines production right before consumption, so following
  // it under the cap keeps partner droplets adjacent. Only the cycle-1 tasks
  // lack a mix-split operand, so the ready producers are always those of
  // the seed's sorted cycle-1 list (initialReady) not yet served — a suffix,
  // since pass 2 serves them strictly in order — read through a cursor and
  // never copied. Every later arrival consumes a stored droplet and merges
  // into the consumers' flat vector, sorted ascending by (jit cycle, id).
  // Merged, the two lists give the order of one ready list sorted by that
  // key, so the passes below test tasks as such a list would (DESIGN.md
  // §15).
  void add(const std::vector<TaskId>& arrivals) {
    if (!started_) {
      started_ = true;  // the cycle-1 arrivals: initialReady's tasks
      return;
    }
    std::vector<std::uint64_t>& keys = scratch_.arrivalKeys;
    keys.clear();
    for (TaskId id : arrivals) {
      keys.push_back((std::uint64_t{scratch_.seedCycles[id]} << 32) | id);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint64_t>& ready = scratch_.ready;
    std::vector<std::uint64_t>& merged = scratch_.merged;
    merged.clear();
    std::merge(ready.begin(), ready.end(), keys.begin(), keys.end(),
               std::back_inserter(merged));
    ready.swap(merged);
  }

  // Per-task inventory delta: +1 for every output droplet that some other
  // mix-split will consume (consumedOuts), -1 for every operand taken out of
  // storage (storedOperands == the initial pending count).
  //
  // `carried_` counts consumable droplets produced in earlier cycles and not
  // yet consumed. The droplets this cycle's batch does not consume are
  // exactly the ones parked in storage during the cycle (Algorithm 3), so
  // the hard constraint per cycle is: carried - consumedNow <= cap. Fresh
  // production only becomes storage next cycle; it is admitted up to an
  // optimism window of what the mixer bank could consume back in one cycle.
  //
  // All pressure tests run in signed 64-bit arithmetic: the inventory
  // invariant (a cycle never consumes more droplets than it carried in) is
  // expected to hold for every forest the TaskForest constructors can build,
  // but an unsigned wrap here would not fail loudly — it would silently turn
  // the test into always-true/always-false and admit cap-violating batches.
  // The invariant itself is checked at the end of every cycle.
  bool take(unsigned t, unsigned capacity, std::vector<TaskId>& batch) {
    if (t > limits_.deadline) return false;
    ++scratch_.cyclesRun;
    std::int64_t consumedNow = 0;
    std::int64_t producedNow = 0;
    // Pass 1 — consumers of stored droplets (the Q_int of Algorithm 2), in
    // just-in-time order. Emptying storage takes precedence over everything.
    std::vector<std::uint64_t>& ready = scratch_.ready;
    std::size_t w = 0;
    std::size_t i = 0;
    for (; i < ready.size() && batch.size() < capacity; ++i) {
      const TaskId id = detail::taskOf(ready[i]);
      const std::int64_t cons = storedOperands_[id];
      const std::int64_t prod = consumedOuts_[id];
      if (prod > cons &&
          !admits(carried_ - consumedNow - cons + producedNow + prod)) {
        ready[w++] = ready[i];  // net-producing consumer under pressure
        continue;
      }
      consumedNow += cons;
      producedNow += prod;
      batch.push_back(id);
    }
    scratch_.readyVisits += i;
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(w),
                ready.begin() + static_cast<std::ptrdiff_t>(i));
    // Pass 2 — fresh dispense mixes (Q_leaf), strictly in just-in-time
    // order: letting a later dispense mix jump a stalled one fills the
    // storage with droplets whose partners can then never be made (the
    // classic storage deadlock).
    const std::vector<std::uint64_t>& producers = scratch_.initialReady;
    while (nextProducer_ < producers.size() && batch.size() < capacity) {
      ++scratch_.readyVisits;
      const TaskId id = detail::taskOf(producers[nextProducer_]);
      const std::int64_t prod = consumedOuts_[id];
      if (!admits(carried_ - consumedNow + producedNow + prod)) {
        break;  // strict order among producers
      }
      producedNow += prod;
      batch.push_back(id);
      ++nextProducer_;
    }
    scratch_.tasksTaken += batch.size();

    if (consumedNow > carried_) {
      // A cycle consumed more droplets than it carried in — the readiness
      // bookkeeping must make this impossible; wrapping silently in
      // unsigned arithmetic was the pre-signed failure mode.
      throw std::logic_error(
          "tryStorageCapped: cycle consumed more droplets than carried (" +
          std::to_string(consumedNow) + " > " + std::to_string(carried_) +
          ")");
    }
    scratch_.peak = std::max(scratch_.peak, carried_ - consumedNow);
    if (scratch_.peak > limits_.storageCap) return false;
    carried_ = carried_ - consumedNow + producedNow;
    return true;
  }

 private:
  // Records which side of the admission budget `pressure` fell on.
  bool admits(std::int64_t pressure) {
    if (pressure > limits_.admission) {
      scratch_.blockedMin = std::min(scratch_.blockedMin, pressure);
      return false;
    }
    scratch_.passedMax = std::max(scratch_.passedMax, pressure);
    return true;
  }

  const std::vector<std::uint8_t>& consumedOuts_;
  const std::vector<std::uint8_t>& storedOperands_;
  const CappedLimits& limits_;
  CappedScratch& scratch_;
  std::int64_t carried_ = 0;
  std::size_t nextProducer_ = 0;  // into scratch_.initialReady
  bool started_ = false;
};

// One storage-capped run with a fixed admission budget, in the order of the
// scratch's seed (seedCappedRuns). Fills `scratch.capped.out` with a
// schedule whose every cycle parks at most `limits.storageCap` droplets
// (their maximum in `scratch.capped.peak`) and returns true, or returns
// false when the run stalls, exceeds the cap or passes the deadline.
bool tryStorageCapped(const TaskForest& forest, unsigned mixers,
                      const CappedLimits& limits, PlanScratch& scratch) {
  Schedule& s = scratch.capped.out;
  s.mixerCount = mixers;
  s.scheme = "capped";
  CappedPolicy policy(forest, limits, scratch.capped);
  return runListScheduler(scratch.list, forest.initialPending(),
                          forest.initialReady(), consumersOf(forest), mixers,
                          policy, s);
}

/// The production-lookahead window ladder. Small mixer banks make the ladder
/// collide (e.g. mixers == 2 duplicates both 2 and 4); an identical window
/// is an identical attempt, and adoption below is strictly-improving, so
/// skipping duplicates cannot change which schedule wins — it only removes
/// redundant work. `2 * mixers` wraps for banks of 2^31 and more; the
/// wrapped value is the window those banks have always been given.
template <typename Fn>
void forEachWindow(unsigned mixers, Fn fn) {
  const unsigned ladder[] = {0u, 1u, 2u, 3u, mixers, 2 * mixers};
  for (std::size_t i = 0; i < std::size(ladder); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      seen = seen || ladder[j] == ladder[i];
    }
    if (!seen) fn(ladder[i]);
  }
}

}  // namespace

Schedule scheduleStorageCapped(const TaskForest& forest, unsigned mixers,
                               unsigned storageCap) {
  if (mixers == 0) {
    throw std::invalid_argument(
        "scheduleStorageCapped: at least one mixer required");
  }
  if (forest.taskCount() == 0) {
    Schedule s;
    s.mixerCount = mixers;
    s.scheme = "capped";
    return s;
  }
  // The production-lookahead window trades deadlock safety against mixer
  // utilization and no single value dominates, so a small deterministic
  // ladder is tried and the fastest completing schedule wins. Adoption is
  // strictly improving, so once a schedule is held a run may give up as soon
  // as it can no longer finish before it.
  PlanScratch scratch;
  seedCappedRuns(forest,
                 detail::scheduleJustInTime(forest, mixers, scratch).cycles,
                 scratch.capped);
  std::optional<Schedule> best;
  forEachWindow(mixers, [&](unsigned window) {
    CappedLimits limits;
    limits.admission = static_cast<std::int64_t>(storageCap) + window;
    limits.storageCap = storageCap;
    if (best.has_value()) limits.deadline = best->completionTime - 1;
    if (tryStorageCapped(forest, mixers, limits, scratch) &&
        (!best.has_value() ||
         scratch.capped.out.completionTime < best->completionTime)) {
      best = scratch.capped.out;
    }
  });
  if (!best.has_value()) {
    throw InfeasibleError(
        "scheduleStorageCapped: storage cap of " +
        std::to_string(storageCap) + " units is too tight to make progress");
  }
  return *best;
}

namespace {

/// SRS's candidate pool before refinement: the just-in-time schedule, then
/// MMS (SRS must never store more than it, section 4.2.2) and the verbatim
/// two-queue Algorithm 2, which is strong on wide forests. The refinement
/// and the capped scheduleSRS's clipped scan both start from it, so they
/// share every seed, budget and tie-break, and the one seeded list of their
/// capped runs.
struct SrsPrelude {
  const TaskForest& forest;
  PlanScratch& scratch;
  Schedule best;
  unsigned bestStorage = 0;
  unsigned fastest = 0;
  std::uint64_t adopted = 0;

  /// The time budget: a bounded slowdown over the fastest candidate (the
  /// paper reports SRS costs ~5% completion time on average).
  [[nodiscard]] unsigned timeBudget() const {
    return fastest + std::max(3u, fastest / 4);
  }

  /// Keeps `candidate` if it stores less, or as much but finishes sooner,
  /// within the time budget, by swapping it with `best`. Never raises
  /// bestStorage.
  void adopt(Schedule& candidate) {
    fastest = std::min(fastest, candidate.completionTime);
    if (candidate.completionTime > timeBudget()) return;
    const unsigned storage = countStorage(forest, candidate, scratch);
    if (storage < bestStorage ||
        (storage == bestStorage &&
         candidate.completionTime < best.completionTime)) {
      std::swap(best, candidate);
      best.scheme = "SRS";
      bestStorage = storage;
      ++adopted;
    }
  }
};

SrsPrelude srsPrelude(const TaskForest& forest, unsigned mixers,
                      PlanScratch& scratch) {
  if (mixers == 0) {
    throw std::invalid_argument("SRS: at least one mixer required");
  }
  SrsPrelude pool{forest, scratch,
                  detail::scheduleJustInTime(forest, mixers, scratch)};
  pool.best.scheme = "SRS";
  if (forest.taskCount() == 0) return pool;
  pool.bestStorage = countStorage(forest, pool.best, scratch);
  pool.fastest = pool.best.completionTime;
  // MMS and the greedy pass run into one reused buffer, which after an
  // adoption holds the schedule it replaced.
  Schedule& candidate = scratch.candidate;
  scheduleForwardInto(forest, mixers,
                      MmsPolicy(forest, scratch.queues.fifo), "MMS", scratch,
                      candidate);
  pool.adopt(candidate);
  scheduleForwardInto(forest, mixers, SrsGreedyPolicy(forest, scratch.queues),
                      "SRS-greedy", scratch, candidate);
  pool.adopt(candidate);
  // The capped runs scan the caps below the prelude's storage, so they
  // follow only when it is positive.
  if (pool.bestStorage > 0) {
    seedCappedRuns(forest, pool.best.cycles, scratch.capped);
  }
  return pool;
}

// Refinement: storage-capped scheduling seeded with the prelude's best
// schedule's order, scanning every cap below it (feasibility is not
// monotone in the cap, so no bisection). Attempt (cap, window) succeeds
// exactly when the run with admission budget cap + window completes within
// the time budget parking at most `cap` droplets per cycle, so each budget
// is simulated once and every attempt is answered from its peak
// (DESIGN.md §15).
Schedule refineSrs(SrsPrelude& pool, unsigned mixers) {
  const TaskForest& forest = pool.forest;
  if (forest.taskCount() == 0) return std::move(pool.best);
  const unsigned timeBudget = pool.timeBudget();
  const unsigned capsScanned = pool.bestStorage;
  CappedScratch& scratch = pool.scratch.capped;
  scratch.runs.clear();
  scratch.winCount = 0;
  for (unsigned cap = capsScanned; cap-- > 0;) {
    std::size_t candidate = CappedScratch::Run::kFailed;
    forEachWindow(mixers, [&](unsigned window) {
      const std::uint64_t budget = std::uint64_t{cap} + window;
      auto it = std::lower_bound(
          scratch.runs.begin(), scratch.runs.end(), budget,
          [](const auto& entry, std::uint64_t b) { return entry.first < b; });
      const bool fresh = it == scratch.runs.end() || it->first != budget;
      if (fresh) it = scratch.runs.insert(it, {budget, CappedScratch::Run{}});
      CappedScratch::Run& run = it->second;
      if (fresh) {
        // Caps are scanned downwards, so the first cap to ask for a budget
        // is the largest that uses it: the run only fails above that cap.
        CappedLimits limits;
        limits.admission = static_cast<std::int64_t>(budget);
        limits.storageCap = cap;
        limits.deadline = timeBudget;
        if (tryStorageCapped(forest, mixers, limits, pool.scratch)) {
          run.peak = scratch.peak;
          run.win = scratch.keepOut();
        }
      }
      if (run.win == CappedScratch::Run::kFailed ||
          run.peak > static_cast<std::int64_t>(cap)) {
        return;
      }
      if (candidate == CappedScratch::Run::kFailed ||
          scratch.wins[run.win].completionTime <
              scratch.wins[candidate].completionTime) {
        candidate = run.win;
      }
    });
    if (candidate != CappedScratch::Run::kFailed) {
      // A later cap may read the same win again, so adopt a copy.
      Schedule win = scratch.wins[candidate];
      pool.adopt(win);
    }
  }
  obs::count("sched.srs.capped_runs", scratch.runs.size());
  obs::count("sched.srs.caps_scanned", capsScanned);
  obs::count("sched.srs.candidates_adopted", pool.adopted);
  return std::move(pool.best);
}

// Whether the refinement of `pool` may end at most `cap` units of storage,
// for a prelude that stores more. The refinement ends on the prelude's best
// or on an adopted capped win, and a win's storage is its run's peak. So it
// stores at most `cap` only if some refinement run — budget B at the first
// cap c asking for it — parks at most `cap` droplets per cycle. Rerunning B
// with its storage cap clipped to min(c, cap) succeeds exactly then, because
// the cap test changes no state. Each failed run also settles the later
// budgets sharing its trajectory: the scan descends, so their clipped caps
// are no larger and they fail too (DESIGN.md §15). Reads the prelude only.
bool clippedScanMayFit(const SrsPrelude& pool, unsigned mixers,
                       unsigned cap) {
  const unsigned timeBudget = pool.timeBudget();
  CappedScratch& scratch = pool.scratch.capped;
  std::vector<CappedScratch::Settled>& settled = scratch.settled;
  settled.clear();
  bool fits = false;
  for (unsigned scanned = pool.bestStorage; !fits && scanned-- > 0;) {
    const std::int64_t clipped = std::min(scanned, cap);
    forEachWindow(mixers, [&](unsigned window) {
      if (fits) return;
      const auto admission =
          static_cast<std::int64_t>(std::uint64_t{scanned} + window);
      for (const CappedScratch::Settled& run : settled) {
        if (run.passedMax <= admission && admission < run.blockedMin) return;
      }
      CappedLimits limits;
      limits.admission = admission;
      limits.storageCap = clipped;
      limits.deadline = timeBudget;
      if (tryStorageCapped(pool.forest, mixers, limits, pool.scratch)) {
        fits = true;
        return;
      }
      settled.push_back({scratch.passedMax, scratch.blockedMin});
    });
  }
  obs::count("sched.srs.bound_runs", settled.size() + (fits ? 1 : 0));
  return fits;
}

}  // namespace

Schedule scheduleSRS(const TaskForest& forest, unsigned mixers) {
  PlanScratch scratch;
  return scheduleSRS(forest, mixers, scratch);
}

Schedule scheduleSRS(const TaskForest& forest, unsigned mixers,
                     PlanScratch& scratch) {
  SrsPrelude pool = srsPrelude(forest, mixers, scratch);
  return refineSrs(pool, mixers);
}

std::optional<Schedule> scheduleSRS(const TaskForest& forest, unsigned mixers,
                                    unsigned cap) {
  PlanScratch scratch;
  return scheduleSRS(forest, mixers, cap, scratch);
}

std::optional<Schedule> scheduleSRS(const TaskForest& forest, unsigned mixers,
                                    unsigned cap, PlanScratch& scratch) {
  SrsPrelude pool = srsPrelude(forest, mixers, scratch);
  // Adoption never raises storage, so a prelude within the cap needs no
  // proof either way: the refinement can only end lower.
  if (pool.bestStorage > cap && !clippedScanMayFit(pool, mixers, cap)) {
    return std::nullopt;
  }
  return refineSrs(pool, mixers);
}

Schedule scheduleOMS(const TaskForest& forest, unsigned mixers) {
  PlanScratch scratch;
  return scheduleOMS(forest, mixers, scratch);
}

Schedule scheduleOMS(const TaskForest& forest, unsigned mixers,
                     PlanScratch& scratch) {
  // Hu / critical-path priority: longest path to an emitted droplet first,
  // ties by task id.
  const std::vector<unsigned> colevel = detail::computeColevels(forest);
  const unsigned longest =
      colevel.empty() ? 0 : *std::max_element(colevel.begin(), colevel.end());
  return scheduleForward(
      forest, mixers,
      BucketPolicy(scratch.queues.ranked, longest, colevel.size(),
                   [&](TaskId id) { return longest - colevel[id]; }),
      "OMS", scratch);
}

unsigned criticalPathLength(const TaskForest& forest) {
  const std::vector<unsigned> colevel = detail::computeColevels(forest);
  return colevel.empty() ? 0
                         : *std::max_element(colevel.begin(), colevel.end());
}

unsigned minimumMixers(const TaskForest& forest) {
  const unsigned cp = criticalPathLength(forest);
  if (cp == 0) return 1;  // empty forest: any bank completes instantly
  // No bank smaller than ceil(taskCount / cp) can reach the critical path
  // (completion >= ceil(taskCount / mixers) > cp below it), so the scan
  // starts at the width lower bound instead of 1.
  const auto n = static_cast<unsigned>(forest.taskCount());
  PlanScratch scratch;
  for (unsigned m = std::max(1u, (n + cp - 1) / cp);; ++m) {
    // Runaway check first: a failure throws instead of paying one extra
    // wasted O(n log n) scheduling pass beyond the taskCount ceiling.
    if (m > n) {
      throw std::logic_error("minimumMixers: failed to reach critical path");
    }
    if (scheduleOMS(forest, m, scratch).completionTime == cp) {
      return m;
    }
  }
}

}  // namespace dmf::sched
