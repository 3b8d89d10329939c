#include "sched/schedulers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dmf/errors.h"
#include "mixgraph/builders.h"
#include "obs/scope.h"
#include "sched/ga_scheduler.h"
#include "sched/gantt.h"
#include "sched/heterogeneous.h"
#include "sched/list_scheduler.h"
#include "sched/schedule.h"
#include "workload/random_ratios.h"
#include "workload/ratio_corpus.h"

namespace dmf::sched {
namespace {

using forest::TaskForest;
using mixgraph::Algorithm;
using mixgraph::buildGraph;
using mixgraph::buildMM;
using mixgraph::MixingGraph;

Ratio pcr() { return Ratio({2, 1, 1, 1, 1, 1, 9}); }

TEST(Oms, BaseTreeMatchesPaperSection5) {
  // Paper section 5: the MM base tree of the PCR ratio completes in d = 4
  // cycles and needs Mlb = 3 mixers for that.
  MixingGraph g = buildMM(pcr());
  TaskForest pass(g, 2);
  EXPECT_EQ(criticalPathLength(pass), 4u);
  EXPECT_EQ(minimumMixers(pass), 3u);
  const Schedule s = scheduleOMS(pass, 3);
  EXPECT_EQ(s.completionTime, 4u);
  validateOrThrow(pass, s);
}

TEST(Oms, SingleMixerSerializesEverything) {
  MixingGraph g = buildMM(pcr());
  TaskForest pass(g, 2);
  const Schedule s = scheduleOMS(pass, 1);
  EXPECT_EQ(s.completionTime, pass.taskCount());
  validateOrThrow(pass, s);
}

TEST(Schedulers, RejectZeroMixers) {
  MixingGraph g = buildMM(pcr());
  TaskForest pass(g, 2);
  EXPECT_THROW(scheduleMMS(pass, 0), std::invalid_argument);
  EXPECT_THROW(scheduleSRS(pass, 0), std::invalid_argument);
  EXPECT_THROW(scheduleOMS(pass, 0), std::invalid_argument);
}

TEST(Srs, Figure3Demand20ThreeMixers) {
  // Paper Fig. 3 / Fig. 4: the D=20 forest scheduled by SRS with 3 mixers
  // completes in Tc = 11 cycles using q = 5 storage units. Our SRS lands on
  // the same storage requirement, one cycle later (Tc = 12) — the engines
  // differ in tie-breaking, not in the trade-off.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule s = scheduleSRS(f, 3);
  validateOrThrow(f, s);
  EXPECT_EQ(countStorage(f, s), 5u);
  // 27 mix-splits on 3 mixers cannot beat ceil(27/3) = 9 cycles.
  EXPECT_GE(s.completionTime, 9u);
  EXPECT_LE(s.completionTime, 13u);
}

TEST(Mms, Figure3ForestValidAndFast) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule s = scheduleMMS(f, 3);
  validateOrThrow(f, s);
  // MMS packs all 27 mix-splits into the 9-cycle lower bound here, at the
  // cost of more storage than SRS.
  EXPECT_EQ(s.completionTime, 9u);
  EXPECT_EQ(countStorage(f, s), 6u);
}

TEST(Srs, NeverUsesMoreStorageThanMmsOnPcrSweep) {
  // The paper's claim (section 4.2.2): SRS trades a little completion time
  // for fewer storage units than MMS.
  MixingGraph g = buildMM(pcr());
  for (std::uint64_t demand : {8u, 16u, 20u, 32u}) {
    TaskForest f(g, demand);
    const Schedule mms = scheduleMMS(f, 3);
    const Schedule srs = scheduleSRS(f, 3);
    EXPECT_LE(countStorage(f, srs), countStorage(f, mms)) << "D=" << demand;
    EXPECT_GE(srs.completionTime, mms.completionTime) << "D=" << demand;
  }
}

TEST(Srs, RefinementCountersOnFigure3) {
  // One count per scheduleSRS call for each refinement counter: the caps
  // scanned below the best seed's storage, the distinct admission budgets
  // (cap + window) actually simulated, and the candidates that replaced the
  // running best (MMS, greedy Algorithm 2 or a refined schedule).
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  obs::Session session;
  {
    const obs::Scope scope(session);
    (void)scheduleSRS(f, 3);
  }
  // The seed stores 6 units, so caps 5..0 are scanned with windows
  // {0, 1, 2, 3, 6}: 30 (cap, window) attempts share the 12 budgets 0..11.
  EXPECT_EQ(session.metrics.counter("sched.srs.caps_scanned").value(), 6u);
  EXPECT_EQ(session.metrics.counter("sched.srs.capped_runs").value(), 12u);
  EXPECT_EQ(session.metrics.counter("sched.srs.candidates_adopted").value(),
            1u);
}

TEST(SrsGreedy, LiteralAlgorithm2IsValid) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule s = scheduleSRSGreedy(f, 3);
  validateOrThrow(f, s);
  EXPECT_GE(s.completionTime, 9u);
}

TEST(StorageCapped, RespectsTheCap) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  for (unsigned cap : {5u, 6u, 8u, 20u}) {
    const Schedule s = scheduleStorageCapped(f, 3, cap);
    validateOrThrow(f, s);
    EXPECT_LE(countStorage(f, s), cap) << "cap=" << cap;
  }
}

TEST(StorageCapped, TighterCapsCostCycles) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule loose = scheduleStorageCapped(f, 3, 20);
  const Schedule tight = scheduleStorageCapped(f, 3, 5);
  EXPECT_LE(loose.completionTime, tight.completionTime);
}

TEST(StorageCapped, ImpossibleCapThrows) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  EXPECT_THROW(scheduleStorageCapped(f, 3, 0), std::runtime_error);
  EXPECT_THROW(scheduleStorageCapped(f, 0, 5), std::invalid_argument);
}

TEST(StorageCapped, GenerousCapMatchesUncappedSpeed) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 3);
  const Schedule uncapped = scheduleOMS(f, 3);
  const Schedule capped = scheduleStorageCapped(f, 3, 100);
  EXPECT_LE(capped.completionTime, uncapped.completionTime + 2);
}

TEST(Storage, EmptyStorageWhenChainIsTight) {
  // Two-fluid one-mix tree: the only task has no stored droplets.
  MixingGraph g = buildMM(Ratio({1, 1}));
  TaskForest f(g, 2);
  const Schedule s = scheduleOMS(f, 1);
  EXPECT_EQ(countStorage(f, s), 0u);
}

TEST(Storage, CountsParkedDroplets) {
  // Serialize the PCR base tree on one mixer: intermediates must wait, so
  // storage is needed.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 2);
  const Schedule s = scheduleOMS(f, 1);
  EXPECT_GT(countStorage(f, s), 0u);
  const auto profile = storageProfile(f, s);
  EXPECT_EQ(profile.size(), s.completionTime + 1u);
}

TEST(Storage, BaselineStorageBoundHolds) {
  // Paper section 4.2: a base tree scheduled with Mc mixers needs roughly
  // d - (log2 Mc + 1) storage units; with Mlb mixers that is a small number.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 2);
  const Schedule s = scheduleOMS(f, 3);
  EXPECT_LE(countStorage(f, s), 4u);
}

TEST(Emission, TwentyTargetsEmitted) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule s = scheduleSRS(f, 3);
  const auto cycles = emissionCycles(f, s);
  ASSERT_EQ(cycles.size(), 20u);
  EXPECT_EQ(cycles.back(), s.completionTime);
  EXPECT_TRUE(std::is_sorted(cycles.begin(), cycles.end()));
}

TEST(Validate, DetectsPrecedenceViolation) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 2);
  Schedule s = scheduleOMS(f, 3);
  // Move the root mix to cycle 1: its operands are no longer earlier.
  for (forest::TaskId id = 0; id < f.taskCount(); ++id) {
    if (f.task(id).node == g.root()) s.cycles[id] = 1;
  }
  EXPECT_THROW(validateOrThrow(f, s), std::logic_error);
}

TEST(Validate, DetectsMixerOverlap) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 2);
  Schedule s = scheduleOMS(f, 3);
  // Force every task onto mixer 0 — cycle/mixer collisions appear.
  bool collision = false;
  for (auto& mixer : s.mixers) {
    if (mixer != 0) {
      mixer = 0;
      collision = true;
    }
  }
  ASSERT_TRUE(collision);
  EXPECT_THROW(validateOrThrow(f, s), std::logic_error);
}

TEST(Gantt, RendersEveryMixerRow) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule s = scheduleSRS(f, 3);
  const std::string chart = renderGantt(f, s);
  EXPECT_NE(chart.find("M1"), std::string::npos);
  EXPECT_NE(chart.find("M3"), std::string::npos);
  EXPECT_NE(chart.find("store"), std::string::npos);
  EXPECT_NE(chart.find("emit"), std::string::npos);
}

// Byte-identity goldens for the SRS refinement and the storage-capped
// scheduler: FNV-1a over cycles, mixers and completionTime of every schedule
// over a seeded corpus (random ratios of sum 16/32/64 with 2..8 parts, four
// algorithms, a stepped demand ladder 1..256, mixers Mlb, Mlb+1 and 2).
// Any change to scheduling order, tie-breaking or pruning moves the hash.
class ScheduleHash {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001b3ull;
    }
  }
  void add(const Schedule& s) {
    add(s.completionTime);
    add(s.cycles.size());
    for (unsigned c : s.cycles) add(c);
    for (unsigned m : s.mixers) add(m);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// The seeded ratio corpus: one random ratio per (sum 16/32/64, 2..8 parts).
std::vector<Ratio> corpusRatios() {
  std::vector<Ratio> ratios;
  for (std::uint64_t sum : {16u, 32u, 64u}) {
    for (std::size_t parts = 2; parts <= 8; ++parts) {
      workload::RandomRatioGenerator gen(sum, parts, sum * 16 + parts);
      ratios.push_back(gen.next());
    }
  }
  return ratios;
}

template <typename Fn>
void forEachCorpusForest(Fn fn) {
  for (const Ratio& r : corpusRatios()) {
    const unsigned mlb = minimumMixers(TaskForest(buildMM(r), 2));
    for (Algorithm algo : {Algorithm::MM, Algorithm::RMA, Algorithm::MTCS,
                           Algorithm::RSM}) {
      const MixingGraph g = buildGraph(r, algo);
      for (std::uint64_t demand = 1;; demand += 1 + demand / 3) {
        demand = std::min<std::uint64_t>(demand, 256);
        const TaskForest f(g, demand);
        for (unsigned mixers : {mlb, mlb + 1, 2u}) fn(f, mixers);
        if (demand == 256) break;
      }
    }
  }
}

TEST(Srs, CorpusScheduleHashPinned) {
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    hash.add(scheduleSRS(f, mixers));
  });
  EXPECT_EQ(hash.value(), 0xf0bdb80efb10792aull);
}

TEST(StorageCapped, CorpusScheduleHashPinned) {
  constexpr std::uint64_t kInfeasible = 0xFFFFFFFFFFFFFFFFull;
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    for (unsigned cap = 0; cap <= 8; ++cap) {
      try {
        hash.add(scheduleStorageCapped(f, mixers, cap));
      } catch (const InfeasibleError&) {
        hash.add(kInfeasible);
      }
    }
  });
  EXPECT_EQ(hash.value(), 0x4b16844c57b73857ull);
}

// The remaining list schedulers, pinned on the same corpus: any change to
// their readiness bookkeeping, queue order or mixer assignment moves a hash.
TEST(Mms, CorpusScheduleHashPinned) {
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    hash.add(scheduleMMS(f, mixers));
  });
  EXPECT_EQ(hash.value(), 0xb7f2cf047ae0e668ull);
}

TEST(SrsGreedy, CorpusScheduleHashPinned) {
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    hash.add(scheduleSRSGreedy(f, mixers));
  });
  EXPECT_EQ(hash.value(), 0xa432b30910a35d91ull);
}

TEST(Oms, CorpusScheduleHashPinned) {
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    hash.add(scheduleOMS(f, mixers));
  });
  EXPECT_EQ(hash.value(), 0xf8a651129fbc76d0ull);
}

TEST(Heterogeneous, CorpusScheduleHashPinned) {
  const MixerBank bank{{1, 2, 1, 3, 1}};
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned /*mixers*/) {
    hash.add(scheduleHeterogeneous(f, bank));
  });
  EXPECT_EQ(hash.value(), 0xebc97c3dd1310304ull);
}

TEST(GaScheduler, CorpusScheduleHashPinned) {
  GaOptions options;
  options.population = 16;
  options.generations = 20;
  ScheduleHash hash;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    if (f.demand() <= 32) hash.add(scheduleGA(f, mixers, options));
  });
  EXPECT_EQ(hash.value(), 0x54079b6046b6a8f0ull);
}

// ---------------------------------------------------------------------------
// Bucketed ready queues against heap-ordered references. The just-in-time
// pass, OMS and the verbatim Algorithm 2 pop a detail::BucketQueue; the
// references below rebuild each on a binary min-heap of packed 64-bit
// (priority << 32 | id) keys.

using MinHeap = std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                                    std::greater<>>;
constexpr std::uint64_t kLow32 = 0xFFFFFFFFull;

forest::TaskId popId(MinHeap& heap) {
  const auto id = static_cast<forest::TaskId>(heap.top() & kLow32);
  heap.pop();
  return id;
}

template <typename KeyOf>
class ReferenceHeapPolicy {
 public:
  explicit ReferenceHeapPolicy(KeyOf keyOf) : keyOf_(std::move(keyOf)) {}

  void add(const std::vector<forest::TaskId>& arrivals) {
    for (forest::TaskId id : arrivals) heap_.push(keyOf_(id));
  }

  bool take(unsigned /*t*/, unsigned capacity,
            std::vector<forest::TaskId>& out) {
    while (capacity-- > 0 && !heap_.empty()) out.push_back(popId(heap_));
    return true;
  }

 private:
  KeyOf keyOf_;
  MinHeap heap_;
};

// Algorithm 2's two queues: Type-A/B highest level first, then Type-C
// lowest level first within what the Type-A/B backlog leaves.
class ReferenceAlgorithm2Policy {
 public:
  explicit ReferenceAlgorithm2Policy(const TaskForest& forest)
      : forest_(forest) {}

  void add(const std::vector<forest::TaskId>& arrivals) {
    for (forest::TaskId id : arrivals) {
      const std::uint64_t level = forest_.taskLevels()[id];
      if (forest_.task(id).operandClass == forest::OperandClass::kTypeC) {
        qLeaf_.push((level << 32) | id);
      } else {
        qInt_.push(((kLow32 - level) << 32) | id);
      }
    }
  }

  bool take(unsigned /*t*/, unsigned capacity,
            std::vector<forest::TaskId>& out) {
    const std::size_t intNodes = qInt_.size();
    for (unsigned k = 0; k < capacity && !qInt_.empty(); ++k) {
      out.push_back(popId(qInt_));
    }
    for (std::size_t k = intNodes; k < capacity && !qLeaf_.empty(); ++k) {
      out.push_back(popId(qLeaf_));
    }
    return true;
  }

 private:
  const TaskForest& forest_;
  MinHeap qInt_;
  MinHeap qLeaf_;
};

template <typename Policy>
Schedule referenceForward(const TaskForest& f, unsigned mixers,
                          Policy policy) {
  PlanScratch scratch;
  Schedule s;
  EXPECT_TRUE(detail::runListScheduler(scratch.list, f.initialPending(),
                                       f.initialReady(), detail::consumersOf(f),
                                       mixers, policy, s));
  return s;
}

Schedule referenceOms(const TaskForest& f, unsigned mixers) {
  const std::vector<unsigned> colevel = detail::computeColevels(f);
  return referenceForward(f, mixers,
                          ReferenceHeapPolicy([&](forest::TaskId id) {
                            return ((kLow32 - colevel[id]) << 32) | id;
                          }));
}

// The reversed DAG list-scheduled longest reverse chain first, Type-C first
// among equals, then mirrored in time.
Schedule referenceJustInTime(const TaskForest& f, unsigned mixers) {
  const std::size_t n = f.taskCount();
  std::vector<std::uint64_t> rev(n, 1);
  std::vector<forest::TaskId> roots;
  for (forest::TaskId id = 0; id < n; ++id) {
    for (forest::TaskId dep : {f.depLefts()[id], f.depRights()[id]}) {
      if (dep != forest::kNoTask) rev[id] = std::max(rev[id], rev[dep] + 1);
    }
    if (f.consumedOutCounts()[id] == 0) roots.push_back(id);
  }
  ReferenceHeapPolicy policy([&](forest::TaskId id) {
    const bool typeC = f.task(id).operandClass == forest::OperandClass::kTypeC;
    return ((0x7FFFFFFFull - rev[id]) << 33) |
           (std::uint64_t{typeC ? 0u : 1u} << 32) | id;
  });
  PlanScratch scratch;
  Schedule reversed;
  const auto producersOf = [&](forest::TaskId id) {
    return std::array<forest::TaskId, 2>{f.depLefts()[id], f.depRights()[id]};
  };
  EXPECT_TRUE(detail::runListScheduler(scratch.list, f.consumedOutCounts(),
                                       roots, producersOf, mixers, policy,
                                       reversed));
  Schedule s;
  s.reset(n);
  const unsigned span = reversed.completionTime;
  std::vector<unsigned> used(span + 2, 0);
  for (forest::TaskId id = 0; id < n; ++id) {
    const unsigned cycle = span + 1 - reversed.cycles[id];
    s.place(id, cycle, used[cycle]++);
  }
  s.completionTime = span;
  return s;
}

void expectSameOrder(const Schedule& got, const Schedule& want,
                     const std::string& label) {
  EXPECT_EQ(got.completionTime, want.completionTime) << label;
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.mixers, want.mixers) << label;
}

void expectBucketQueuesMatchHeaps(const TaskForest& f, unsigned mixers,
                                  PlanScratch& scratch,
                                  const std::string& label) {
  expectSameOrder(detail::scheduleJustInTime(f, mixers, scratch),
                  referenceJustInTime(f, mixers), label + " just-in-time");
  expectSameOrder(scheduleOMS(f, mixers, scratch), referenceOms(f, mixers),
                  label + " OMS");
  expectSameOrder(
      scheduleSRSGreedy(f, mixers),
      referenceForward(f, mixers, ReferenceAlgorithm2Policy(f)),
      label + " Algorithm 2");
}

TEST(BucketQueue, CorpusSchedulesMatchHeapOrderedReference) {
  // One scratch for the whole corpus: queues drained by one run are reused
  // by the next, however their class and id counts differ.
  PlanScratch scratch;
  std::size_t runs = 0;
  forEachCorpusForest([&](const TaskForest& f, unsigned mixers) {
    expectBucketQueuesMatchHeaps(
        f, mixers, scratch,
        "D=" + std::to_string(f.demand()) + " mixers=" +
            std::to_string(mixers) + " tasks=" +
            std::to_string(f.taskCount()));
    ++runs;
  });
  EXPECT_GT(runs, 1000u);
}

TEST(BucketQueue, DeepRatioSpansMoreThan64Classes) {
  // Sum 2^40: accuracy level d = 40, so the just-in-time pass's reverse
  // chains reach 40 and its two classes per chain length exceed one mask
  // word.
  const MixingGraph g = buildMM(Ratio({1, 1099511627775ull}));
  PlanScratch scratch;
  for (std::uint64_t demand : {1u, 2u, 7u, 32u}) {
    const TaskForest f(g, demand);
    ASSERT_GT(2 * criticalPathLength(f), 64u);
    for (unsigned mixers : {1u, 2u, 3u, 8u}) {
      expectBucketQueuesMatchHeaps(f, mixers, scratch,
                                   "deep D=" + std::to_string(demand) +
                                       " mixers=" + std::to_string(mixers));
    }
  }
}

TEST(BucketQueue, PopsClassThenIdAcrossWordBoundaries) {
  // 200 classes (four mask words) over 9000 ids (three summary words per
  // class): a drained queue's storage is reused as is, one abandoned with
  // entries left is cleared by the next queue built on it.
  detail::BucketScratch storage;
  std::uint64_t state = 12345;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  for (int round = 0; round < 3; ++round) {
    detail::BucketQueue queue(storage, 200, 9000);
    std::set<std::pair<std::size_t, forest::TaskId>> reference;
    std::vector<bool> used(9000, false);
    for (int step = 0; step < 20000; ++step) {
      if (reference.empty() || next(3) != 0) {
        const auto id = static_cast<forest::TaskId>(next(9000));
        if (used[id]) continue;
        used[id] = true;
        const std::size_t cls = next(200);
        queue.push(cls, id);
        reference.insert({cls, id});
      } else {
        ASSERT_EQ(queue.pop(), reference.begin()->second);
        reference.erase(reference.begin());
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    if (round == 1) continue;  // abandoned with entries left
    while (!reference.empty()) {
      ASSERT_EQ(queue.pop(), reference.begin()->second);
      reference.erase(reference.begin());
    }
    EXPECT_TRUE(queue.empty());
  }
}

// The capped scheduleSRS may return nullopt only when scheduleSRS really
// stores more than the cap, and otherwise returns scheduleSRS's schedule
// exactly, on every forest, mixer bank and cap. An unsound clip or
// trajectory-sharing skip shows up here as a nullopt on a fitting pass; a
// scan that disturbed the prelude or the refinement's scratch shows up as a
// schedule that differs.
TEST(Srs, StorageExceedsCheckIsSound) {
  std::uint64_t exceeding = 0;
  std::uint64_t proven = 0;
  for (const Ratio& r : corpusRatios()) {
    const MixingGraph g = buildMM(r);
    const unsigned mlb = minimumMixers(TaskForest(g, 2));
    for (std::uint64_t demand = 1; demand <= 96; ++demand) {
      const TaskForest f(g, demand);
      for (unsigned mixers : {mlb, 2u, 5u}) {
        const Schedule srs = scheduleSRS(f, mixers);
        const unsigned storage = countStorage(f, srs);
        for (unsigned cap = 0; cap <= 8; ++cap) {
          exceeding += storage > cap ? 1 : 0;
          const std::optional<Schedule> capped = scheduleSRS(f, mixers, cap);
          if (capped.has_value()) {
            EXPECT_EQ(capped->cycles, srs.cycles)
                << r.toString() << " D=" << demand << " mixers=" << mixers
                << " cap=" << cap;
            EXPECT_EQ(capped->mixers, srs.mixers)
                << r.toString() << " D=" << demand << " mixers=" << mixers
                << " cap=" << cap;
            continue;
          }
          ++proven;
          EXPECT_GT(storage, cap) << r.toString() << " D=" << demand
                                  << " mixers=" << mixers;
        }
      }
    }
  }
  // Sound, and conclusive on nearly every pass that does exceed its cap
  // (41660 of 41662 here), or the streaming search saves nothing.
  EXPECT_LE(proven, exceeding);
  EXPECT_GE(proven * 100, exceeding * 99);

  // The heavy PCR stream of the fleet benchmark: its D=256 probe parks
  // dozens of droplets, and the check proves it over the cap of 3 in a
  // handful of runs instead of the refinement's full budget scan.
  const TaskForest heavy(buildMM(pcr()), 256);
  obs::Session session;
  {
    const obs::Scope scope(session);
    EXPECT_FALSE(scheduleSRS(heavy, 3, 3).has_value());
  }
  EXPECT_GT(countStorage(heavy, scheduleSRS(heavy, 3)), 3u);
  EXPECT_EQ(session.metrics.counter("sched.srs.bound_runs").value(), 12u);
}

TEST(Srs, HugeMixerBankSchedulesFig3InBoundedWork) {
  // A plan request may carry any unsigned mixer count. The refinement's
  // window ladder wraps 2 * mixers in unsigned arithmetic; nothing may be
  // sized or indexed by the mixer count itself.
  // Fig. 3 D=20 needs no storage once every task has a mixer; the MTCS
  // 1:3:5:7 forest still parks a droplet, so its refinement scans cap 0
  // with windows 2^31 / UINT_MAX and their wrapped doubles.
  const MixingGraph fig3 = buildMM(pcr());
  const MixingGraph mtcs = buildGraph(Ratio({1, 3, 5, 7}), Algorithm::MTCS);
  struct Pinned {
    TaskForest forest;
    unsigned storage;
    std::uint64_t hash;
  };
  const Pinned cases[] = {{TaskForest(fig3, 20), 0, 0xe3e80994184ddd5cull},
                          {TaskForest(mtcs, 20), 1, 0x9669d2db3051a1deull}};
  const auto start = std::chrono::steady_clock::now();
  for (const Pinned& c : cases) {
    for (unsigned mixers : {1u << 31, 0xFFFFFFFFu}) {
      const Schedule s = scheduleSRS(c.forest, mixers);
      ScheduleHash hash;
      hash.add(s);
      EXPECT_EQ(s.completionTime, 4u) << mixers;
      EXPECT_EQ(countStorage(c.forest, s), c.storage) << mixers;
      EXPECT_EQ(hash.value(), c.hash) << mixers;
    }
  }
  // Microseconds of work; a memo sized by the mixer count would take
  // gigabytes and far longer than this.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

// Parameterized validity sweep: every scheduler produces a valid schedule on
// corpus forests for several mixer counts, and more mixers never hurt much.
struct SchedSweepParam {
  Algorithm algorithm;
  unsigned mixers;
};

class SchedulerCorpusTest
    : public ::testing::TestWithParam<SchedSweepParam> {};

TEST_P(SchedulerCorpusTest, ValidSchedulesOnCorpus) {
  const auto& corpus = workload::evaluationCorpus();
  for (std::size_t i = 0; i < corpus.size(); i += 97) {
    const Ratio& r = corpus[i];
    MixingGraph g = buildGraph(r, GetParam().algorithm);
    TaskForest f(g, 32);
    for (const Schedule& s :
         {scheduleMMS(f, GetParam().mixers), scheduleSRS(f, GetParam().mixers),
          scheduleOMS(f, GetParam().mixers)}) {
      validateOrThrow(f, s);
      EXPECT_GE(s.completionTime, criticalPathLength(f)) << r.toString();
      EXPECT_GE(s.completionTime,
                (f.taskCount() + GetParam().mixers - 1) / GetParam().mixers)
          << r.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerCorpusTest,
    ::testing::Values(SchedSweepParam{Algorithm::MM, 1},
                      SchedSweepParam{Algorithm::MM, 2},
                      SchedSweepParam{Algorithm::MM, 4},
                      SchedSweepParam{Algorithm::RMA, 3},
                      SchedSweepParam{Algorithm::MTCS, 3}),
    [](const auto& paramInfo) {
      return std::string(mixgraph::algorithmName(paramInfo.param.algorithm)) +
             "_M" + std::to_string(paramInfo.param.mixers);
    });

}  // namespace
}  // namespace dmf::sched
