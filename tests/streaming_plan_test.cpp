// Regression tests for the streaming-planner storage-cap fixes and the
// pass-evaluation layer (PassCache under runtime::parallelFor, and the
// sched::PlanScratch each planning call owns).
//
// The two planner bugs covered here shipped in the original bisection
// planner: (1) the remainder pass was never checked against the storage cap,
// so a feasible per-pass demand with an infeasible tail silently emitted a
// cap-violating plan; (2) the bisection assumed scheduled storage is
// monotone in demand, but the SRS storage curve dips when the forest
// recomposes, making the bisection stop short of the true largest feasible
// per-pass demand.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmf/errors.h"
#include "engine/mdst.h"
#include "engine/pass_cache.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "runtime/parallel_for.h"
#include "sched/plan_scratch.h"
#include "sched/schedulers.h"
#include "workload/random_ratios.h"

namespace dmf::engine {
namespace {

using mixgraph::Algorithm;

StreamingRequest request(std::uint64_t demand, unsigned cap, unsigned mixers,
                         unsigned jobs = 1) {
  StreamingRequest r;
  r.demand = demand;
  r.storageCap = cap;
  r.mixers = mixers;
  r.jobs = jobs;
  return r;
}

MdstEngine engineFor(const std::string& ratioText) {
  const auto ratio = Ratio::parse(ratioText);
  EXPECT_TRUE(ratio.has_value()) << ratioText;
  return MdstEngine(*ratio);
}

void expectAllPassesFit(const StreamingPlan& plan, unsigned cap,
                        std::uint64_t demand, const std::string& label) {
  std::uint64_t produced = 0;
  for (const StreamingPass& pass : plan.passes) {
    EXPECT_LE(pass.storageUnits, cap) << label << " pass D'=" << pass.demand;
    produced += pass.demand;
  }
  EXPECT_LE(plan.storageUnits, cap) << label;
  EXPECT_EQ(produced, demand) << label;
}

// Bug 1: ratio 7:3:3:3 on two mixers under cap 3 — the largest bisection
// answer for D=13 is D'=8, whose remainder pass of 5 droplets needs 4
// storage units. The original planner returned that cap-violating plan.
TEST(StreamingPlanFix, RemainderPassRespectsStorageCap) {
  MdstEngine engine = engineFor("7:3:3:3");
  for (const std::uint64_t demand : {13u, 21u}) {
    const StreamingPlan plan = planStreaming(engine, request(demand, 3, 2));
    expectAllPassesFit(plan, 3, demand, "7:3:3:3 D=" + std::to_string(demand));
  }
}

// Bug 1, swept: no (cap, demand) combination may emit a pass above the cap.
TEST(StreamingPlanFix, NoPassEverExceedsCapAcrossSweep) {
  MdstEngine engine = engineFor("7:5:4");
  PassCache cache;
  for (unsigned cap : {2u, 3u, 5u}) {
    for (std::uint64_t demand = 7; demand <= 40; ++demand) {
      StreamingPlan plan;
      try {
        plan = planStreaming(engine, request(demand, cap, 2), cache);
      } catch (const std::runtime_error&) {
        continue;  // genuinely infeasible cap is fine; emitting a bad plan is not
      }
      expectAllPassesFit(plan, cap, demand,
                         "7:5:4 cap=" + std::to_string(cap) +
                             " D=" + std::to_string(demand));
    }
  }
}

// Bug 2: ratio 14:2 on two mixers has a non-monotone SRS storage curve —
// demands 9..12 need 2 units but 13..16 drop back to 1. Under cap 1 with
// D=16 the bisection stopped at D'=8 (two passes); the whole demand fits in
// one pass, and the verified search must find it.
TEST(StreamingPlanFix, NonMonotoneStorageStillFindsLargestFeasible) {
  MdstEngine engine = engineFor("14:2");
  PassCache cache;

  // Pin the non-monotone dip itself so this regression keeps meaning.
  const unsigned storageAt12 =
      cache.evaluate(engine, Algorithm::MM, Scheme::kSRS, 2, 12).storageUnits;
  const unsigned storageAt16 =
      cache.evaluate(engine, Algorithm::MM, Scheme::kSRS, 2, 16).storageUnits;
  ASSERT_GT(storageAt12, storageAt16) << "storage curve no longer dips; "
                                         "pick a new non-monotone instance";

  const StreamingPlan plan =
      planStreaming(engine, request(16, storageAt16, 2), cache);
  expectAllPassesFit(plan, storageAt16, 16, "14:2 cap=1 D=16");
  EXPECT_EQ(plan.perPassDemand, 16u)
      << "verified search should discover the single-pass plan above the dip";
  EXPECT_EQ(plan.passes.size(), 1u);
}

TEST(StreamingPlanFix, OptimizedRejectsOverflowingDemand) {
  MdstEngine engine = engineFor("7:3:3:3");
  EXPECT_THROW(
      (void)planStreamingOptimized(
          engine,
          request(std::numeric_limits<std::uint64_t>::max(), 5, 2)),
      std::invalid_argument);
}

TEST(StreamingPlanFix, OptimizedStillNeverSlowerAndCapped) {
  MdstEngine engine = engineFor("7:3:3:3");
  PassCache cache;
  for (unsigned cap : {3u, 4u, 6u}) {
    for (const std::uint64_t demand : {13u, 21u, 29u}) {
      const StreamingPlan paper =
          planStreaming(engine, request(demand, cap, 2), cache);
      const StreamingPlan opt =
          planStreamingOptimized(engine, request(demand, cap, 2), cache);
      EXPECT_LE(opt.totalCycles, paper.totalCycles)
          << "cap=" << cap << " D=" << demand;
      expectAllPassesFit(opt, cap, demand,
                         "optimized cap=" + std::to_string(cap));
    }
  }
}

TEST(PassCacheAccounting, CountsHitsAndMisses) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;

  const StreamingPass first =
      cache.evaluate(engine, Algorithm::MM, Scheme::kSRS, 3, 8);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);

  const StreamingPass second =
      cache.evaluate(engine, Algorithm::MM, Scheme::kSRS, 3, 8);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(second.storageUnits, first.storageUnits);

  // A different demand is a different key.
  (void)cache.evaluate(engine, Algorithm::MM, Scheme::kSRS, 3, 12);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);

  // Stage timings only accumulate on misses.
  EXPECT_GT(cache.stats().totalNanos(), 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evaluations(), 0u);
}

TEST(PassCacheAccounting, SecondPlanIsAllHits) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;
  const StreamingPlan first = planStreaming(engine, request(32, 3, 3), cache);
  const std::uint64_t missesAfterFirst = cache.stats().misses;
  EXPECT_GT(missesAfterFirst, 0u);

  const StreamingPlan second = planStreaming(engine, request(32, 3, 3), cache);
  EXPECT_EQ(cache.stats().misses, missesAfterFirst)
      << "a repeated plan must be served entirely from the cache";
  EXPECT_EQ(second.totalCycles, first.totalCycles);
  EXPECT_EQ(second.perPassDemand, first.perPassDemand);
}

TEST(PassCacheAccounting, LookupDoesNotCompute) {
  MdstEngine engine = engineFor("3:1");
  PassCache cache;
  const PassKey key{Algorithm::MM, Scheme::kSRS, 2, 8};
  EXPECT_FALSE(cache.lookup(key).has_value());
  (void)cache.evaluate(engine, Algorithm::MM, Scheme::kSRS, 2, 8);
  EXPECT_TRUE(cache.lookup(key).has_value());
}

void expectPlansIdentical(const StreamingPlan& a, const StreamingPlan& b,
                          const std::string& label) {
  EXPECT_EQ(a.perPassDemand, b.perPassDemand) << label;
  EXPECT_EQ(a.totalCycles, b.totalCycles) << label;
  EXPECT_EQ(a.totalWaste, b.totalWaste) << label;
  EXPECT_EQ(a.totalInput, b.totalInput) << label;
  EXPECT_EQ(a.storageUnits, b.storageUnits) << label;
  EXPECT_EQ(a.mixers, b.mixers) << label;
  ASSERT_EQ(a.passes.size(), b.passes.size()) << label;
  for (std::size_t i = 0; i < a.passes.size(); ++i) {
    EXPECT_EQ(a.passes[i].demand, b.passes[i].demand) << label << " pass " << i;
    EXPECT_EQ(a.passes[i].cycles, b.passes[i].cycles) << label << " pass " << i;
    EXPECT_EQ(a.passes[i].storageUnits, b.passes[i].storageUnits)
        << label << " pass " << i;
    EXPECT_EQ(a.passes[i].waste, b.passes[i].waste) << label << " pass " << i;
    EXPECT_EQ(a.passes[i].inputDroplets, b.passes[i].inputDroplets)
        << label << " pass " << i;
    EXPECT_EQ(a.passes[i].mixSplits, b.passes[i].mixSplits)
        << label << " pass " << i;
  }
}

// Four workers and one worker must produce field-identical optimized plans
// (or both throw): the parallel fits sweep only settles the cache, and the
// serial reduction re-reads it. The non-monotone 14:2 curve and caps too
// tight for any pass are among the inputs.
TEST(StreamingPlanParallel, OptimizedFourThreadsMatchOneThread) {
  struct Case {
    const char* ratio;
    unsigned mixers;
  };
  for (const Case c : {Case{"2:1:1:1:1:1:9", 3}, Case{"2:1:1:1:1:1:9", 2},
                       Case{"7:5:4", 2}, Case{"14:2", 2}}) {
    MdstEngine serialEngine = engineFor(c.ratio);
    MdstEngine parallelEngine = engineFor(c.ratio);
    for (unsigned cap : {1u, 3u, 5u}) {
      for (const std::uint64_t demand : {16u, 20u, 23u, 37u}) {
        StreamingPlan serial, parallel;
        bool serialThrew = false;
        bool parallelThrew = false;
        try {
          serial = planStreamingOptimized(
              serialEngine, request(demand, cap, c.mixers, 1));
        } catch (const std::runtime_error&) {
          serialThrew = true;
        }
        try {
          parallel = planStreamingOptimized(
              parallelEngine, request(demand, cap, c.mixers, 4));
        } catch (const std::runtime_error&) {
          parallelThrew = true;
        }
        const std::string label = std::string(c.ratio) + " mixers=" +
                                  std::to_string(c.mixers) + " cap=" +
                                  std::to_string(cap) +
                                  " D=" + std::to_string(demand);
        EXPECT_EQ(serialThrew, parallelThrew) << label;
        if (!serialThrew && !parallelThrew) {
          expectPlansIdentical(serial, parallel, label);
        }
      }
    }
  }
}

// Concurrent evaluation of overlapping keys through one shared cache: what
// the TSan-labelled ctest run guards.
TEST(PassCacheAccounting, ConcurrentEvaluationIsConsistent) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;
  std::vector<unsigned> storage(64);
  runtime::parallelFor(4, storage.size(), [&](std::uint64_t i, unsigned) {
    // Demands overlap heavily (i % 8), forcing hit and miss paths to race.
    storage[i] = cache
                     .evaluate(engine, Algorithm::MM, Scheme::kSRS, 3,
                               2 + (i % 8))
                     .storageUnits;
  });
  for (std::size_t i = 0; i < storage.size(); ++i) {
    const unsigned serial =
        evaluatePass(engine, Algorithm::MM, Scheme::kSRS, 3, 2 + (i % 8))
            ->storageUnits;
    EXPECT_EQ(storage[i], serial) << "demand " << 2 + (i % 8);
  }
  EXPECT_EQ(cache.stats().evaluations(), storage.size());
}

// The optimized planner asks fits() for every candidate D' in [1, D] and
// evaluates in full only the ones that fit, so each candidate is settled
// once: as a miss (it fits) or a bound reject (proven over the cap), and
// every remainder is read back from an entry or the floor memo. At jobs 4
// the parallel sweep settles the candidates, and the serial reduction then
// reads each one again: a hit if it fits, a floor-memo bound reject if not.
TEST(PassCacheAccounting, OptimizedPlanEvaluatesOnlyFittingCandidates) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  struct Pinned {
    std::uint64_t demand;
    std::uint64_t fitting;
  };
  for (const Pinned pinned : {Pinned{20, 20}, Pinned{37, 22}}) {
    std::uint64_t fitting = 0;
    for (std::uint64_t d = 1; d <= pinned.demand; ++d) {
      const unsigned storage =
          evaluatePass(engine, Algorithm::MM, Scheme::kSRS, 3, d)->storageUnits;
      if (storage <= 5) ++fitting;
    }
    EXPECT_EQ(fitting, pinned.fitting) << "D=" << pinned.demand;
    const std::uint64_t overCap = pinned.demand - pinned.fitting;
    for (const unsigned jobs : {1u, 4u}) {
      PassCache cache;
      (void)planStreamingOptimized(engine, request(pinned.demand, 5, 3, jobs),
                                   cache);
      const PassCacheStats stats = cache.stats();
      const std::string label = "jobs=" + std::to_string(jobs) +
                                " D=" + std::to_string(pinned.demand);
      EXPECT_EQ(stats.misses, pinned.fitting) << label;
      EXPECT_EQ(cache.size(), pinned.fitting) << label;
      EXPECT_EQ(stats.misses + stats.boundRejects,
                pinned.demand + (jobs > 1 ? overCap : 0))
          << label;
    }
  }
}

// The heavy PCR stream of the fleet benchmark (D=256, cap 3, Mlb mixers):
// the verified search probes 13 distinct demands, and 8 of them park 4 to
// 95 droplets. fits() proves each of those over the cap once without a full
// evaluation, so only the 5 demands that fit are evaluated, and the plan is
// unchanged.
TEST(PassCacheAccounting, InfeasibleProbesSkipFullEvaluation) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;
  const StreamingPlan plan = planStreaming(engine, request(256, 3, 0), cache);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().boundRejects, 8u);
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(plan.perPassDemand, 14u);
  EXPECT_EQ(plan.passes.size(), 19u);
  EXPECT_EQ(plan.totalCycles, 112u);
  expectAllPassesFit(plan, 3, 256, "heavy");
}

// fits() answers from a full entry, then from the floor memo, and only
// then checks or evaluates; its answer always matches a full evaluation.
TEST(PassCacheAccounting, FitsAnswersFromFloorMemo) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;
  const unsigned storage =
      evaluatePass(engine, Algorithm::MM, Scheme::kSRS, 3, 64)->storageUnits;
  ASSERT_GT(storage, 3u);

  EXPECT_FALSE(cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 64, 3));
  EXPECT_EQ(cache.stats().boundRejects, 1u);
  // A tighter cap is settled by the floor memo; a looser one that still
  // exceeds is proven afresh and raises the floor.
  EXPECT_FALSE(cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 64, 1));
  EXPECT_FALSE(
      cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 64, storage - 1));
  EXPECT_EQ(cache.stats().boundRejects, 3u);
  EXPECT_EQ(cache.stats().evaluations(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  // A fitting cap cannot be proven over, so it evaluates once and every
  // later probe of the key reads the full entry.
  EXPECT_TRUE(cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 64, storage));
  EXPECT_FALSE(cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 64, 2));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().boundRejects, 3u);

  // MMS makes one schedule, so there is nothing to clip: it evaluates.
  EXPECT_EQ(cache.fits(engine, Algorithm::MM, Scheme::kMMS, 3, 64, 3),
            evaluatePass(engine, Algorithm::MM, Scheme::kMMS, 3, 64)
                    ->storageUnits <= 3);
  EXPECT_EQ(cache.stats().misses, 2u);

  cache.clear();
  EXPECT_EQ(cache.stats().boundRejects, 0u);
  EXPECT_TRUE(cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 64, storage));
  EXPECT_EQ(cache.stats().misses, 1u);
}

// Concurrent fits() over overlapping keys and caps through one shared
// cache: full entries and floors are written while other threads read them.
TEST(PassCacheAccounting, ConcurrentFitsIsConsistent) {
  MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;
  const auto demandOf = [](std::uint64_t i) { return 8 + 7 * (i % 6); };
  const auto capOf = [](std::uint64_t i) {
    return static_cast<unsigned>(1 + (i / 6) % 5);
  };
  std::vector<char> fits(90);
  runtime::parallelFor(4, fits.size(), [&](std::uint64_t i, unsigned) {
    fits[i] = cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, demandOf(i),
                         capOf(i));
  });
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const unsigned storage =
        evaluatePass(engine, Algorithm::MM, Scheme::kSRS, 3, demandOf(i))
            ->storageUnits;
    EXPECT_EQ(fits[i] != 0, storage <= capOf(i))
        << "demand " << demandOf(i) << " cap " << capOf(i);
  }
  const PassCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evaluations() + stats.boundRejects, fits.size());
}

TEST(PassKeyHash, DistinctOverSweepGrid) {
  // The exact key grid a planner sweep touches: every (algorithm, scheme,
  // mixers, demand) combination must hash distinctly — 64-bit collisions on
  // a few thousand structured keys would mean the mix is broken.
  constexpr Algorithm kAlgos[] = {Algorithm::MM, Algorithm::RMA,
                                  Algorithm::MTCS, Algorithm::RSM};
  constexpr Scheme kSchemes[] = {Scheme::kMMS, Scheme::kSRS, Scheme::kOMS};
  const PassKeyHash hash;
  std::set<std::size_t> seen;
  std::size_t keys = 0;
  for (const Algorithm algorithm : kAlgos) {
    for (const Scheme scheme : kSchemes) {
      for (unsigned mixers = 1; mixers <= 4; ++mixers) {
        for (std::uint64_t demand = 1; demand <= 64; ++demand) {
          seen.insert(hash(PassKey{algorithm, scheme, mixers, demand}));
          ++keys;
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), keys);
}

TEST(PassKeyHash, SpreadsConsecutiveDemands) {
  // Demand sweeps insert consecutive integers — the access pattern that
  // collided modulo small bucket counts before the per-field avalanche.
  // A well-mixed hash fills ~63% of N buckets with N random keys; the old
  // field-XOR hash landed consecutive demands in clustered buckets.
  const PassKeyHash hash;
  constexpr std::size_t kBuckets = 4096;
  std::set<std::size_t> buckets;
  for (std::uint64_t demand = 1; demand <= kBuckets; ++demand) {
    buckets.insert(hash(PassKey{Algorithm::MM, Scheme::kSRS, 4, demand}) %
                   kBuckets);
  }
  EXPECT_GE(buckets.size(), kBuckets * 55 / 100);
  EXPECT_LE(buckets.size(), kBuckets * 72 / 100);
}

// --------------------------------------------------------------------------
// PlanScratch: a run on a scratch that just ran a long schedule gives the
// same bytes as a fresh scratch and pays only for its own cycles.

void expectSamePass(const StreamingPass& a, const StreamingPass& b,
                    const std::string& label) {
  EXPECT_EQ(a.demand, b.demand) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.storageUnits, b.storageUnits) << label;
  EXPECT_EQ(a.waste, b.waste) << label;
  EXPECT_EQ(a.inputDroplets, b.inputDroplets) << label;
  EXPECT_EQ(a.mixSplits, b.mixSplits) << label;
}

void expectSameSchedule(const sched::Schedule& a, const sched::Schedule& b,
                        const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.mixers, b.mixers) << label;
  EXPECT_EQ(a.completionTime, b.completionTime) << label;
  EXPECT_EQ(a.scheme, b.scheme) << label;
}

TEST(PlanScratch, SmallRunAfterLargeMatchesFreshAndClearsOnlyItsSlots) {
  const MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  sched::PlanScratch scratch;
  const std::optional<StreamingPass> large = evaluatePass(
      engine, Algorithm::MM, Scheme::kMMS, 3, 4096, std::nullopt, nullptr,
      scratch);
  ASSERT_TRUE(large.has_value());
  ASSERT_GE(large->cycles, 1000u);

  // The small pass's bytes equal a fresh scratch's, capped or not.
  const forest::TaskForest small = engine.buildForest(Algorithm::MM, 20);
  expectSameSchedule(*schedule(small, Scheme::kSRS, 3, std::nullopt, scratch),
                     sched::scheduleSRS(small, 3), "SRS");
  for (const unsigned cap : {3u, 5u}) {
    const std::string label = "SRS under cap " + std::to_string(cap);
    const std::optional<sched::Schedule> reused =
        schedule(small, Scheme::kSRS, 3, cap, scratch);
    const std::optional<sched::Schedule> fresh =
        sched::scheduleSRS(small, 3, cap);
    ASSERT_EQ(reused.has_value(), fresh.has_value()) << label;
    if (fresh.has_value()) expectSameSchedule(*reused, *fresh, label);
  }
  expectSamePass(*evaluatePass(engine, Algorithm::MM, Scheme::kSRS, 3, 20,
                               std::nullopt, nullptr, scratch),
                 *evaluatePass(engine, Algorithm::MM, Scheme::kSRS, 3, 20),
                 "D=20");

  // One list-scheduling run clears at most its own cycles + 2 arrival
  // slots, not the ~large->cycles slots the long run pushed to.
  const std::uint64_t before = scratch.arrivalSlotsCleared();
  const sched::Schedule mms = sched::scheduleMMS(small, 3, scratch);
  EXPECT_LE(scratch.arrivalSlotsCleared() - before,
            std::uint64_t{mms.completionTime} + 2);
  EXPECT_GT(scratch.arrivalSlotsCleared(), before);
}

TEST(PlanScratch, CappedRunsVisitOnlyWhatTheyTakeOrRefuse) {
  // A "no" from fits() is proven by the clipped scan's capped runs, which
  // fail within a few cycles of a forest whose cycle-1 ready list holds
  // hundreds of dispense mixes. Each cycle may read the ready consumers and
  // the producers it serves, plus the one it refuses: never the whole list.
  const MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  PassCache cache;
  sched::PlanScratch scratch;
  ASSERT_FALSE(
      cache.fits(engine, Algorithm::MM, Scheme::kSRS, 3, 4096, 3, scratch));
  const sched::detail::CappedScratch& capped = scratch.capped;
  ASSERT_GT(capped.cyclesRun, 0u);
  EXPECT_GT(capped.initialReady.size(), 100u);
  EXPECT_LE(capped.readyVisits, 4 * (capped.tasksTaken + capped.cyclesRun))
      << capped.tasksTaken << " tasks in " << capped.cyclesRun << " cycles";
}

TEST(PlanScratch, ReusedAcrossASweepMatchesFreshScratch) {
  // Large and small passes interleaved on one scratch, under the cap the
  // streaming search probes with and without it, for every scheme.
  const MdstEngine engine = engineFor("2:1:1:1:1:1:9");
  sched::PlanScratch scratch;
  for (const Scheme scheme : {Scheme::kSRS, Scheme::kMMS, Scheme::kOMS}) {
    for (const std::uint64_t demand : {256u, 3u, 97u, 2u, 40u, 128u, 5u}) {
      const std::string label = std::string(schemeName(scheme)) +
                                " D=" + std::to_string(demand);
      for (const std::optional<unsigned> cap :
           {std::optional<unsigned>(), std::optional<unsigned>(3u)}) {
        const std::optional<StreamingPass> reused = evaluatePass(
            engine, Algorithm::MM, scheme, 3, demand, cap, nullptr, scratch);
        const std::optional<StreamingPass> fresh =
            evaluatePass(engine, Algorithm::MM, scheme, 3, demand, cap);
        ASSERT_EQ(reused.has_value(), fresh.has_value()) << label;
        if (fresh.has_value()) expectSamePass(*reused, *fresh, label);
      }
    }
  }
}

TEST(PlanScratch, OneScratchAcrossTheCorpusMatchesFreshScratch) {
  // A fleet dispatch plans stream after stream on one scratch per
  // participant. Every ratio of the seeded corpus (one random ratio per sum
  // 16/32/64 and 2..8 parts), largest demand first, both planners: each
  // plan (or refusal) on the shared scratch must equal a fresh scratch's,
  // byte for byte.
  sched::PlanScratch scratch;
  std::uint64_t compared = 0;
  for (const std::uint64_t sum : {16u, 32u, 64u}) {
    for (std::size_t parts = 2; parts <= 8; ++parts) {
      workload::RandomRatioGenerator gen(sum, parts, sum * 16 + parts);
      const MdstEngine engine(gen.next());
      for (const std::uint64_t demand : {96u, 40u, 17u, 2u}) {
        for (const bool optimize : {false, true}) {
          const StreamingRequest r = request(demand, 4, 0);
          const auto plan = [&](sched::PlanScratch* shared) {
            PassCache cache;
            try {
              const StreamingPlan p =
                  shared == nullptr
                      ? (optimize ? planStreamingOptimized(engine, r, cache)
                                  : planStreaming(engine, r, cache))
                      : (optimize ? planStreamingOptimized(engine, r, cache,
                                                           *shared)
                                  : planStreaming(engine, r, cache, *shared));
              return toJson(p).dump();
            } catch (const InfeasibleError& e) {
              return std::string("infeasible: ") + e.what();
            }
          };
          EXPECT_EQ(plan(&scratch), plan(nullptr))
              << engine.ratio().toString() << " D=" << demand
              << (optimize ? " optimized" : "");
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 21u * 4u * 2u);
}

}  // namespace
}  // namespace dmf::engine
