#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "chip/pcr_layout.h"
#include "engine/serialize.h"
#include "mixgraph/builders.h"
#include "sched/schedulers.h"

namespace dmf::engine {
namespace {

using forest::TaskForest;
using mixgraph::buildMM;
using mixgraph::MixingGraph;

Ratio pcr() { return Ratio({2, 1, 1, 1, 1, 1, 9}); }

/// delivered + shortfall must always cover the demand, and the round sums
/// must match the report aggregates — the conservation laws every recovery
/// run obeys regardless of the fault pattern.
void checkInvariants(const RecoveryReport& r) {
  EXPECT_EQ(r.delivered + r.shortfall, r.demand);
  EXPECT_LE(r.roundsUsed, r.retryBudget);
  EXPECT_EQ(r.rounds.size(), r.roundsUsed);
  std::uint64_t mixSplits = 0;
  std::uint64_t inputs = 0;
  for (const RepairRound& round : r.rounds) {
    EXPECT_FALSE(round.needs.empty());
    for (const forest::NodeDemand& need : round.needs) {
      EXPECT_GT(need.count, 0u);
    }
    mixSplits += round.mixSplits;
    inputs += round.inputDroplets;
  }
  EXPECT_EQ(r.extraMixSplits, mixSplits);
  EXPECT_EQ(r.extraInputDroplets, inputs);
  if (r.shortfall > 0) {
    EXPECT_TRUE(r.degraded);
  }
}

TEST(Recovery, FaultFreeRunDeliversFullDemand) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  const RecoveryEngine engine{RecoveryOptions{}};
  const RecoveryReport r = engine.run(f, s);
  EXPECT_EQ(r.delivered, 8u);
  EXPECT_EQ(r.shortfall, 0u);
  EXPECT_EQ(r.escapedErrors, 0u);
  EXPECT_TRUE(r.faults.empty());
  EXPECT_TRUE(r.rounds.empty());
  EXPECT_FALSE(r.degraded);
  // With no faults the replay tracks the schedule exactly.
  EXPECT_EQ(r.completionCycle, s.completionTime);
  checkInvariants(r);
}

TEST(Recovery, FaultFreeRunLeavesPlanOutputByteIdentical) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  const std::string before = toJson(f, s).dump();
  const RecoveryEngine engine{RecoveryOptions{}};
  (void)engine.run(f, s);
  EXPECT_EQ(toJson(f, s).dump(), before);
}

TEST(Recovery, DeterministicForSeed) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 16);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("split=0.3,eps=0.2,loss=0.1");
  opts.seed = 1337;
  const std::string a = toJson(RecoveryEngine{opts}.run(f, s)).dump();
  const std::string b = toJson(RecoveryEngine{opts}.run(f, s)).dump();
  EXPECT_EQ(a, b);
  opts.seed = 1338;
  const std::string c = toJson(RecoveryEngine{opts}.run(f, s)).dump();
  EXPECT_NE(a, c);
}

TEST(Recovery, HandlesFaultsAcrossSeedsWithoutThrowing) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("split=0.2,loss=0.1,dispense=0.05");
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    opts.seed = seed;
    checkInvariants(RecoveryEngine{opts}.run(f, s));
  }
}

TEST(Recovery, DispenseFailuresOnlyDelayCompletion) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("dispense=0.4");
  opts.seed = 11;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  // Misfires waste mixer slots but never corrupt droplets: full delivery,
  // later completion, no repair rounds.
  EXPECT_EQ(r.delivered, r.demand);
  EXPECT_TRUE(r.rounds.empty());
  EXPECT_GE(r.completionCycle, r.baseCompletion);
  EXPECT_FALSE(r.faults.empty());
  for (const fault::FaultEvent& e : r.faults) {
    EXPECT_EQ(e.kind, fault::FaultKind::kDispenseFail);
  }
  checkInvariants(r);
}

TEST(Recovery, LostDropletsRepairViaInteriorDemand) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 16);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("loss=0.15");
  opts.seed = 42;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  checkInvariants(r);
  ASSERT_FALSE(r.faults.empty());
  // A loss costs a repair round, and the demand-driven repair re-executes
  // strictly fewer mix-splits than restarting the assay would.
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_GT(r.extraMixSplits, 0u);
  EXPECT_LT(r.rounds.front().mixSplits, f.stats().mixSplits);
  // Stall-don't-cancel: every detected loss demands a replacement at the
  // lost droplet's own node, so no round collapses to whole-tree demand.
  for (const RepairRound& round : r.rounds) {
    std::uint64_t total = 0;
    for (const forest::NodeDemand& need : round.needs) total += need.count;
    EXPECT_LT(total, r.demand);
  }
}

TEST(Recovery, SplitImbalanceBeyondThresholdIsDiscardedAndRemade) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("split=0.5,eps=0.9");
  opts.seed = 5;
  opts.retryBudget = 8;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  checkInvariants(r);
  EXPECT_FALSE(r.faults.empty());
  // eps up to 0.9 pushes most faulted splits past the quantization
  // threshold, so checkpoints must discard droplets and splice repairs.
  EXPECT_GT(r.discarded, 0u);
  EXPECT_GT(r.roundsUsed, 0u);
}

TEST(Recovery, RetryBudgetZeroDegradesGracefully) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("loss=1.0");
  opts.seed = 1;
  opts.retryBudget = 0;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  checkInvariants(r);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.shortfall, 0u);
  EXPECT_NE(r.degradationReason.find("retry budget"), std::string::npos);
}

TEST(Recovery, RetryBudgetBoundaryIsNotOffByOne) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  // Reference run with the maximum budget: find how many repair rounds
  // this fault pattern actually needs.
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("loss=0.3");
  opts.seed = 7;
  opts.retryBudget = 64;
  const RecoveryReport reference = RecoveryEngine{opts}.run(f, s);
  checkInvariants(reference);
  ASSERT_GE(reference.roundsUsed, 2u)
      << "fault pattern too mild to exercise the boundary";
  ASSERT_FALSE(reference.degraded);
  const unsigned needed = reference.roundsUsed;

  // Budget == rounds needed: the last permitted round is the one that
  // finishes the repair — no spurious budget degradation.
  opts.retryBudget = needed;
  const RecoveryReport exact = RecoveryEngine{opts}.run(f, s);
  checkInvariants(exact);
  EXPECT_EQ(exact.roundsUsed, needed);
  EXPECT_FALSE(exact.degraded);
  EXPECT_EQ(exact.delivered, exact.demand);

  // One round short: the run degrades with the budget named, and never
  // splices a round past the budget.
  opts.retryBudget = needed - 1;
  const RecoveryReport short1 = RecoveryEngine{opts}.run(f, s);
  checkInvariants(short1);
  EXPECT_TRUE(short1.degraded);
  EXPECT_LE(short1.roundsUsed, needed - 1);
  EXPECT_NE(short1.degradationReason.find("retry budget exhausted (" +
                                          std::to_string(needed - 1) +
                                          " rounds)"),
            std::string::npos);
}

TEST(Recovery, RetryBudgetCtorBoundary) {
  RecoveryOptions opts;
  opts.retryBudget = 64;  // the documented maximum
  EXPECT_NO_THROW(RecoveryEngine{opts});
  opts.retryBudget = 65;
  EXPECT_THROW(RecoveryEngine{opts}, std::invalid_argument);
}

TEST(Recovery, InputBudgetExhaustionDegrades) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("loss=0.5");
  opts.seed = 3;
  // Exactly the fault-free stock: any repair round needs droplets the
  // reservoirs no longer hold.
  opts.inputBudget = f.stats().inputTotal;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  checkInvariants(r);
  EXPECT_TRUE(r.degraded);
  EXPECT_NE(r.degradationReason.find("input budget"), std::string::npos);
  EXPECT_TRUE(r.rounds.empty());
}

TEST(Recovery, StorageCappedRepairScheduling) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 16);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("loss=0.2");
  opts.seed = 9;
  opts.storageCap = 5;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  checkInvariants(r);
}

TEST(Recovery, ElectrodeDeathsShrinkTheMixerBank) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 16);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  const chip::Layout layout = chip::makePcrLayout();
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("electrode=0.5");
  opts.seed = 21;
  opts.layout = &layout;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  checkInvariants(r);
  EXPECT_FALSE(r.deadCells.empty());
  EXPECT_LE(r.mixersLost + r.storageLost, r.deadCells.size());
  EXPECT_LE(r.mixersLost, s.mixerCount);
  for (const chip::Cell& c : r.deadCells) {
    EXPECT_GE(c.x, 0);
    EXPECT_LT(c.x, layout.width());
    EXPECT_GE(c.y, 0);
    EXPECT_LT(c.y, layout.height());
  }
}

TEST(Recovery, DetectionLatencyLetsSomeErrorsEscapeOrPropagate) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 16);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("split=0.4,eps=0.9");
  opts.seed = 42;
  // Immediate sensing catches at least as many errors as a 4-cycle-late,
  // every-4th-cycle sensor on the same fault sequence.
  const RecoveryReport sharp = RecoveryEngine{opts}.run(f, s);
  opts.checkpoint.everyLevels = 4;
  opts.checkpoint.detectionLatency = 4;
  const RecoveryReport blunt = RecoveryEngine{opts}.run(f, s);
  checkInvariants(sharp);
  checkInvariants(blunt);
  EXPECT_GE(blunt.escapedErrors + blunt.shortfall,
            sharp.escapedErrors + sharp.shortfall);
}

// Byte-identity golden for recovery: FNV-1a over the JSON and the rendered
// text of RecoveryEngine::run reports across seeded fault specs, with and
// without a layout, capped and uncapped, and under tight retry budgets.
// Any change to the draw order, the CF threshold, the cycle limit or the
// repair splicing moves the hash.
TEST(Recovery, SeededReportsHashPinned) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 16);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  const chip::Layout layout = chip::makePcrLayout();
  struct Case {
    const char* spec;
    unsigned retryBudget;
    unsigned storageCap;
    bool withLayout;
  };
  const Case cases[] = {
      {"split=0.3,eps=0.2,loss=0.1", 4, 0, false},
      {"split=0.4,eps=0.9", 1, 0, false},
      {"loss=0.4", 0, 0, false},
      {"loss=0.3,dispense=0.1", 2, 5, false},
      {"electrode=0.3", 4, 0, false},
      {"electrode=0.5,loss=0.1", 1, 0, false},
      {"electrode=0.5", 4, 0, true},
      {"split=0.2,loss=0.2,dispense=0.05,electrode=0.1", 1, 4, true},
  };
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t degraded = 0;
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      RecoveryOptions opts;
      opts.faults = fault::FaultSpec::parse(c.spec);
      opts.seed = seed;
      opts.retryBudget = c.retryBudget;
      opts.storageCap = c.storageCap;
      if (c.withLayout) opts.layout = &layout;
      const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
      checkInvariants(r);
      if (r.degraded) ++degraded;
      for (const std::string& bytes : {toJson(r).dump(), renderReport(r)}) {
        for (const char ch : bytes) {
          hash = (hash ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
        }
      }
    }
  }
  EXPECT_EQ(degraded, 17u);
  EXPECT_EQ(hash, 0xe909ecb14c7892c8ull);
}

TEST(Recovery, RejectsInvalidOptionsAndInputs) {
  RecoveryOptions opts;
  opts.checkpoint.everyLevels = 0;
  EXPECT_THROW(RecoveryEngine{opts}, std::invalid_argument);
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 4);
  sched::Schedule wrong;  // empty: does not match the forest
  EXPECT_THROW((void)RecoveryEngine{RecoveryOptions{}}.run(f, wrong),
               std::invalid_argument);
}

TEST(Recovery, ReportSerializesAndRenders) {
  const MixingGraph g = buildMM(pcr());
  const TaskForest f(g, 8);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  RecoveryOptions opts;
  opts.faults = fault::FaultSpec::parse("loss=0.3");
  opts.seed = 2;
  const RecoveryReport r = RecoveryEngine{opts}.run(f, s);
  const std::string json = toJson(r).dump();
  for (const char* key :
       {"\"demand\"", "\"delivered\"", "\"shortfall\"", "\"faults\"",
        "\"rounds\"", "\"extraMixSplits\"", "\"degraded\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const std::string text = renderReport(r);
  EXPECT_NE(text.find("targets delivered"), std::string::npos);
}

}  // namespace
}  // namespace dmf::engine
