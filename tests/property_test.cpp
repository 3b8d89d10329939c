// Randomized property sweeps (seeded, deterministic): the library's
// invariants must hold on arbitrary valid inputs, not just the corpus and
// the paper's examples.
#include <gtest/gtest.h>

#include "check/oracles.h"
#include "dmf/errors.h"
#include "engine/baseline.h"
#include "engine/mdst.h"
#include "forest/task_forest.h"
#include "mixgraph/builders.h"
#include "sched/heterogeneous.h"
#include "sched/schedulers.h"
#include "workload/random_ratios.h"

namespace dmf {
namespace {

using forest::TaskForest;
using mixgraph::Algorithm;
using mixgraph::buildGraph;
using mixgraph::MixingGraph;

struct RandomSweepParam {
  std::uint64_t sum;
  std::size_t fluids;
  std::uint64_t seed;
};

class RandomRatioPropertyTest
    : public ::testing::TestWithParam<RandomSweepParam> {};

TEST_P(RandomRatioPropertyTest, ForestInvariantsHold) {
  workload::RandomRatioGenerator gen(GetParam().sum, GetParam().fluids,
                                     GetParam().seed);
  workload::RandomRatioGenerator demandGen(64, 2, GetParam().seed + 1);
  for (int trial = 0; trial < 12; ++trial) {
    const Ratio ratio = gen.next();
    // A pseudo-random demand in [1, 64].
    const std::uint64_t demand = demandGen.next().part(0);
    for (Algorithm algo : {Algorithm::MM, Algorithm::RMA, Algorithm::MTCS,
                           Algorithm::RSM}) {
      const MixingGraph g = buildGraph(ratio, algo);
      const TaskForest f(g, demand);
      // Conservation and bookkeeping.
      EXPECT_EQ(f.stats().inputTotal, f.stats().targets + f.stats().waste);
      EXPECT_EQ(f.stats().targets, demand);
      EXPECT_EQ(f.stats().componentTrees, (demand + 1) / 2);
      // Waste is bounded by one droplet per distinct mix node plus the odd
      // surplus target.
      EXPECT_LE(f.stats().waste, g.internalCount() + 1) << ratio.toString();
      // The independent re-derivations of src/check must agree too:
      // conservation from the task list, wiring edge by edge, and every
      // composition re-evaluated in exact dyadic arithmetic.
      check::CheckResult oracle;
      check::checkForestConservation(f, oracle);
      check::checkForestWiring(f, oracle);
      check::checkMixtureCorrectness(f, oracle);
      EXPECT_TRUE(oracle.ok())
          << ratio.toString() << " D=" << demand << "\n" << oracle.summary();
    }
  }
}

TEST_P(RandomRatioPropertyTest, SchedulersStayValidAndOrdered) {
  workload::RandomRatioGenerator gen(GetParam().sum, GetParam().fluids,
                                     GetParam().seed + 7);
  for (int trial = 0; trial < 6; ++trial) {
    const Ratio ratio = gen.next();
    const MixingGraph g = mixgraph::buildMM(ratio);
    const TaskForest f(g, 14);
    for (unsigned mixers : {1u, 3u}) {
      const sched::Schedule mms = sched::scheduleMMS(f, mixers);
      const sched::Schedule srs = sched::scheduleSRS(f, mixers);
      const sched::Schedule oms = sched::scheduleOMS(f, mixers);
      sched::validateOrThrow(f, mms);
      sched::validateOrThrow(f, srs);
      sched::validateOrThrow(f, oms);
      // The oracle library's independent re-derivation of validity, storage
      // counting and the SRS contract must agree with the production checks.
      check::CheckResult oracle;
      check::checkScheduledForest(f, mms, 0, oracle);
      check::checkScheduledForest(f, oms, 0, oracle);
      check::checkSrsContract(f, srs, mms, oracle);
      EXPECT_TRUE(oracle.ok())
          << ratio.toString() << " M=" << mixers << "\n" << oracle.summary();
      // The paper's SRS contract, point-wise.
      EXPECT_LE(sched::countStorage(f, srs), sched::countStorage(f, mms))
          << ratio.toString() << " M=" << mixers;
      // Nothing beats the critical path or the width bound.
      const unsigned lower = std::max<unsigned>(
          sched::criticalPathLength(f),
          static_cast<unsigned>((f.taskCount() + mixers - 1) / mixers));
      EXPECT_GE(mms.completionTime, lower);
      EXPECT_GE(oms.completionTime, lower);
    }
  }
}

TEST_P(RandomRatioPropertyTest, StorageCapLadderStaysWithinCap) {
  workload::RandomRatioGenerator gen(GetParam().sum, GetParam().fluids,
                                     GetParam().seed + 17);
  for (int trial = 0; trial < 3; ++trial) {
    const Ratio ratio = gen.next();
    const MixingGraph g = mixgraph::buildMM(ratio);
    const TaskForest f(g, 18);
    for (unsigned mixers : {1u, 2u}) {
      unsigned previous = 0;
      bool previousFeasible = false;
      for (unsigned cap = 1; cap <= 8; ++cap) {
        try {
          const sched::Schedule s =
              sched::scheduleStorageCapped(f, mixers, cap);
          check::CheckResult oracle;
          check::checkScheduledForest(f, s, cap, oracle);
          EXPECT_TRUE(oracle.ok()) << ratio.toString() << " M=" << mixers
                                   << " cap=" << cap << "\n"
                                   << oracle.summary();
          // Relaxing the cap can never make the schedule slower.
          if (previousFeasible) {
            EXPECT_LE(s.completionTime, previous)
                << ratio.toString() << " M=" << mixers << " cap=" << cap;
          }
          previous = s.completionTime;
          previousFeasible = true;
        } catch (const InfeasibleError&) {
          // A feasible cap can never become infeasible by loosening it.
          EXPECT_FALSE(previousFeasible)
              << ratio.toString() << " M=" << mixers << " cap=" << cap;
        }
      }
    }
  }
}

TEST_P(RandomRatioPropertyTest, DilutionSpecialCaseMatchesTwoFluidRatio) {
  // N = 2 dilution is Min-Mix restricted to {sample, buffer}: the graph must
  // carry the exact dyadic target and pass every forest oracle.
  workload::RandomRatioGenerator numeratorGen(64, 2, GetParam().seed + 23);
  for (unsigned accuracy : {3u, 5u, 7u}) {
    const std::uint64_t scale = std::uint64_t{1} << accuracy;
    // A pseudo-random numerator in [1, scale - 1].
    const std::uint64_t numerator =
        1 + numeratorGen.next().part(0) % (scale - 1);
    const MixingGraph dilution = mixgraph::buildDilution(numerator, accuracy);
    const Ratio expected({numerator, scale - numerator});
    EXPECT_EQ(dilution.ratio().toString(), expected.toString())
        << "numerator " << numerator << " accuracy " << accuracy;
    // Structurally it is exactly Min-Mix on the two-fluid ratio.
    const MixingGraph viaMinMix = buildGraph(expected, Algorithm::MM);
    EXPECT_EQ(dilution.internalCount(), viaMinMix.internalCount());
    EXPECT_EQ(dilution.leafCount(), viaMinMix.leafCount());
    EXPECT_EQ(dilution.depth(), viaMinMix.depth());
    const TaskForest f(dilution, 6);
    check::CheckResult oracle;
    check::checkForestConservation(f, oracle);
    check::checkForestWiring(f, oracle);
    check::checkMixtureCorrectness(f, oracle);
    EXPECT_TRUE(oracle.ok()) << oracle.summary();
  }
}

TEST_P(RandomRatioPropertyTest, HeterogeneousUnitBankEquivalence) {
  workload::RandomRatioGenerator gen(GetParam().sum, GetParam().fluids,
                                     GetParam().seed + 13);
  for (int trial = 0; trial < 4; ++trial) {
    const MixingGraph g = mixgraph::buildMM(gen.next());
    const TaskForest f(g, 10);
    const sched::MixerBank bank = sched::uniformBank(2);
    const sched::Schedule het = sched::scheduleHeterogeneous(f, bank);
    sched::validateHeterogeneous(f, het, bank);
    EXPECT_EQ(het.completionTime, sched::scheduleOMS(f, 2).completionTime);
  }
}

TEST_P(RandomRatioPropertyTest, RepeatedBaselineScalesExactly) {
  workload::RandomRatioGenerator gen(GetParam().sum, GetParam().fluids,
                                     GetParam().seed + 29);
  for (int trial = 0; trial < 4; ++trial) {
    engine::MdstEngine engine(gen.next());
    const engine::BaselineResult two =
        engine::runRepeatedBaseline(engine, Algorithm::MM, 2);
    const engine::BaselineResult many =
        engine::runRepeatedBaseline(engine, Algorithm::MM, 26);
    EXPECT_EQ(many.passes, 13u);
    EXPECT_EQ(many.completionTime, 13 * two.completionTime);
    EXPECT_EQ(many.inputDroplets, 13 * two.inputDroplets);
    EXPECT_EQ(many.waste, 13 * two.waste);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomRatioPropertyTest,
    ::testing::Values(RandomSweepParam{32, 3, 11},
                      RandomSweepParam{32, 7, 22},
                      RandomSweepParam{64, 5, 33},
                      RandomSweepParam{128, 9, 44},
                      RandomSweepParam{256, 4, 55}),
    [](const auto& paramInfo) {
      std::string name = "L";
      name += std::to_string(paramInfo.param.sum);
      name += "_N";
      name += std::to_string(paramInfo.param.fluids);
      name += "_s";
      name += std::to_string(paramInfo.param.seed);
      return name;
    });

}  // namespace
}  // namespace dmf
