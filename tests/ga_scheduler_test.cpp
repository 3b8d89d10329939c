#include "sched/ga_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mixgraph/builders.h"
#include "sched/schedulers.h"

namespace dmf::sched {
namespace {

using forest::TaskForest;
using mixgraph::buildMM;
using mixgraph::MixingGraph;

Ratio pcr() { return Ratio({2, 1, 1, 1, 1, 1, 9}); }

GaOptions quickOptions() {
  GaOptions options;
  options.population = 16;
  options.generations = 20;
  return options;
}

TEST(GaScheduler, ProducesValidSchedules) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const Schedule s = scheduleGA(f, 3, quickOptions());
  validateOrThrow(f, s);
  EXPECT_EQ(s.scheme, "GA");
}

TEST(GaScheduler, NeverWorseThanCriticalPathSeed) {
  // The GA is seeded with the OMS individual, so its completion time is
  // bounded by the OMS list schedule's.
  MixingGraph g = buildMM(pcr());
  for (std::uint64_t demand : {8u, 20u, 32u}) {
    TaskForest f(g, demand);
    const Schedule oms = scheduleOMS(f, 3);
    const Schedule ga = scheduleGA(f, 3, quickOptions());
    EXPECT_LE(ga.completionTime, oms.completionTime) << "D=" << demand;
  }
}

TEST(GaScheduler, DeterministicForSeed) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 16);
  const Schedule a = scheduleGA(f, 3, quickOptions());
  const Schedule b = scheduleGA(f, 3, quickOptions());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.cycles[i], b.cycles[i]);
    EXPECT_EQ(a.mixers[i], b.mixers[i]);
  }
}

TEST(GaScheduler, PinnedGoldenForDefaultSeed) {
  // Golden for the default seed, pinned so RNG-consuming refactors (like the
  // tournament modulo-bias fix in PR 3) show up as an explicit diff here
  // rather than as silent schedule drift. The exact values depend on the
  // standard library's distributions (libstdc++ on CI).
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 16);
  const Schedule s = scheduleGA(f, 3, quickOptions());
  validateOrThrow(f, s);
  EXPECT_EQ(s.completionTime, 7u);
  EXPECT_EQ(countStorage(f, s), 4u);
}

TEST(GaScheduler, DifferentSeedsExploreDifferently) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  GaOptions a = quickOptions();
  GaOptions b = quickOptions();
  b.seed = 99;
  const Schedule sa = scheduleGA(f, 3, a);
  const Schedule sb = scheduleGA(f, 3, b);
  // Both valid; completion times may coincide, assignments usually differ.
  validateOrThrow(f, sa);
  validateOrThrow(f, sb);
}

TEST(GaScheduler, RespectsSingleMixer) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 4);
  const Schedule s = scheduleGA(f, 1, quickOptions());
  validateOrThrow(f, s);
  EXPECT_EQ(s.completionTime, f.taskCount());
}

TEST(GaScheduler, RejectsBadArguments) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 4);
  EXPECT_THROW((void)scheduleGA(f, 0, quickOptions()), std::invalid_argument);
  GaOptions bad = quickOptions();
  bad.population = 0;
  EXPECT_THROW((void)scheduleGA(f, 3, bad), std::invalid_argument);
  bad.population = 2;  // no room beside the two elites
  EXPECT_THROW((void)scheduleGA(f, 3, bad), std::invalid_argument);
  bad.population = 3;
  EXPECT_NO_THROW((void)scheduleGA(f, 3, bad));
}

TEST(GaScheduler, CanReduceStorageBeyondOms) {
  // With Tc tied at the lower bound, the secondary objective pushes storage
  // down; the GA should never exceed the seed's storage at equal Tc.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 32);
  const Schedule oms = scheduleOMS(f, 3);
  const Schedule ga = scheduleGA(f, 3, quickOptions());
  if (ga.completionTime == oms.completionTime) {
    EXPECT_LE(countStorage(f, ga), countStorage(f, oms));
  }
}

}  // namespace
}  // namespace dmf::sched
