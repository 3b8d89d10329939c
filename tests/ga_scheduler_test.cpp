#include "sched/ga_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mixgraph/builders.h"
#include "sched/fitness_memo.h"
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
  bad = quickOptions();
  bad.elites = bad.population;
  EXPECT_THROW((void)scheduleGA(f, 3, bad), std::invalid_argument);
  bad = quickOptions();
  bad.tournament = 0;
  EXPECT_THROW((void)scheduleGA(f, 3, bad), std::invalid_argument);
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

// --------------------------------------------------------------------------
// FitnessMemo: the memo must never trust a hash match alone. These tests
// force collisions through a degenerate hash function — under the pre-fix
// design (bare FNV-1a lookup) every chromosome would "hit" the first entry
// and inherit the wrong fitness.

std::uint64_t constantHash(const std::vector<double>&) { return 42; }

TEST(FitnessMemo, CollidingKeysDoNotAlias) {
  FitnessMemo<int> memo(&constantHash);
  const std::vector<double> a{0.1, 0.2, 0.3};
  const std::vector<double> b{0.9, 0.8, 0.7};  // same hash, different keys
  memo.insert(a, 111);
  ASSERT_NE(memo.find(a), nullptr);
  EXPECT_EQ(*memo.find(a), 111);
  // The collision is detected, counted, and answered with a miss — not
  // with a's fitness.
  EXPECT_EQ(memo.find(b), nullptr);
  EXPECT_GE(memo.collisions(), 1u);
  memo.insert(b, 222);
  EXPECT_EQ(*memo.find(a), 111);
  EXPECT_EQ(*memo.find(b), 222);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(FitnessMemo, DuplicateInsertKeepsFirstValue) {
  FitnessMemo<int> memo(&constantHash);
  const std::vector<double> a{0.5};
  memo.insert(a, 1);
  memo.insert(a, 2);  // fitness is a pure function of the keys
  EXPECT_EQ(*memo.find(a), 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FitnessMemo, DefaultHashDistinguishesNearbyKeys) {
  FitnessMemo<int> memo;
  const std::vector<double> a{0.25, 0.5};
  const std::vector<double> b{0.25, 0.5000000001};
  memo.insert(a, 7);
  EXPECT_EQ(*memo.find(a), 7);
  EXPECT_EQ(memo.find(b), nullptr);
  EXPECT_EQ(memo.find({}), nullptr);
  EXPECT_EQ(memo.collisions(), 0u);
}

TEST(FitnessMemo, HashOnlyLookupWouldAliasTheseKeys) {
  // Pin the failure mode itself: the two key vectors collide under the
  // degenerate hash, so any design that compares hashes instead of keys
  // cannot tell them apart. Guards against regressing to the old lookup.
  const std::vector<double> a{0.1};
  const std::vector<double> b{0.2};
  EXPECT_EQ(constantHash(a), constantHash(b));
  EXPECT_NE(a, b);
  FitnessMemo<int> memo(&constantHash);
  memo.insert(a, 10);
  memo.insert(b, 20);
  EXPECT_EQ(*memo.find(a), 10);
  EXPECT_EQ(*memo.find(b), 20);
}

}  // namespace
}  // namespace dmf::sched
