#include "mixgraph/builders.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/multi_target.h"
#include "forest/task_forest.h"
#include "sched/schedulers.h"

namespace dmf {
namespace {

using engine::runMultiTarget;
using engine::TargetDemand;
using forest::TaskForest;
using mixgraph::buildMTCS;
using mixgraph::buildMultiTarget;
using mixgraph::MixingGraph;

TEST(MultiTargetGraph, BuildsOneRootPerTarget) {
  const std::vector<Ratio> targets = {Ratio({2, 1, 1, 1, 1, 1, 9}),
                                      Ratio({4, 4, 2, 2, 1, 1, 2})};
  const MixingGraph g = buildMultiTarget(targets);
  ASSERT_EQ(g.roots().size(), 2u);
  EXPECT_EQ(g.node(g.roots()[0]).value, MixtureValue::target(targets[0]));
  EXPECT_EQ(g.node(g.roots()[1]).value, MixtureValue::target(targets[1]));
  EXPECT_EQ(g.targets().size(), 2u);
}

TEST(MultiTargetGraph, SharesNodesAcrossTargets) {
  // Two ratios with a large common sub-structure: the shared graph must be
  // smaller than two independent MTCS graphs.
  const Ratio a({2, 1, 1, 1, 1, 1, 9});
  const Ratio b({2, 1, 1, 1, 1, 9, 1});  // same parts, two fluids swapped
  const MixingGraph shared = buildMultiTarget({a, b});
  const std::size_t separate =
      buildMTCS(a).nodeCount() + buildMTCS(b).nodeCount();
  EXPECT_LT(shared.nodeCount(), separate);
}

TEST(MultiTargetGraph, TargetCanBeAnotherTargetsIntermediate) {
  // {2:2} is the 1:1 blend that the {3:1} chain prepares on the way up.
  const MixingGraph g = buildMultiTarget({Ratio({3, 1}), Ratio({2, 2})});
  ASSERT_EQ(g.roots().size(), 2u);
  // The {2:2} root sits below accuracy level (it is an intermediate).
  EXPECT_LT(g.node(g.roots()[1]).level, g.depth());
  // And it feeds the {3:1} root.
  bool feeds = false;
  for (mixgraph::NodeId c : g.consumers()[g.roots()[1]]) {
    feeds = feeds || c == g.roots()[0];
  }
  EXPECT_TRUE(feeds);
}

TEST(MultiTargetGraph, RejectsMixedSpacesAndDuplicates) {
  EXPECT_THROW(buildMultiTarget({Ratio({1, 1}), Ratio({1, 1, 2})}),
               std::invalid_argument);
  EXPECT_THROW(buildMultiTarget({Ratio({1, 1}), Ratio({1, 3})}),
               std::invalid_argument);  // different accuracy
  EXPECT_THROW(buildMultiTarget({Ratio({1, 3}), Ratio({2, 6})}),
               std::invalid_argument);  // same composition twice
  EXPECT_THROW(buildMultiTarget({}), std::invalid_argument);
}

TEST(MultiTargetForest, DemandsPerRootAreHonoured) {
  const MixingGraph g =
      buildMultiTarget({Ratio({2, 1, 1, 1, 1, 1, 9}),
                        Ratio({4, 4, 2, 2, 1, 1, 2})});
  const TaskForest f(g, {6, 10});
  EXPECT_EQ(f.stats().targets, 16u);
  EXPECT_EQ(f.demand(), 16u);
  EXPECT_EQ(f.demands(), (std::vector<std::uint64_t>{6, 10}));
  // Conservation still holds.
  EXPECT_EQ(f.stats().inputTotal, f.stats().targets + f.stats().waste);
  // Per-root target counts match the demands.
  std::vector<std::uint64_t> counted(2, 0);
  for (forest::TaskId id = 0; id < f.taskCount(); ++id) {
    const forest::Task task = f.task(id);
    for (const auto& drop : task.out) {
      if (drop.fate != forest::DropletFate::kTarget) continue;
      const auto node = task.node;
      counted[node == g.roots()[0] ? 0 : 1] += 1;
      EXPECT_TRUE(node == g.roots()[0] || node == g.roots()[1]);
    }
  }
  EXPECT_EQ(counted[0], 6u);
  EXPECT_EQ(counted[1], 10u);
}

TEST(MultiTargetForest, MismatchedDemandVectorThrows) {
  const MixingGraph g =
      buildMultiTarget({Ratio({3, 1}), Ratio({2, 2})});
  EXPECT_THROW(TaskForest(g, {4}), std::invalid_argument);
  EXPECT_THROW(TaskForest(g, {4, 0}), std::invalid_argument);
  // The single-demand convenience constructor refuses multi-root graphs.
  EXPECT_THROW(TaskForest(g, 4), std::invalid_argument);
}

TEST(MultiTargetForest, SchedulersHandleMultiRootForests) {
  const MixingGraph g =
      buildMultiTarget({Ratio({2, 1, 1, 1, 1, 1, 9}),
                        Ratio({4, 4, 2, 2, 1, 1, 2})});
  const TaskForest f(g, {8, 8});
  for (const sched::Schedule& s :
       {sched::scheduleMMS(f, 3), sched::scheduleSRS(f, 3),
        sched::scheduleOMS(f, 3)}) {
    sched::validateOrThrow(f, s);
    EXPECT_EQ(sched::emissionCycles(f, s).size(), 16u);
  }
}

TEST(MultiTargetEngine, SharingBeatsSeparatePreparation) {
  const engine::MultiTargetResult r = runMultiTarget(
      {TargetDemand{Ratio({2, 1, 1, 1, 1, 1, 9}), 8},
       TargetDemand{Ratio({2, 1, 1, 1, 1, 9, 1}), 8}});
  EXPECT_LT(r.completionTime, r.separateCompletionTime);
  EXPECT_LE(r.inputDroplets, r.separateInputDroplets);
  EXPECT_GT(r.mixers, 0u);
}

TEST(MultiTargetEngine, IntermediateTargetIsAlmostFree) {
  // Asking for the {2:2} blend alongside {3:1} reuses the chain's own
  // intermediate. With odd per-target demands the separate runs each waste
  // a droplet, while the shared forest folds the surplus into the other
  // target's supply.
  const engine::MultiTargetResult both = runMultiTarget(
      {TargetDemand{Ratio({3, 1}), 6}, TargetDemand{Ratio({2, 2}), 7}});
  EXPECT_LT(both.inputDroplets, both.separateInputDroplets);
  EXPECT_LT(both.waste, both.separateWaste);
}

TEST(MultiTargetEngine, RejectsBadRequests) {
  EXPECT_THROW((void)runMultiTarget({}), std::invalid_argument);
  EXPECT_THROW(
      (void)runMultiTarget({TargetDemand{Ratio({3, 1}), 0}}),
      std::invalid_argument);
}

TEST(MultiTargetEngine, SingleTargetDegeneratesToMdst) {
  const engine::MultiTargetResult multi =
      runMultiTarget({TargetDemand{Ratio({2, 1, 1, 1, 1, 1, 9}), 16}},
                     engine::Scheme::kMMS);
  engine::MdstEngine single(Ratio({2, 1, 1, 1, 1, 1, 9}));
  engine::MdstRequest request;
  request.algorithm = mixgraph::Algorithm::MTCS;
  request.scheme = engine::Scheme::kMMS;
  request.mixers = multi.mixers;
  request.demand = 16;
  const engine::MdstResult mdst = single.run(request);
  EXPECT_EQ(multi.inputDroplets, mdst.inputDroplets);
  EXPECT_EQ(multi.completionTime, mdst.completionTime);
}

}  // namespace
}  // namespace dmf
