#include "forest/task_forest.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "mixgraph/builders.h"
#include "workload/random_ratios.h"
#include "workload/ratio_corpus.h"

namespace dmf::forest {
namespace {

using mixgraph::Algorithm;
using mixgraph::buildGraph;
using mixgraph::buildMM;
using mixgraph::MixingGraph;

Ratio pcr() { return Ratio({2, 1, 1, 1, 1, 1, 9}); }

TEST(TaskForest, Figure1Demand16) {
  // Paper Fig. 1: ratio 2:1:1:1:1:1:9 (d=4), D=16 with the MM base tree:
  // |F| = 8 component trees, Tms = 19, W = 0, I[] = [2,1,1,1,1,1,9], I = 16.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 16);
  EXPECT_EQ(f.stats().componentTrees, 8u);
  EXPECT_EQ(f.stats().mixSplits, 19u);
  EXPECT_EQ(f.stats().waste, 0u);
  EXPECT_EQ(f.stats().inputTotal, 16u);
  EXPECT_EQ(f.stats().inputPerFluid,
            (std::vector<std::uint64_t>{2, 1, 1, 1, 1, 1, 9}));
}

TEST(TaskForest, Figure2Demand20) {
  // Paper Fig. 2: same ratio, D=20: |F| = 10, Tms = 27, W = 5,
  // I[] = [3,2,2,2,2,2,12], I = 25.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  EXPECT_EQ(f.stats().componentTrees, 10u);
  EXPECT_EQ(f.stats().mixSplits, 27u);
  EXPECT_EQ(f.stats().waste, 5u);
  EXPECT_EQ(f.stats().inputTotal, 25u);
  EXPECT_EQ(f.stats().inputPerFluid,
            (std::vector<std::uint64_t>{3, 2, 2, 2, 2, 2, 12}));
}

TEST(TaskForest, DemandTwoIsTheBaseTree) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 2);
  EXPECT_EQ(f.stats().componentTrees, 1u);
  EXPECT_EQ(f.stats().mixSplits, g.internalCount());
  // One pass wastes one droplet per non-root mix-split.
  EXPECT_EQ(f.stats().waste, g.internalCount() - 1);
  EXPECT_EQ(f.stats().inputTotal, g.leafCount());
}

TEST(TaskForest, FullMultipleOfScaleWastesNothing) {
  MixingGraph g = buildMM(pcr());
  for (std::uint64_t p = 1; p <= 4; ++p) {
    TaskForest f(g, p * 16);
    EXPECT_EQ(f.stats().waste, 0u) << "p=" << p;
    EXPECT_EQ(f.stats().inputTotal, p * 16) << "p=" << p;
  }
}

TEST(TaskForest, OddDemandWastesOneSurplusTarget) {
  MixingGraph g = buildMM(pcr());
  TaskForest even(g, 16);
  TaskForest odd(g, 15);
  EXPECT_EQ(odd.stats().componentTrees, 8u);
  EXPECT_EQ(odd.stats().waste, even.stats().waste + 1);
}

TEST(TaskForest, RejectsZeroDemand) {
  MixingGraph g = buildMM(pcr());
  EXPECT_THROW(TaskForest(g, 0), std::invalid_argument);
}

TEST(TaskForest, RejectsUnfinalizedGraph) {
  MixingGraph g(pcr());
  EXPECT_THROW(TaskForest(g, 2), std::invalid_argument);
}

TEST(TaskForest, LevelsMatchBaseGraph) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  for (TaskId id = 0; id < f.taskCount(); ++id) {
    EXPECT_EQ(f.task(id).level, g.node(f.task(id).node).level);
  }
  EXPECT_EQ(f.depth(), 4u);
}

TEST(TaskForest, TreeIdsAreContiguousFromOne) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  std::vector<bool> seen(f.stats().componentTrees + 1, false);
  for (TaskId id = 0; id < f.taskCount(); ++id) {
    const std::uint32_t tree = f.task(id).tree;
    ASSERT_GE(tree, 1u);
    ASSERT_LE(tree, f.stats().componentTrees);
    seen[tree] = true;
  }
  for (std::size_t t = 1; t < seen.size(); ++t) {
    EXPECT_TRUE(seen[t]) << "empty component tree " << t;
  }
}

TEST(TaskForest, InitialReadyAreExactlyTypeCTasks) {
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const std::vector<TaskId> ready = f.initialReady();
  EXPECT_FALSE(ready.empty());
  for (TaskId id : ready) {
    EXPECT_EQ(f.task(id).operandClass, OperandClass::kTypeC);
  }
}

TEST(TaskForest, WasteReuseLinksComponentTrees) {
  // In the D=20 forest some droplet produced inside one component tree is
  // consumed by a task of a different tree — the paper's brown nodes.
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  bool crossTree = false;
  for (TaskId id = 0; id < f.taskCount(); ++id) {
    const Task task = f.task(id);
    for (const auto& drop : task.out) {
      if (drop.fate == DropletFate::kConsumed &&
          f.task(drop.consumer).tree != task.tree) {
        crossTree = true;
      }
    }
  }
  EXPECT_TRUE(crossTree);
}

TEST(TaskForest, NodeDemandAtRootMatchesClassicForest) {
  MixingGraph g = buildMM(pcr());
  TaskForest classic(g, 16);
  TaskForest injected(g, {NodeDemand{g.root(), 16}});
  EXPECT_EQ(injected.demand(), classic.demand());
  EXPECT_EQ(injected.stats().mixSplits, classic.stats().mixSplits);
  EXPECT_EQ(injected.stats().inputPerFluid, classic.stats().inputPerFluid);
  EXPECT_EQ(injected.taskCount(), classic.taskCount());
}

TEST(TaskForest, RebuildEqualsFreshConstruction) {
  // One object rebuilt larger, smaller and on another graph keeps no trace
  // of the forests before it.
  const MixingGraph pcrGraph = buildMM(pcr());
  const MixingGraph other = buildGraph(Ratio({3, 5, 8}), Algorithm::RMA);
  TaskForest reused(pcrGraph, 2);
  for (const auto& [graph, demand] :
       {std::pair{&pcrGraph, 64u}, std::pair{&pcrGraph, 20u},
        std::pair{&other, 33u}, std::pair{&pcrGraph, 7u}}) {
    reused.rebuild(*graph, demand);
    const TaskForest fresh(*graph, demand);
    EXPECT_EQ(&reused.graph(), &fresh.graph());
    EXPECT_EQ(reused.demands(), fresh.demands());
    EXPECT_EQ(reused.demandNodes(), fresh.demandNodes());
    EXPECT_EQ(reused.toDot(), fresh.toDot()) << demand;
    EXPECT_EQ(reused.taskLevels(), fresh.taskLevels());
    EXPECT_EQ(reused.depLefts(), fresh.depLefts());
    EXPECT_EQ(reused.depRights(), fresh.depRights());
    EXPECT_EQ(reused.outConsumers(), fresh.outConsumers());
    EXPECT_EQ(reused.outFates(), fresh.outFates());
    EXPECT_EQ(reused.initialPending(), fresh.initialPending());
    EXPECT_EQ(reused.consumedOutCounts(), fresh.consumedOutCounts());
    EXPECT_EQ(reused.stats().mixSplits, fresh.stats().mixSplits);
    EXPECT_EQ(reused.stats().waste, fresh.stats().waste);
    EXPECT_EQ(reused.stats().inputPerFluid, fresh.stats().inputPerFluid);
    EXPECT_EQ(reused.stats().componentTrees, fresh.stats().componentTrees);
  }
  EXPECT_THROW(reused.rebuild(pcrGraph, 0), std::invalid_argument);
}

// Byte-identity golden for the forest build: FNV-1a over every per-task
// array and per-task field plus ForestStats, for every seeded corpus ratio
// (one random ratio per sum 16/32/64 and 2..8 parts, the schedulers' pin
// corpus), four algorithms and D in 1..64, 255, 256 and 1000. Any change to
// task numbering, droplet allocation, tree labelling or the statistics moves
// the hash.
class ForestHash {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void add(const std::vector<T>& values) {
    add(values.size());
    for (const T v : values) add(static_cast<std::uint64_t>(v));
  }
  void add(const TaskForest& f) {
    add(f.taskCount());
    add(f.taskLevels());
    add(f.depLefts());
    add(f.depRights());
    add(f.outConsumers());
    add(f.outFates());
    add(f.initialPending());
    add(f.consumedOutCounts());
    add(f.initialReady());
    for (TaskId id = 0; id < f.taskCount(); ++id) {
      const Task t = f.task(id);
      add(t.node);
      add(t.instance);
      add(t.level);
      add(t.tree);
      add(t.depLeft);
      add(t.depRight);
      for (const OutputDroplet& drop : t.out) {
        add(static_cast<std::uint64_t>(drop.fate));
        add(drop.consumer);
      }
      add(static_cast<std::uint64_t>(t.operandClass));
    }
    const ForestStats& s = f.stats();
    add(s.mixSplits);
    add(s.waste);
    add(s.inputTotal);
    add(s.inputPerFluid);
    add(s.componentTrees);
    add(s.targets);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST(Forest, CorpusForestHashPinned) {
  std::vector<std::uint64_t> demands;
  for (std::uint64_t d = 1; d <= 64; ++d) demands.push_back(d);
  for (std::uint64_t d : {255u, 256u, 1000u}) demands.push_back(d);
  ForestHash hash;
  const MixingGraph seedGraph = buildMM(pcr());
  TaskForest reused(seedGraph, 2);
  std::uint64_t forests = 0;
  for (std::uint64_t sum : {16u, 32u, 64u}) {
    for (std::size_t parts = 2; parts <= 8; ++parts) {
      workload::RandomRatioGenerator gen(sum, parts, sum * 16 + parts);
      const Ratio r = gen.next();
      for (Algorithm algo : {Algorithm::MM, Algorithm::RMA, Algorithm::MTCS,
                             Algorithm::RSM}) {
        const MixingGraph g = buildGraph(r, algo);
        for (const std::uint64_t demand : demands) {
          const TaskForest f(g, demand);
          hash.add(f);
          // Rebuilding into one object must land on the same bytes.
          reused.rebuild(g, demand);
          ForestHash fresh;
          ForestHash rebuilt;
          fresh.add(f);
          rebuilt.add(reused);
          ASSERT_EQ(rebuilt.value(), fresh.value())
              << r.toString() << " D=" << demand;
          ++forests;
        }
      }
    }
  }
  EXPECT_EQ(forests, 21u * 4u * 67u);
  EXPECT_EQ(hash.value(), 0xc3bde9b07a7966e1ull);
}

TEST(TaskForest, InteriorNodeDemandBuildsOnlyTheSubgraph) {
  // A repair forest rooted at an interior node must cost strictly less than
  // the full forest: demand never propagates above the injected node.
  MixingGraph g = buildMM(pcr());
  TaskForest full(g, 2);
  mixgraph::NodeId interior = mixgraph::kNoNode;
  for (mixgraph::NodeId v = 0; v < g.nodeCount(); ++v) {
    if (!g.node(v).isLeaf() && v != g.root()) interior = v;
  }
  ASSERT_NE(interior, mixgraph::kNoNode);
  TaskForest repair(g, {NodeDemand{interior, 2}});
  EXPECT_EQ(repair.demand(), 2u);
  EXPECT_EQ(repair.demandNodes(), std::vector<mixgraph::NodeId>{interior});
  EXPECT_LT(repair.stats().mixSplits, full.stats().mixSplits);
  EXPECT_LT(repair.stats().inputTotal, full.stats().inputTotal);
  EXPECT_EQ(repair.stats().inputTotal,
            repair.stats().targets + repair.stats().waste);
}

TEST(TaskForest, DuplicateNodeDemandsMergeAtFirstOccurrence) {
  MixingGraph g = buildMM(pcr());
  const mixgraph::NodeId root = g.root();
  TaskForest merged(g, {NodeDemand{root, 3}, NodeDemand{root, 5}});
  TaskForest direct(g, {NodeDemand{root, 8}});
  EXPECT_EQ(merged.demand(), 8u);
  EXPECT_EQ(merged.taskCount(), direct.taskCount());
  EXPECT_EQ(merged.demandNodes().size(), 1u);
}

TEST(TaskForest, NodeDemandRejectsBadInjectionPoints) {
  MixingGraph g = buildMM(pcr());
  mixgraph::NodeId leaf = mixgraph::kNoNode;
  for (mixgraph::NodeId v = 0; v < g.nodeCount(); ++v) {
    if (g.node(v).isLeaf()) leaf = v;
  }
  ASSERT_NE(leaf, mixgraph::kNoNode);
  EXPECT_THROW(TaskForest(g, std::vector<NodeDemand>{}),
               std::invalid_argument);
  EXPECT_THROW(TaskForest(g, {NodeDemand{g.root(), 0}}),
               std::invalid_argument);
  EXPECT_THROW(TaskForest(g, {NodeDemand{leaf, 1}}), std::invalid_argument);
  EXPECT_THROW(TaskForest(
                   g, {NodeDemand{static_cast<mixgraph::NodeId>(
                                      g.nodeCount()),
                                  1}}),
               std::invalid_argument);
}

TEST(TaskForest, MtcsDagForestConservesDroplets) {
  MixingGraph g = buildGraph(Ratio({25, 5, 5, 5, 5, 13, 13, 25, 1, 159}),
                             Algorithm::MTCS);
  TaskForest f(g, 32);
  EXPECT_EQ(f.stats().inputTotal, f.stats().targets + f.stats().waste);
}

// Property sweep over the corpus: droplet conservation I = D + W and
// demand-monotone input usage for every algorithm.
struct ForestSweepParam {
  ForestSweepParam(Algorithm a, std::uint64_t d) : algorithm(a), demand(d) {}
  Algorithm algorithm;
  // gtest names each case after the param's raw bytes, so the gap before
  // `demand` is an explicit zeroed member: implicit padding would leak
  // stack/heap garbage into the test names and make them differ per run.
  std::uint32_t padding = 0;
  std::uint64_t demand;
};

class ForestCorpusTest
    : public ::testing::TestWithParam<ForestSweepParam> {};

TEST_P(ForestCorpusTest, ConservationAndSanity) {
  const auto& corpus = workload::evaluationCorpus();
  for (std::size_t i = 0; i < corpus.size(); i += 13) {
    const Ratio& r = corpus[i];
    MixingGraph g = buildGraph(r, GetParam().algorithm);
    TaskForest f(g, GetParam().demand);
    const ForestStats& s = f.stats();
    EXPECT_EQ(s.inputTotal, s.targets + s.waste) << r.toString();
    EXPECT_EQ(s.componentTrees, (GetParam().demand + 1) / 2) << r.toString();
    EXPECT_GE(s.mixSplits, s.componentTrees) << r.toString();
    std::uint64_t perFluid = 0;
    for (std::uint64_t n : s.inputPerFluid) perFluid += n;
    EXPECT_EQ(perFluid, s.inputTotal) << r.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestCorpusTest,
    ::testing::Values(ForestSweepParam{Algorithm::MM, 2},
                      ForestSweepParam{Algorithm::MM, 7},
                      ForestSweepParam{Algorithm::MM, 32},
                      ForestSweepParam{Algorithm::RMA, 32},
                      ForestSweepParam{Algorithm::MTCS, 32},
                      ForestSweepParam{Algorithm::RSM, 32}),
    [](const auto& paramInfo) {
      return std::string(mixgraph::algorithmName(paramInfo.param.algorithm)) +
             "_D" + std::to_string(paramInfo.param.demand);
    });

}  // namespace
}  // namespace dmf::forest
