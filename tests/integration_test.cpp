// End-to-end integration: every published protocol through the full
// pipeline — ratio -> graph -> forest -> schedule -> chip execution ->
// timed simulation -> wear/pin analysis — with cross-layer consistency
// checks at each hand-off.
#include <gtest/gtest.h>

#include "analysis/error_model.h"
#include "chip/executor.h"
#include "chip/pcr_layout.h"
#include "chip/pin_mapper.h"
#include "chip/reliability.h"
#include "chip/router.h"
#include "chip/simulation.h"
#include "engine/baseline.h"
#include "engine/mdst.h"
#include "engine/streaming.h"
#include "protocols/protocols.h"
#include "sched/gantt.h"
#include "sched/schedulers.h"

namespace dmf {
namespace {

class ProtocolPipelineTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProtocolPipelineTest, FullPipelineIsConsistent) {
  const protocols::Protocol& protocol =
      protocols::publishedProtocols()[GetParam()];
  engine::MdstEngine engine(protocol.ratio);

  // Layer 1: forest.
  const forest::TaskForest forest =
      engine.buildForest(mixgraph::Algorithm::MM, 12);
  EXPECT_EQ(forest.stats().inputTotal,
            forest.stats().targets + forest.stats().waste);

  // Layer 2: schedule.
  const unsigned mixers = engine.defaultMixers();
  const sched::Schedule schedule = sched::scheduleSRS(forest, mixers);
  sched::validateOrThrow(forest, schedule);
  const unsigned storage = sched::countStorage(forest, schedule);

  // Layer 3: chip execution on a synthesized layout sized for the run.
  const chip::Layout layout = chip::synthesizeLayout(
      protocol.ratio.fluidCount(), mixers, std::max(storage, 1u));
  chip::Router router(layout);
  chip::ChipExecutor executor(layout, router);
  const chip::ExecutionTrace trace = executor.run(forest, schedule);
  EXPECT_EQ(trace.peakStorageUsed, storage);

  // Layer 4: timed simulation respects fluidic constraints and can only add
  // detours over the BFS lower bound.
  const chip::SimulationResult sim = chip::simulateTrace(layout, trace);
  EXPECT_GE(sim.totalActuations, trace.totalCost);

  // Layer 5: analyses agree with the raw trace.
  const chip::WearReport wear = chip::analyzeWear(trace);
  EXPECT_EQ(wear.total, trace.totalCost);
  const chip::ActuationMatrix matrix(layout, sim);
  const chip::PinAssignment pins = chip::assignPins(matrix);
  chip::validatePins(matrix, pins);
  EXPECT_LT(pins.pinCount(),
            matrix.electrodeCount() - pins.idleElectrodes);
}

TEST_P(ProtocolPipelineTest, ForestDominatesRepeatedBaseline) {
  const protocols::Protocol& protocol =
      protocols::publishedProtocols()[GetParam()];
  engine::MdstEngine engine(protocol.ratio);
  engine::MdstRequest request;
  request.scheme = engine::Scheme::kMMS;
  request.demand = 32;
  const engine::MdstResult ours = engine.run(request);
  const engine::BaselineResult rep =
      engine::runRepeatedBaseline(engine, mixgraph::Algorithm::MM, 32);
  EXPECT_LT(ours.completionTime, rep.completionTime);
  EXPECT_LT(ours.inputDroplets, rep.inputDroplets);
  EXPECT_LT(ours.waste, rep.waste);
}

TEST_P(ProtocolPipelineTest, ErrorBoundsAreFiniteAndOrdered) {
  const protocols::Protocol& protocol =
      protocols::publishedProtocols()[GetParam()];
  const mixgraph::MixingGraph graph = mixgraph::buildMM(protocol.ratio);
  const analysis::NodeError tight =
      analysis::targetError(graph, {0.01, 0.0});
  const analysis::NodeError loose =
      analysis::targetError(graph, {0.10, 0.0});
  EXPECT_LT(tight.worstConcentration, loose.worstConcentration);
  EXPECT_GT(analysis::quantizationError(graph), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolPipelineTest,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const auto& paramInfo) {
                           return "Ex" +
                                  std::to_string(paramInfo.param + 1);
                         });

TEST(Integration, GanttAndDotExportsAgreeOnTaskCount) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  const forest::TaskForest forest =
      engine.buildForest(mixgraph::Algorithm::MM, 20);
  const sched::Schedule schedule = sched::scheduleSRS(forest, 3);
  const std::string gantt = sched::renderGantt(forest, schedule);
  const std::string dot = forest.toDot();
  // Every task label appears in both renderings.
  for (forest::TaskId id = 0; id < forest.taskCount(); ++id) {
    EXPECT_NE(gantt.find(forest.taskLabel(id)), std::string::npos);
    std::string node = "t";
    node += std::to_string(id);
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
  }
  // The dot export shows cross-tree waste reuse (the paper's brown edges).
  EXPECT_NE(dot.find("brown"), std::string::npos);
  EXPECT_NE(dot.find("cluster_T10"), std::string::npos);
}

TEST(Integration, StreamingPlanExecutesOnChipPassByPass) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  engine::StreamingRequest request;
  request.demand = 32;
  request.storageCap = 5;
  request.mixers = 3;
  const engine::StreamingPlan plan = planStreaming(engine, request);

  const chip::Layout layout = chip::synthesizeLayout(7, 3, 5);
  chip::Router router(layout);
  chip::ChipExecutor executor(layout, router);
  std::uint64_t totalCost = 0;
  for (const engine::StreamingPass& pass : plan.passes) {
    const forest::TaskForest forest =
        engine.buildForest(mixgraph::Algorithm::MM, pass.demand);
    const sched::Schedule schedule = sched::scheduleSRS(forest, 3);
    const chip::ExecutionTrace trace = executor.run(forest, schedule);
    EXPECT_LE(trace.peakStorageUsed, 5u);
    totalCost += trace.totalCost;
  }
  EXPECT_GT(totalCost, 0u);
}

}  // namespace
}  // namespace dmf
