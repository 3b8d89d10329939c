#include "chip/timed_router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "chip/executor.h"
#include "chip/pcr_layout.h"
#include "chip/pin_mapper.h"
#include "chip/reliability.h"
#include "chip/router.h"
#include "chip/simulation.h"
#include "forest/task_forest.h"
#include "mixgraph/builders.h"
#include "sched/schedulers.h"

namespace dmf::chip {
namespace {

using forest::TaskForest;
using mixgraph::buildMM;
using mixgraph::MixingGraph;

Layout openField() {
  // A bare array with two 1x1 mixers far apart for endpoints.
  Layout layout(12, 12);
  layout.add(Module{ModuleKind::kMixer, Cell{0, 0}, 1, 1, 0, "A"});
  layout.add(Module{ModuleKind::kMixer, Cell{11, 11}, 1, 1, 0, "B"});
  layout.add(Module{ModuleKind::kMixer, Cell{11, 0}, 1, 1, 0, "C"});
  layout.add(Module{ModuleKind::kMixer, Cell{0, 11}, 1, 1, 0, "D"});
  return layout;
}

TEST(TimedRouter, SingleDropletTakesShortestPath) {
  const Layout layout = openField();
  TimedRouter router(layout);
  const PhaseResult result =
      router.routePhase({PhaseMove{Cell{0, 0}, Cell{11, 11}, 7}});
  ASSERT_EQ(result.trajectories.size(), 1u);
  EXPECT_EQ(result.trajectories[0].tag, 7u);
  EXPECT_EQ(result.makespan, 22u);  // manhattan distance
  EXPECT_EQ(result.totalActuations, 22u);
  EXPECT_EQ(result.trajectories[0].positions.front(), (Cell{0, 0}));
  EXPECT_EQ(result.trajectories[0].positions.back(), (Cell{11, 11}));
}

TEST(TimedRouter, CrossingDropletsAvoidEachOther) {
  const Layout layout = openField();
  TimedRouter router(layout);
  // Two droplets swap corners; their straight-line paths cross in the
  // middle of the array.
  const PhaseResult result = router.routePhase(
      {PhaseMove{Cell{0, 0}, Cell{11, 11}, 0},
       PhaseMove{Cell{11, 11}, Cell{0, 0}, 1},
       PhaseMove{Cell{11, 0}, Cell{0, 11}, 2}});
  EXPECT_EQ(result.trajectories.size(), 3u);
  router.checkInterference(result.trajectories);  // must not throw
  // Detours and waits allowed, but bounded.
  EXPECT_LE(result.makespan, 40u);
}

TEST(TimedRouter, ZeroLengthMoveIsTrivial) {
  const Layout layout = openField();
  TimedRouter router(layout);
  const PhaseResult result =
      router.routePhase({PhaseMove{Cell{0, 0}, Cell{0, 0}, 0}});
  EXPECT_EQ(result.makespan, 0u);
  EXPECT_EQ(result.totalActuations, 0u);
}

TEST(TimedRouter, RejectsOffArrayEndpoints) {
  const Layout layout = openField();
  TimedRouter router(layout);
  EXPECT_THROW((void)router.routePhase({PhaseMove{Cell{-1, 0}, Cell{2, 2}, 0}}),
               std::invalid_argument);
}

TEST(TimedRouter, ImpossiblePhaseThrows) {
  // The droplet cannot leave a fully walled-in corner.
  Layout layout(8, 8);
  layout.add(Module{ModuleKind::kMixer, Cell{0, 0}, 1, 1, 0, "A"});
  layout.add(Module{ModuleKind::kWaste, Cell{1, 0}, 1, 2, 0, "w1"});
  layout.add(Module{ModuleKind::kWaste, Cell{0, 1}, 1, 1, 0, "w2"});
  layout.add(Module{ModuleKind::kMixer, Cell{6, 6}, 1, 1, 0, "B"});
  TimedRouter router(layout);
  EXPECT_THROW((void)router.routePhase({PhaseMove{Cell{0, 0}, Cell{6, 6}, 0}}),
               std::runtime_error);
}

TEST(TimedRouter, VerifyToggleDoesNotChangeRoutes) {
  // verifyInterference only switches the post-route audit on or off; the
  // occupancy index drives the search either way, so routes are identical.
  const Layout layout = openField();
  TimedRouter audited(layout);
  TimedRouterOptions fast;
  fast.verifyInterference = false;
  TimedRouter unaudited(layout, fast);
  const std::vector<PhaseMove> moves{PhaseMove{Cell{0, 0}, Cell{11, 11}, 0},
                                     PhaseMove{Cell{11, 11}, Cell{0, 0}, 1},
                                     PhaseMove{Cell{11, 0}, Cell{0, 11}, 2}};
  const PhaseResult a = audited.routePhase(moves);
  const PhaseResult b = unaudited.routePhase(moves);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.totalActuations, b.totalActuations);
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    EXPECT_EQ(a.trajectories[i].tag, b.trajectories[i].tag);
    EXPECT_EQ(a.trajectories[i].positions, b.trajectories[i].positions);
  }
  // The unaudited result still passes the audit when run explicitly.
  audited.checkInterference(b.trajectories);
}

TEST(TimedRouter, CheckInterferenceDetectsViolations) {
  const Layout layout = openField();
  TimedRouter router(layout);
  // Hand-crafted colliding trajectories on open cells.
  Trajectory a{0, {Cell{5, 5}, Cell{5, 6}}};
  Trajectory b{1, {Cell{6, 5}, Cell{6, 6}}};
  EXPECT_THROW(router.checkInterference({a, b}), std::logic_error);
}

TEST(TimedRouter, RenderPhaseShowsDroplets) {
  const Layout layout = openField();
  TimedRouter router(layout);
  const PhaseResult result =
      router.routePhase({PhaseMove{Cell{0, 0}, Cell{5, 0}, 0}});
  const std::string frames = renderPhase(layout, result);
  EXPECT_NE(frames.find("step 0:"), std::string::npos);
  EXPECT_NE(frames.find('A'), std::string::npos);
}

TEST(Simulation, Fig5WorkloadIsFullyRoutable) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 20);
  const sched::Schedule schedule = sched::scheduleSRS(forest, 3);
  const ExecutionTrace trace = executor.run(forest, schedule);

  const SimulationResult sim = simulateTrace(layout, trace);
  EXPECT_FALSE(sim.phases.empty());
  // The concurrent simulation can only add detours over the BFS pricing.
  EXPECT_GE(sim.totalActuations, trace.totalCost);
  EXPECT_LE(sim.totalActuations, 2 * trace.totalCost);
  EXPECT_GT(sim.maxPhaseMakespan, 0u);
}

// Byte-identity golden for the timed router: FNV-1a over every phase of the
// D=20 PCR SRS trace on the Fig. 5 layout (cycle, every trajectory's tag and
// positions, makespan, actuations) and the run totals. Any change to move
// order, retries, the A* tie-breaks or the occupancy index moves the hash.
TEST(Simulation, PcrTraceHashPinned) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 20);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleSRS(forest, 3));
  const SimulationResult sim = simulateTrace(layout, trace);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto add = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001b3ull;
    }
  };
  for (const SimulatedPhase& phase : sim.phases) {
    add(phase.cycle);
    add(phase.routing.trajectories.size());
    for (const Trajectory& traj : phase.routing.trajectories) {
      add(traj.tag);
      add(traj.positions.size());
      for (const Cell& c : traj.positions) {
        add(static_cast<std::uint64_t>(c.x));
        add(static_cast<std::uint64_t>(c.y));
      }
    }
    add(phase.routing.makespan);
    add(phase.routing.totalActuations);
  }
  add(sim.totalActuations);
  add(sim.maxPhaseMakespan);
  add(sim.totalSteps);
  EXPECT_EQ(sim.phases.size(), 13u);
  EXPECT_EQ(hash, 0x957e3c303c48f544ull);
}

TEST(Simulation, EveryPhaseObeysFluidicConstraints) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 8);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleSRS(forest, 3));
  const SimulationResult sim = simulateTrace(layout, trace);
  TimedRouter timed(layout);
  for (const SimulatedPhase& phase : sim.phases) {
    EXPECT_NO_THROW(timed.checkInterference(phase.routing.trajectories));
  }
}

TEST(PinMapper, BroadcastNeedsFarFewerPinsThanDirect) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 20);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleSRS(forest, 3));
  const SimulationResult sim = simulateTrace(layout, trace);

  const ActuationMatrix matrix(layout, sim);
  const PinAssignment pins = assignPins(matrix);
  validatePins(matrix, pins);  // every group conflict-free

  const std::size_t direct =
      matrix.electrodeCount() - pins.idleElectrodes;
  EXPECT_GT(pins.pinCount(), 0u);
  EXPECT_LT(pins.pinCount(), direct);
  // Every constrained electrode is in exactly one group.
  std::size_t grouped = 0;
  for (const PinGroup& g : pins.pins) grouped += g.electrodes.size();
  EXPECT_EQ(grouped, direct);
}

TEST(PinMapper, CompatibilityIsSymmetric) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 4);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleSRS(forest, 3));
  const ActuationMatrix matrix(layout, simulateTrace(layout, trace));
  for (std::size_t a = 0; a < matrix.electrodeCount(); a += 17) {
    for (std::size_t b = 0; b < matrix.electrodeCount(); b += 13) {
      EXPECT_EQ(matrix.compatible(a, b), matrix.compatible(b, a));
    }
  }
}

TEST(Reliability, WearReportBasics) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 20);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleSRS(forest, 3));

  const WearReport report = analyzeWear(trace);
  EXPECT_EQ(report.total, trace.totalCost);
  EXPECT_EQ(report.peak, trace.peakActuations);
  EXPECT_GT(report.activeElectrodes, 0u);
  EXPECT_GE(report.imbalance, 0.0);
  EXPECT_LE(report.imbalance, 1.0);
  EXPECT_EQ(report.workloadsToBudget, 100'000u / report.peak);
}

TEST(Reliability, StreamingWearsLessThanRepeatedBaseline) {
  // The paper's reliability argument: fewer actuations -> longer chip life.
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));

  const TaskForest forest(graph, 20);
  const WearReport ours =
      analyzeWear(executor.run(forest, sched::scheduleSRS(forest, 3)));

  const TaskForest pass(graph, 2);
  const ExecutionTrace perPass =
      executor.run(pass, sched::scheduleOMS(pass, 3));
  ExecutionTrace repeated = perPass;  // 10 sequential passes wear x10
  for (auto& row : repeated.actuations) {
    for (auto& count : row) count *= 10;
  }
  repeated.totalCost *= 10;
  repeated.peakActuations *= 10;
  const WearReport baseline = analyzeWear(repeated);

  EXPECT_LT(ours.total, baseline.total);
  EXPECT_GT(ours.workloadsToBudget, baseline.workloadsToBudget);
}

TEST(Reliability, RejectsBadInput) {
  ExecutionTrace empty;
  EXPECT_THROW((void)analyzeWear(empty), std::invalid_argument);
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({1, 1}));
  const TaskForest forest(graph, 2);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleOMS(forest, 1));
  EXPECT_THROW((void)analyzeWear(trace, 0), std::invalid_argument);
}

TEST(Reliability, HeatMapRendering) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  const MixingGraph graph = buildMM(Ratio({2, 1, 1, 1, 1, 1, 9}));
  const TaskForest forest(graph, 8);
  const ExecutionTrace trace =
      executor.run(forest, sched::scheduleSRS(forest, 3));
  const std::string art = renderHeatMap(trace);
  EXPECT_NE(art.find('.'), std::string::npos);
  EXPECT_NE(art.find_first_of("123456789"), std::string::npos);
}

}  // namespace
}  // namespace dmf::chip
