#include "chip/layout.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "chip/executor.h"
#include "chip/pcr_layout.h"
#include "chip/placer.h"
#include "chip/router.h"
#include "engine/baseline.h"
#include "engine/mdst.h"
#include "mixgraph/builders.h"
#include "sched/schedulers.h"

namespace dmf::chip {
namespace {

using forest::TaskForest;
using mixgraph::buildMM;
using mixgraph::MixingGraph;

Ratio pcr() { return Ratio({2, 1, 1, 1, 1, 1, 9}); }

TEST(Layout, RejectsTinyArray) {
  EXPECT_THROW(Layout(2, 8), std::invalid_argument);
}

TEST(Layout, RejectsOutOfBoundsModules) {
  Layout layout(8, 8);
  EXPECT_THROW(
      layout.add(Module{ModuleKind::kMixer, Cell{7, 7}, 2, 2, 0, "M1"}),
      std::invalid_argument);
  EXPECT_THROW(
      layout.add(Module{ModuleKind::kMixer, Cell{-1, 0}, 2, 2, 0, "M1"}),
      std::invalid_argument);
}

TEST(Layout, RejectsOverlap) {
  Layout layout(10, 10);
  layout.add(Module{ModuleKind::kMixer, Cell{2, 2}, 2, 2, 0, "M1"});
  EXPECT_THROW(
      layout.add(Module{ModuleKind::kMixer, Cell{3, 3}, 2, 2, 0, "M2"}),
      std::invalid_argument);
}

TEST(Layout, ModuleLookup) {
  Layout layout(10, 10);
  const ModuleId mixer =
      layout.add(Module{ModuleKind::kMixer, Cell{2, 2}, 2, 2, 0, "M1"});
  const ModuleId res =
      layout.add(Module{ModuleKind::kReservoir, Cell{0, 0}, 1, 1, 4, "R5"});
  EXPECT_EQ(layout.moduleAt(Cell{3, 3}), mixer);
  EXPECT_EQ(layout.moduleAt(Cell{5, 5}), std::nullopt);
  EXPECT_EQ(layout.reservoirFor(4), res);
  EXPECT_THROW((void)layout.reservoirFor(0), std::invalid_argument);
  EXPECT_EQ(layout.byKind(ModuleKind::kMixer).size(), 1u);
}

TEST(Layout, PcrLayoutMatchesFig5Inventory) {
  const Layout layout = makePcrLayout();
  EXPECT_EQ(layout.byKind(ModuleKind::kReservoir).size(), 7u);
  EXPECT_EQ(layout.byKind(ModuleKind::kMixer).size(), 3u);
  EXPECT_EQ(layout.byKind(ModuleKind::kStorage).size(), 5u);
  EXPECT_EQ(layout.byKind(ModuleKind::kWaste).size(), 2u);
  EXPECT_EQ(layout.byKind(ModuleKind::kOutput).size(), 1u);
  EXPECT_TRUE(layout.hasSegregationSpacing());
}

TEST(Layout, RenderShowsModules) {
  const std::string text = makePcrLayout().render();
  EXPECT_NE(text.find('M'), std::string::npos);
  EXPECT_NE(text.find('R'), std::string::npos);
  EXPECT_NE(text.find('q'), std::string::npos);
}

TEST(Router, CostsAreSymmetricAndAtLeastManhattan) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  const auto& matrix = router.costMatrix();
  for (ModuleId a = 0; a < layout.moduleCount(); ++a) {
    EXPECT_EQ(matrix[a][a], 0u);
    for (ModuleId b = 0; b < layout.moduleCount(); ++b) {
      EXPECT_EQ(matrix[a][b], matrix[b][a]);
      EXPECT_GE(matrix[a][b] + 0,
                manhattan(layout.module(a).port(), layout.module(b).port()));
    }
  }
}

TEST(Router, RouteAvoidsForeignModules) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  const auto mixers = layout.byKind(ModuleKind::kMixer);
  const Route route = router.route(mixers[0], mixers[2]);
  for (const Cell& c : route.cells) {
    const auto occupant = layout.moduleAt(c);
    if (occupant.has_value()) {
      EXPECT_TRUE(*occupant == mixers[0] || *occupant == mixers[2]);
    }
  }
  EXPECT_EQ(route.cells.front(), layout.module(mixers[0]).port());
  EXPECT_EQ(route.cells.back(), layout.module(mixers[2]).port());
}

TEST(Router, ThrowsWhenWalledIn) {
  Layout layout(7, 7);
  const ModuleId a =
      layout.add(Module{ModuleKind::kMixer, Cell{0, 0}, 1, 1, 0, "A"});
  // Wall off the top-left corner.
  layout.add(Module{ModuleKind::kWaste, Cell{1, 0}, 1, 1, 0, "w1"});
  layout.add(Module{ModuleKind::kWaste, Cell{0, 1}, 1, 1, 0, "w2"});
  layout.add(Module{ModuleKind::kWaste, Cell{1, 1}, 1, 1, 0, "w3"});
  const ModuleId b =
      layout.add(Module{ModuleKind::kMixer, Cell{5, 5}, 1, 1, 0, "B"});
  Router router(layout);
  EXPECT_THROW(router.route(a, b), std::runtime_error);
}

TEST(Executor, RunsTheFig5Workload) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);

  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  const ExecutionTrace trace = executor.run(f, s);

  EXPECT_GT(trace.totalCost, 0u);
  // Droplet accounting: one dispense per input droplet, one output move per
  // target, one waste move per waste droplet.
  std::size_t dispenses = 0;
  std::size_t outputs = 0;
  std::size_t wastes = 0;
  for (const Move& m : trace.moves) {
    dispenses += m.kind == MoveKind::kDispense ? 1 : 0;
    outputs += m.kind == MoveKind::kToOutput ? 1 : 0;
    wastes += m.kind == MoveKind::kToWaste ? 1 : 0;
  }
  EXPECT_EQ(dispenses, f.stats().inputTotal);
  EXPECT_EQ(outputs, f.stats().targets);
  EXPECT_EQ(wastes, f.stats().waste);
  // Storage occupancy observed on chip equals Algorithm 3's count.
  EXPECT_EQ(trace.peakStorageUsed, sched::countStorage(f, s));
}

TEST(Executor, ParkAndUnparkComeInPairs) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const ExecutionTrace trace = executor.run(f, sched::scheduleSRS(f, 3));
  std::size_t parks = 0;
  std::size_t unparks = 0;
  for (const Move& m : trace.moves) {
    parks += m.kind == MoveKind::kPark ? 1 : 0;
    unparks += m.kind == MoveKind::kUnpark ? 1 : 0;
  }
  EXPECT_EQ(parks, unparks);
  EXPECT_GT(parks, 0u);
}

TEST(Executor, ThrowsWhenStorageIsShort)
{
  // One storage cell cannot hold the five parked droplets of the SRS run.
  const Layout layout = synthesizeLayout(7, 3, 1);
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  EXPECT_THROW((void)executor.run(f, sched::scheduleSRS(f, 3)),
               std::runtime_error);
}

TEST(Executor, HeatMapSumsToTotalCost) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 8);
  const ExecutionTrace trace = executor.run(f, sched::scheduleSRS(f, 3));
  std::uint64_t heat = 0;
  for (const auto& row : trace.actuations) {
    for (unsigned c : row) heat += c;
  }
  EXPECT_EQ(heat, trace.totalCost);
  EXPECT_GT(trace.peakActuations, 0u);
}

TEST(Executor, ForestBeatsRepeatedBaselineOnActuations) {
  // The Fig. 5 claim: the streaming engine needs far fewer electrode
  // actuations than repeated single-pass mixing (386 vs 980 in the paper).
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());

  TaskForest forest(g, 20);
  const ExecutionTrace ours =
      executor.run(forest, sched::scheduleSRS(forest, 3));

  TaskForest pass(g, 2);
  const ExecutionTrace perPass =
      executor.run(pass, sched::scheduleOMS(pass, 3));
  const std::uint64_t repeated = perPass.totalCost * 10;  // D=20 -> 10 passes

  EXPECT_LT(ours.totalCost, repeated);
  EXPECT_LT(static_cast<double>(ours.totalCost),
            0.7 * static_cast<double>(repeated));
}

TEST(Executor, RejectsScheduleWiderThanMixerBank) {
  const Layout layout = synthesizeLayout(7, 2, 5);
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 8);
  EXPECT_THROW((void)executor.run(f, sched::scheduleSRS(f, 3)),
               std::invalid_argument);
}

TEST(Placer, ImprovesRandomizedCost) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const ExecutionTrace trace = executor.run(f, sched::scheduleSRS(f, 3));
  const FlowMatrix flow = flowFromTrace(trace, layout.moduleCount());

  AnnealOptions options;
  options.iterations = 5000;
  const Layout optimized = annealPlacement(layout, flow, options);
  EXPECT_LE(placementCost(optimized, flow), placementCost(layout, flow));
  EXPECT_EQ(optimized.moduleCount(), layout.moduleCount());
}

TEST(Placer, DeterministicForSeed) {
  const Layout layout = makePcrLayout();
  FlowMatrix flow(layout.moduleCount(),
                  std::vector<double>(layout.moduleCount(), 1.0));
  AnnealOptions options;
  options.iterations = 2000;
  const Layout a = annealPlacement(layout, flow, options);
  const Layout b = annealPlacement(layout, flow, options);
  for (ModuleId id = 0; id < a.moduleCount(); ++id) {
    EXPECT_EQ(a.module(id).origin, b.module(id).origin);
  }
}

// Byte-identity golden for the annealer: FNV-1a over the module origins
// annealPlacement returns on the Fig. 5 PCR layout under the D=20 SRS flow,
// at the CLI's default iteration count and at bench_fig5_layout's 30000.
// Any change to the RNG draws, the temperature schedule or the acceptance
// rule moves a hash.
TEST(Placer, PcrOriginsHashPinned) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 20);
  const ExecutionTrace trace = executor.run(f, sched::scheduleSRS(f, 3));
  const FlowMatrix flow = flowFromTrace(trace, layout.moduleCount());
  auto originHash = [](const Layout& annealed) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (ModuleId id = 0; id < annealed.moduleCount(); ++id) {
      const Cell origin = annealed.module(id).origin;
      for (const int v : {origin.x, origin.y}) {
        hash ^= static_cast<std::uint64_t>(v);
        hash *= 0x100000001b3ull;
      }
    }
    return hash;
  };
  EXPECT_EQ(originHash(annealPlacement(layout, flow)), 0xefe4458ae5a8f18dull);
  AnnealOptions options;
  options.iterations = 30000;
  EXPECT_EQ(originHash(annealPlacement(layout, flow, options)),
            0xdfb22cddbcbee28eull);
}

TEST(Placer, FlowFromTraceIsSymmetric) {
  const Layout layout = makePcrLayout();
  Router router(layout);
  ChipExecutor executor(layout, router);
  MixingGraph g = buildMM(pcr());
  TaskForest f(g, 8);
  const ExecutionTrace trace = executor.run(f, sched::scheduleSRS(f, 3));
  const FlowMatrix flow = flowFromTrace(trace, layout.moduleCount());
  for (std::size_t a = 0; a < flow.size(); ++a) {
    for (std::size_t b = 0; b < flow.size(); ++b) {
      EXPECT_DOUBLE_EQ(flow[a][b], flow[b][a]);
    }
  }
}

TEST(Synthesize, ScalesToManyFluids) {
  const Layout layout = synthesizeLayout(12, 4, 7);
  EXPECT_EQ(layout.byKind(ModuleKind::kReservoir).size(), 12u);
  EXPECT_EQ(layout.byKind(ModuleKind::kMixer).size(), 4u);
  EXPECT_EQ(layout.byKind(ModuleKind::kStorage).size(), 7u);
  Router router(layout);
  // Every pair of modules must be connected.
  (void)router.costMatrix();
}

TEST(Synthesize, RejectsDegenerateRequests) {
  EXPECT_THROW(synthesizeLayout(0, 3, 5), std::invalid_argument);
  EXPECT_THROW(synthesizeLayout(7, 0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace dmf::chip
