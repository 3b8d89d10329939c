#include "chip/placer.h"

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

namespace dmf::chip {

FlowMatrix flowFromTrace(const ExecutionTrace& trace,
                         std::size_t moduleCount) {
  FlowMatrix flow(moduleCount, std::vector<double>(moduleCount, 0.0));
  for (const Move& move : trace.moves) {
    if (move.from == move.to) continue;
    flow[move.from][move.to] += 1.0;
    flow[move.to][move.from] += 1.0;
  }
  return flow;
}

double placementCost(const Layout& layout, const FlowMatrix& flow) {
  if (flow.size() != layout.moduleCount()) {
    throw std::invalid_argument("placementCost: flow matrix size mismatch");
  }
  double cost = 0.0;
  for (ModuleId a = 0; a < layout.moduleCount(); ++a) {
    for (ModuleId b = static_cast<ModuleId>(a + 1); b < layout.moduleCount();
         ++b) {
      cost += flow[a][b] *
              manhattan(layout.module(a).port(), layout.module(b).port());
    }
  }
  return cost;
}

namespace {

// Seed of the annealer's generator.
constexpr std::uint64_t kSeed = 1;
// Initial temperature as a fraction of the initial cost.
constexpr double kInitialTemperature = 0.2;
// Geometric cooling factor applied every `iterations / 100` steps.
constexpr double kCooling = 0.95;

// Rebuilds a Layout from module descriptors (positions already legal).
Layout materialize(int width, int height, const std::vector<Module>& modules) {
  Layout layout(width, height);
  for (const Module& m : modules) {
    layout.add(m);
  }
  return layout;
}

// Candidate placements must keep one free cell around every neighbour (the
// droplet-segregation spacing); flush modules can wall ports in and make the
// layout unroutable.
bool overlapsAny(const std::vector<Module>& modules, std::size_t self,
                 const Module& candidate) {
  for (std::size_t i = 0; i < modules.size(); ++i) {
    if (i == self) continue;
    const Module& other = modules[i];
    const bool apartX =
        candidate.origin.x + candidate.width < other.origin.x ||
        other.origin.x + other.width < candidate.origin.x;
    const bool apartY =
        candidate.origin.y + candidate.height < other.origin.y ||
        other.origin.y + other.height < candidate.origin.y;
    if (!apartX && !apartY) return true;
  }
  return false;
}

double pairCost(const std::vector<Module>& modules, std::size_t self,
                const FlowMatrix& flow) {
  double cost = 0.0;
  const Cell port = modules[self].port();
  for (std::size_t i = 0; i < modules.size(); ++i) {
    if (i == self) continue;
    cost += flow[self][i] * manhattan(port, modules[i].port());
  }
  return cost;
}

}  // namespace

Layout annealPlacement(const Layout& initial, const FlowMatrix& flow,
                       const AnnealOptions& options) {
  if (flow.size() != initial.moduleCount()) {
    throw std::invalid_argument("annealPlacement: flow matrix size mismatch");
  }
  std::vector<Module> current = initial.modules();
  std::vector<Module> best = current;
  double currentCost = placementCost(initial, flow);
  double bestCost = currentCost;

  std::mt19937_64 rng(kSeed);
  double temperature = std::max(1.0, currentCost * kInitialTemperature);
  const unsigned coolEvery = std::max(1u, options.iterations / 100);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  for (unsigned iter = 0; iter < options.iterations; ++iter) {
    const std::size_t pick = rng() % current.size();
    Module candidate = current[pick];
    const int maxX = initial.width() - candidate.width;
    const int maxY = initial.height() - candidate.height;
    candidate.origin =
        Cell{static_cast<int>(rng() % static_cast<unsigned>(maxX + 1)),
             static_cast<int>(rng() % static_cast<unsigned>(maxY + 1))};
    if (overlapsAny(current, pick, candidate)) continue;

    const double before = pairCost(current, pick, flow);
    const Module saved = current[pick];
    current[pick] = candidate;
    const double after = pairCost(current, pick, flow);
    const double delta = after - before;
    if (delta <= 0.0 || uniform(rng) < std::exp(-delta / temperature)) {
      currentCost += delta;
      if (currentCost < bestCost) {
        bestCost = currentCost;
        best = current;
      }
    } else {
      current[pick] = saved;
    }
    if ((iter + 1) % coolEvery == 0) {
      temperature = std::max(1e-3, temperature * kCooling);
    }
  }
  Layout result = materialize(initial.width(), initial.height(), best);
  // Spacing keeps ports reachable in practice, but a pathological state can
  // still partition the free cells; fall back to the input layout then.
  try {
    Router router(result);
    (void)router.costMatrix();
  } catch (const std::runtime_error&) {
    return initial;
  }
  return result;
}

}  // namespace dmf::chip
