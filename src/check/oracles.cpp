#include "check/oracles.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmf/mixture_value.h"
#include "engine/mdst.h"
#include "mixgraph/graph.h"

namespace dmf::check {

using forest::DropletFate;
using forest::kNoTask;
using forest::Task;
using forest::TaskForest;
using forest::TaskId;

std::string CheckResult::summary() const {
  std::string out;
  for (const std::string& f : failures) {
    out += f;
    out += '\n';
  }
  return out;
}

namespace {

// Bounded counting assertion helper: bumps checksRun and reports on
// mismatch.
void expectEq(CheckResult& out, const char* oracle, const std::string& what,
              std::uint64_t got, std::uint64_t want) {
  ++out.checksRun;
  if (got != want) {
    out.fail(oracle, what + " — got " + std::to_string(got) + ", expected " +
                         std::to_string(want));
  }
}

}  // namespace

void checkForestConservation(const TaskForest& forest, CheckResult& out) {
  const char* kOracle = "conservation";
  std::uint64_t inputs = 0;
  std::uint64_t targets = 0;
  std::uint64_t waste = 0;
  std::uint64_t consumed = 0;
  std::vector<std::uint64_t> perFluid(
      forest.graph().ratio().fluidCount(), 0);
  std::set<std::uint32_t> trees;
  std::map<mixgraph::NodeId, std::uint64_t> execsPerNode;
  for (TaskId id = 0; id < forest.taskCount(); ++id) {
    const Task t = forest.task(id);
    trees.insert(t.tree);
    ++execsPerNode[t.node];
    const mixgraph::Node& node = forest.graph().node(t.node);
    for (const auto& [dep, child] :
         {std::pair{t.depLeft, node.left}, std::pair{t.depRight, node.right}}) {
      if (dep != kNoTask) continue;
      ++inputs;
      // A reservoir-dispensed operand means the base-graph child is a leaf
      // of one pure fluid.
      ++out.checksRun;
      if (child == mixgraph::kNoNode ||
          !forest.graph().node(child).isLeaf()) {
        out.fail(kOracle, "task " + std::to_string(id) +
                              " dispenses from a non-leaf operand");
        continue;
      }
      const std::size_t fluid = forest.graph().node(child).value.pureFluid();
      if (fluid < perFluid.size()) ++perFluid[fluid];
    }
    for (const auto& drop : t.out) {
      switch (drop.fate) {
        case DropletFate::kTarget: ++targets; break;
        case DropletFate::kWaste: ++waste; break;
        case DropletFate::kConsumed: ++consumed; break;
      }
    }
  }
  // Each mix-split takes 2 droplets and emits 2, so over the whole forest:
  // inputs + consumed == 2 * tasks == targets + waste + consumed, i.e.
  // inputs == targets + waste.
  expectEq(out, kOracle, "2 droplets out per mix-split",
           targets + waste + consumed, 2 * forest.taskCount());
  expectEq(out, kOracle, "2 droplets in per mix-split", inputs + consumed,
           2 * forest.taskCount());
  expectEq(out, kOracle, "inputs == targets + waste (conservation)", inputs,
           targets + waste);
  expectEq(out, kOracle, "target droplets == total demand", targets,
           forest.demand());
  expectEq(out, kOracle, "stats.inputTotal", forest.stats().inputTotal,
           inputs);
  expectEq(out, kOracle, "stats.waste", forest.stats().waste, waste);
  expectEq(out, kOracle, "stats.targets", forest.stats().targets, targets);
  expectEq(out, kOracle, "stats.mixSplits", forest.stats().mixSplits,
           forest.taskCount());
  expectEq(out, kOracle, "stats.componentTrees == distinct tree tags",
           forest.stats().componentTrees, trees.size());
  for (std::size_t f = 0; f < perFluid.size(); ++f) {
    expectEq(out, kOracle, "stats.inputPerFluid[" + std::to_string(f) + "]",
             f < forest.stats().inputPerFluid.size()
                 ? forest.stats().inputPerFluid[f]
                 : 0,
             perFluid[f]);
  }
  for (const auto& [node, execs] : execsPerNode) {
    expectEq(out, kOracle,
             "executions(node " + std::to_string(node) + ")",
             forest.executions(node), execs);
  }
  // The paper's zero-waste theorem: a classic single-target forest with
  // D = p * 2^d (d the accuracy level) reuses every second droplet, so no
  // droplet is wasted at all.
  const bool classicSingleTarget =
      forest.demandNodes().size() == 1 &&
      forest.graph().roots().size() == 1 &&
      forest.demandNodes()[0] == forest.graph().root();
  if (classicSingleTarget && forest.depth() < 63 &&
      forest.demand() % (std::uint64_t{1} << forest.depth()) == 0) {
    expectEq(out, "zero-waste",
             "waste at aligned demand D = p * 2^d (d = " +
                 std::to_string(forest.depth()) + ")",
             waste, 0);
  }
}

void checkForestWiring(const TaskForest& forest, CheckResult& out) {
  const char* kOracle = "wiring";
  const std::size_t n = forest.taskCount();
  // Incoming droplets claimed by consumers vs droplets granted by producers.
  std::vector<std::uint64_t> claimed(n, 0);
  std::vector<std::uint64_t> granted(n, 0);
  for (TaskId id = 0; id < n; ++id) {
    const Task t = forest.task(id);
    for (TaskId dep : {t.depLeft, t.depRight}) {
      if (dep == kNoTask) continue;
      ++out.checksRun;
      if (dep >= n) {
        out.fail(kOracle, "task " + std::to_string(id) +
                              " depends on out-of-range task " +
                              std::to_string(dep));
        continue;
      }
      ++claimed[id];
    }
    for (const auto& drop : t.out) {
      if (drop.fate != DropletFate::kConsumed) {
        ++out.checksRun;
        if (drop.consumer != kNoTask) {
          out.fail(kOracle, "task " + std::to_string(id) +
                                " non-consumed droplet names a consumer");
        }
        continue;
      }
      ++out.checksRun;
      if (drop.consumer >= n) {
        out.fail(kOracle, "task " + std::to_string(id) +
                              " droplet consumed by out-of-range task");
        continue;
      }
      ++granted[drop.consumer];
      // The consumer must actually list this producer as an operand.
      const Task c = forest.task(drop.consumer);
      if (c.depLeft != id && c.depRight != id) {
        out.fail(kOracle, "task " + std::to_string(drop.consumer) +
                              " consumes a droplet of task " +
                              std::to_string(id) +
                              " it does not list as an operand");
      }
    }
  }
  for (TaskId id = 0; id < n; ++id) {
    expectEq(out, kOracle,
             "operand droplets granted to task " + std::to_string(id),
             granted[id], claimed[id]);
  }
  // Acyclicity by explicit three-colour DFS over the dependency edges.
  std::vector<std::uint8_t> colour(n, 0);  // 0 white, 1 grey, 2 black
  std::vector<std::pair<TaskId, int>> stack;
  bool cyclic = false;
  for (TaskId start = 0; start < n && !cyclic; ++start) {
    if (colour[start] != 0) continue;
    stack.push_back({start, 0});
    colour[start] = 1;
    while (!stack.empty() && !cyclic) {
      auto& [id, edge] = stack.back();
      const Task t = forest.task(id);
      const TaskId deps[2] = {t.depLeft, t.depRight};
      if (edge >= 2) {
        colour[id] = 2;
        stack.pop_back();
        continue;
      }
      const TaskId dep = deps[edge++];
      if (dep == kNoTask || dep >= n || colour[dep] == 2) continue;
      if (colour[dep] == 1) {
        cyclic = true;
        break;
      }
      colour[dep] = 1;
      stack.push_back({dep, 0});
    }
  }
  ++out.checksRun;
  if (cyclic) out.fail(kOracle, "dependency relation has a cycle");
}

void checkMixtureCorrectness(const TaskForest& forest, CheckResult& out) {
  const char* kOracle = "mixture";
  const mixgraph::MixingGraph& graph = forest.graph();
  const std::size_t n = forest.taskCount();
  std::vector<std::optional<MixtureValue>> value(n);

  // Bottom-up evaluation with an explicit stack (no reliance on any id
  // ordering the builder happens to produce).
  for (TaskId start = 0; start < n; ++start) {
    if (value[start].has_value()) continue;
    std::vector<TaskId> stack{start};
    while (!stack.empty()) {
      const TaskId id = stack.back();
      if (value[id].has_value()) {
        stack.pop_back();
        continue;
      }
      const Task t = forest.task(id);
      bool readyToEval = true;
      for (TaskId dep : {t.depLeft, t.depRight}) {
        if (dep != kNoTask && dep < n && !value[dep].has_value()) {
          stack.push_back(dep);
          readyToEval = false;
        }
      }
      if (!readyToEval) continue;
      stack.pop_back();
      const mixgraph::Node& node = graph.node(t.node);
      auto operandValue =
          [&](TaskId dep, mixgraph::NodeId child) -> MixtureValue {
        if (dep != kNoTask && dep < n) return *value[dep];
        return graph.node(child).value;  // reservoir dispense: leaf value
      };
      try {
        const MixtureValue mixed =
            MixtureValue::mix(operandValue(t.depLeft, node.left),
                              operandValue(t.depRight, node.right));
        ++out.checksRun;
        if (mixed != node.value) {
          out.fail(kOracle, forest.taskLabel(id) + " evaluates to " +
                                mixed.toString() + ", base graph claims " +
                                node.value.toString());
        }
        value[id] = mixed;
      } catch (const std::exception& e) {
        ++out.checksRun;
        out.fail(kOracle,
                 forest.taskLabel(id) + " evaluation threw: " + e.what());
        value[id] = node.value;  // keep going with the claimed value
      }
    }
  }

  // Every emitted target droplet must carry the composition of its demand
  // node — for classic forests that is the target ratio itself.
  std::map<mixgraph::NodeId, std::uint64_t> targetsPerNode;
  for (TaskId id = 0; id < n; ++id) {
    const Task t = forest.task(id);
    for (const auto& drop : t.out) {
      if (drop.fate != DropletFate::kTarget) continue;
      ++targetsPerNode[t.node];
      ++out.checksRun;
      if (value[id].has_value() &&
          *value[id] != graph.node(t.node).value) {
        out.fail(kOracle, "target droplet of " + forest.taskLabel(id) +
                              " has off-target composition " +
                              value[id]->toString());
      }
    }
  }
  for (std::size_t i = 0; i < forest.demandNodes().size(); ++i) {
    const mixgraph::NodeId node = forest.demandNodes()[i];
    const auto it = targetsPerNode.find(node);
    expectEq(out, kOracle,
             "targets emitted at demand node " + std::to_string(node),
             it == targetsPerNode.end() ? 0 : it->second,
             forest.demands()[i]);
    if (it != targetsPerNode.end()) targetsPerNode.erase(it);
  }
  ++out.checksRun;
  if (!targetsPerNode.empty()) {
    out.fail(kOracle, "targets emitted at a non-demand node " +
                          std::to_string(targetsPerNode.begin()->first));
  }
  // Classic single-target forests: the demand node's value is the ratio's
  // target composition, checked exactly.
  if (forest.demandNodes().size() == 1 &&
      forest.demandNodes()[0] == graph.root()) {
    ++out.checksRun;
    if (graph.node(graph.root()).value != MixtureValue::target(graph.ratio())) {
      out.fail(kOracle, "root composition differs from the target ratio");
    }
  }
}

void checkScheduleValidity(const TaskForest& forest, const sched::Schedule& s,
                           CheckResult& out) {
  const char* kOracle = "schedule";
  const std::size_t n = forest.taskCount();
  ++out.checksRun;
  if (s.size() != n) {
    out.fail(kOracle, "assignment count " + std::to_string(s.size()) +
                          " != task count " + std::to_string(n));
    return;
  }
  std::set<std::pair<unsigned, unsigned>> slots;
  unsigned last = 0;
  for (TaskId id = 0; id < n; ++id) {
    const unsigned cycle = s.cycles[id];
    const unsigned mixer = s.mixers[id];
    ++out.checksRun;
    if (cycle == 0) {
      out.fail(kOracle, "task " + std::to_string(id) + " unscheduled");
      continue;
    }
    if (mixer >= s.mixerCount) {
      out.fail(kOracle, "task " + std::to_string(id) + " on mixer " +
                            std::to_string(mixer) + " of a " +
                            std::to_string(s.mixerCount) + "-mixer bank");
    }
    if (!slots.insert({cycle, mixer}).second) {
      out.fail(kOracle, "two mix-splits share cycle " +
                            std::to_string(cycle) + " mixer " +
                            std::to_string(mixer));
    }
    const Task t = forest.task(id);
    for (TaskId dep : {t.depLeft, t.depRight}) {
      if (dep == kNoTask || dep >= n) continue;
      if (s.cycles[dep] >= cycle) {
        out.fail(kOracle, "operand of task " + std::to_string(id) +
                              " not produced strictly earlier");
      }
    }
    last = std::max(last, cycle);
  }
  expectEq(out, kOracle, "completionTime == last busy cycle",
           s.completionTime, last);
}

unsigned storageOracle(const TaskForest& forest, const sched::Schedule& s) {
  // One +1 event the cycle after production, one -1 event at the consumption
  // cycle, per consumed droplet; peak of the prefix sum is the answer.
  unsigned horizon = 0;
  for (const unsigned cycle : s.cycles) {
    horizon = std::max(horizon, cycle);
  }
  std::vector<std::int64_t> delta(horizon + 2, 0);
  for (TaskId id = 0; id < forest.taskCount(); ++id) {
    const unsigned produced = s.cycles[id];
    const Task task = forest.task(id);
    for (const auto& drop : task.out) {
      if (drop.fate != DropletFate::kConsumed) continue;
      const unsigned consumed = s.cycles[drop.consumer];
      if (consumed > produced + 1) {
        delta[produced + 1] += 1;
        delta[consumed] -= 1;
      }
    }
  }
  std::int64_t occupancy = 0;
  std::int64_t peak = 0;
  for (std::size_t t = 0; t < delta.size(); ++t) {
    occupancy += delta[t];
    peak = std::max(peak, occupancy);
  }
  return static_cast<unsigned>(peak);
}

void checkStorageCount(const TaskForest& forest, const sched::Schedule& s,
                       CheckResult& out) {
  expectEq(out, "storage-count",
           "Algorithm 3 (countStorage) vs droplet-event oracle",
           sched::countStorage(forest, s), storageOracle(forest, s));
}

namespace {

unsigned criticalPathOracle(const TaskForest& forest) {
  const std::size_t n = forest.taskCount();
  std::vector<unsigned> chain(n, 0);  // 0 = not yet computed
  unsigned best = 0;
  for (TaskId start = 0; start < n; ++start) {
    std::vector<TaskId> stack{start};
    while (!stack.empty()) {
      const TaskId id = stack.back();
      if (chain[id] != 0) {
        stack.pop_back();
        continue;
      }
      const Task t = forest.task(id);
      unsigned longest = 0;
      bool readyToEval = true;
      for (TaskId dep : {t.depLeft, t.depRight}) {
        if (dep == kNoTask || dep >= n) continue;
        if (chain[dep] == 0) {
          stack.push_back(dep);
          readyToEval = false;
        } else {
          longest = std::max(longest, chain[dep]);
        }
      }
      if (!readyToEval) continue;
      stack.pop_back();
      chain[id] = longest + 1;
      best = std::max(best, chain[id]);
    }
  }
  return best;
}

}  // namespace

void checkCompletionLowerBounds(const TaskForest& forest,
                                const sched::Schedule& s, CheckResult& out) {
  const char* kOracle = "lower-bound";
  if (forest.taskCount() == 0) return;
  const unsigned cp = criticalPathOracle(forest);
  const auto width = static_cast<unsigned>(
      (forest.taskCount() + s.mixerCount - 1) / std::max(1u, s.mixerCount));
  ++out.checksRun;
  if (s.completionTime < cp) {
    out.fail(kOracle, s.scheme + " completion " +
                          std::to_string(s.completionTime) +
                          " beats the critical path " + std::to_string(cp));
  }
  ++out.checksRun;
  if (s.completionTime < width) {
    out.fail(kOracle, s.scheme + " completion " +
                          std::to_string(s.completionTime) +
                          " beats the width bound " + std::to_string(width));
  }
}

void checkSrsContract(const TaskForest& forest, const sched::Schedule& srs,
                      const sched::Schedule& mms, CheckResult& out) {
  const unsigned srsStorage = storageOracle(forest, srs);
  const unsigned mmsStorage = storageOracle(forest, mms);
  ++out.checksRun;
  if (srsStorage > mmsStorage) {
    out.fail("srs-contract", "SRS stores " + std::to_string(srsStorage) +
                                 " units, more than MMS's " +
                                 std::to_string(mmsStorage));
  }
}

void checkScheduledForest(const TaskForest& forest, const sched::Schedule& s,
                          unsigned storageCap, CheckResult& out) {
  checkScheduleValidity(forest, s, out);
  checkStorageCount(forest, s, out);
  checkCompletionLowerBounds(forest, s, out);
  if (storageCap > 0) {
    const unsigned storage = storageOracle(forest, s);
    ++out.checksRun;
    if (storage > storageCap) {
      out.fail("storage-cap", s.scheme + " parks " + std::to_string(storage) +
                                  " droplets over the cap of " +
                                  std::to_string(storageCap));
    }
  }
}

void checkStreamingPlan(const engine::MdstEngine& engine,
                        const engine::StreamingRequest& request,
                        const engine::StreamingPlan& plan, CheckResult& out) {
  const char* kOracle = "stream-plan";
  std::uint64_t demandSum = 0;
  std::uint64_t cycleSum = 0;
  std::uint64_t wasteSum = 0;
  std::uint64_t inputSum = 0;
  unsigned peak = 0;
  // Re-evaluate each distinct pass demand once, from scratch.
  std::map<std::uint64_t, engine::StreamingPass> reference;
  for (const engine::StreamingPass& pass : plan.passes) {
    demandSum += pass.demand;
    cycleSum += pass.cycles;
    wasteSum += pass.waste;
    inputSum += pass.inputDroplets;
    peak = std::max(peak, pass.storageUnits);
    if (reference.find(pass.demand) == reference.end()) {
      const forest::TaskForest forest =
          engine.buildForest(request.algorithm, pass.demand);
      const sched::Schedule schedule =
          engine::schedule(forest, request.scheme, plan.mixers);
      engine::StreamingPass ref;
      ref.demand = pass.demand;
      ref.cycles = schedule.completionTime;
      ref.storageUnits = storageOracle(forest, schedule);
      ref.waste = forest.stats().waste;
      ref.inputDroplets = forest.stats().inputTotal;
      ref.mixSplits = forest.stats().mixSplits;
      reference.emplace(pass.demand, ref);
      checkScheduledForest(forest, schedule, request.storageCap, out);
    }
    const engine::StreamingPass& ref = reference.at(pass.demand);
    expectEq(out, kOracle, "pass cycles at demand " +
                               std::to_string(pass.demand),
             pass.cycles, ref.cycles);
    expectEq(out, kOracle, "pass storage at demand " +
                               std::to_string(pass.demand),
             pass.storageUnits, ref.storageUnits);
    expectEq(out, kOracle, "pass waste at demand " +
                               std::to_string(pass.demand),
             pass.waste, ref.waste);
    expectEq(out, kOracle, "pass input droplets at demand " +
                               std::to_string(pass.demand),
             pass.inputDroplets, ref.inputDroplets);
    ++out.checksRun;
    if (pass.storageUnits > request.storageCap) {
      out.fail(kOracle, "pass of demand " + std::to_string(pass.demand) +
                            " exceeds the storage cap " +
                            std::to_string(request.storageCap));
    }
  }
  expectEq(out, kOracle, "pass demands sum to the requested demand",
           demandSum, request.demand);
  expectEq(out, kOracle, "totalCycles", plan.totalCycles, cycleSum);
  expectEq(out, kOracle, "totalWaste", plan.totalWaste, wasteSum);
  expectEq(out, kOracle, "totalInput", plan.totalInput, inputSum);
  expectEq(out, kOracle, "plan storageUnits is the pass peak",
           plan.storageUnits, peak);
}

}  // namespace dmf::check
