#include "forest/task_forest.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dmf::forest {

namespace {

using mixgraph::kNoNode;
using mixgraph::MixingGraph;
using mixgraph::NodeId;

// Safety valve: a forest this large means a absurd demand or ratio; refuse
// rather than exhaust memory.
constexpr std::uint64_t kMaxTasks = 50'000'000;

// The root-demand constructors' argument checks.
void checkRootDemands(const MixingGraph& graph, std::size_t count,
                      const std::uint64_t* demands) {
  if (!graph.finalized()) {
    throw std::invalid_argument("TaskForest: graph must be finalized");
  }
  if (count != graph.roots().size()) {
    throw std::invalid_argument(
        "TaskForest: need exactly one demand per graph root (" +
        std::to_string(graph.roots().size()) + ")");
  }
  if (std::find(demands, demands + count, 0) != demands + count) {
    throw std::invalid_argument("TaskForest: demands must be positive");
  }
}

}  // namespace

TaskForest::TaskForest(const MixingGraph& graph, std::uint64_t demand)
    : TaskForest(graph, std::vector<std::uint64_t>{demand}) {}

TaskForest::TaskForest(const MixingGraph& graph,
                       std::vector<std::uint64_t> demands)
    : graph_(&graph), demands_(std::move(demands)) {
  checkRootDemands(graph, demands_.size(), demands_.data());
  demandNodes_ = graph.roots();
  build();
}

void TaskForest::rebuild(const MixingGraph& graph, std::uint64_t demand) {
  checkRootDemands(graph, 1, &demand);
  graph_ = &graph;
  demands_.assign(1, demand);
  demandNodes_.assign(graph.roots().begin(), graph.roots().end());
  build();
}

TaskForest::TaskForest(const MixingGraph& graph,
                       const std::vector<NodeDemand>& needs)
    : graph_(&graph) {
  if (!graph.finalized()) {
    throw std::invalid_argument("TaskForest: graph must be finalized");
  }
  if (needs.empty()) {
    throw std::invalid_argument("TaskForest: no demand injected");
  }
  for (const NodeDemand& need : needs) {
    if (need.node >= graph.nodeCount()) {
      throw std::invalid_argument("TaskForest: demand at unknown node " +
                                  std::to_string(need.node));
    }
    if (graph.node(need.node).isLeaf()) {
      throw std::invalid_argument(
          "TaskForest: demand at leaf node " + std::to_string(need.node) +
          " (a leaf droplet is a dispense, not a mix product)");
    }
    if (need.count == 0) {
      throw std::invalid_argument("TaskForest: demands must be positive");
    }
    // Duplicate nodes merge at the first occurrence.
    const auto it =
        std::find(demandNodes_.begin(), demandNodes_.end(), need.node);
    if (it == demandNodes_.end()) {
      demandNodes_.push_back(need.node);
      demands_.push_back(need.count);
    } else {
      demands_[static_cast<std::size_t>(it - demandNodes_.begin())] +=
          need.count;
    }
  }
  build();
}

void TaskForest::build() {
  const MixingGraph& graph = *graph_;
  const std::size_t nodeCount = graph.nodeCount();
  const std::vector<NodeId>& topDown = graph.nodesByLevelDesc();

  // Build-time temporaries live in per-thread scratch vectors, refilled with
  // assign: a sweep re-building forests back to back reuses their capacity
  // instead of hitting the allocator per build.
  struct Scratch {
    std::vector<std::size_t> rootIndex;
    std::vector<std::uint64_t> need;
    std::vector<std::uint32_t> treeBase;
  };
  static thread_local Scratch scratch;

  // Per-node demand-point index (for target-droplet allocation), kNoRoot
  // otherwise. For the classic constructors the demand points are the roots.
  constexpr std::size_t kNoRoot = static_cast<std::size_t>(-1);
  std::vector<std::size_t>& rootIndex = scratch.rootIndex;
  rootIndex.assign(nodeCount, kNoRoot);
  for (std::size_t r = 0; r < demandNodes_.size(); ++r) {
    rootIndex[demandNodes_[r]] = r;
  }

  // ---- demand propagation ------------------------------------------------
  std::vector<std::uint64_t>& need = scratch.need;
  need.assign(nodeCount, 0);
  execs_.assign(nodeCount, 0);
  std::vector<std::uint64_t> inputPerFluid = std::move(stats_.inputPerFluid);
  stats_ = ForestStats{};
  stats_.inputPerFluid = std::move(inputPerFluid);
  stats_.targets =
      std::accumulate(demands_.begin(), demands_.end(), std::uint64_t{0});
  stats_.inputPerFluid.assign(graph.ratio().fluidCount(), 0);

  for (std::size_t r = 0; r < demands_.size(); ++r) {
    need[demandNodes_[r]] += demands_[r];
  }
  std::uint64_t totalTasks = 0;
  for (NodeId v : topDown) {
    if (need[v] == 0) continue;
    const auto& n = graph.node(v);
    if (n.isLeaf()) {
      stats_.inputPerFluid[n.value.pureFluid()] += need[v];
      stats_.inputTotal += need[v];
      continue;
    }
    execs_[v] = (need[v] + 1) / 2;
    stats_.mixSplits += execs_[v];
    stats_.waste += 2 * execs_[v] - need[v];
    totalTasks += execs_[v];
    need[n.left] += execs_[v];
    need[n.right] += execs_[v];
  }
  for (NodeId root : demandNodes_) {
    stats_.componentTrees += execs_[root];
  }
  if (totalTasks > kMaxTasks ||
      totalTasks > std::numeric_limits<TaskId>::max() - 1) {
    throw std::overflow_error("TaskForest: forest too large (" +
                              std::to_string(totalTasks) + " mix-splits)");
  }

  // ---- task instantiation (level-ascending id order) ---------------------
  // Level, operand class and operand leaf-ness belong to the node, so they
  // are worked out once per node and filled into its instances' slots. A
  // leaf operand is a dispense (kNoTask); the wiring below overwrites the
  // others.
  const auto count = static_cast<std::size_t>(totalTasks);
  firstTask_.assign(nodeCount, kNoTask);
  node_.resize(count);
  levels_.resize(count);
  operandClass_.resize(count);
  initialPending_.resize(count);
  depLeft_.resize(count);
  depRight_.resize(count);
  tree_.resize(count);
  consumedOuts_.assign(count, 0);
  outConsumer_.resize(2 * count);
  outFate_.resize(2 * count);
  initialReady_.clear();
  TaskId nextTask = 0;
  for (auto it = topDown.rbegin(); it != topDown.rend(); ++it) {
    const NodeId v = *it;
    const auto& n = graph.node(v);
    if (n.isLeaf() || execs_[v] == 0) continue;
    const bool leftLeaf = graph.node(n.left).isLeaf();
    const bool rightLeaf = graph.node(n.right).isLeaf();
    const OperandClass operandClass =
        leftLeaf && rightLeaf ? OperandClass::kTypeC
        : leftLeaf || rightLeaf ? OperandClass::kTypeB
                                : OperandClass::kTypeA;
    const auto pending =
        static_cast<std::uint8_t>((leftLeaf ? 0 : 1) + (rightLeaf ? 0 : 1));
    const TaskId first = nextTask;
    nextTask += static_cast<TaskId>(execs_[v]);
    firstTask_[v] = first;
    std::fill(node_.begin() + first, node_.begin() + nextTask, v);
    std::fill(levels_.begin() + first, levels_.begin() + nextTask, n.level);
    std::fill(operandClass_.begin() + first, operandClass_.begin() + nextTask,
              operandClass);
    std::fill(initialPending_.begin() + first,
              initialPending_.begin() + nextTask, pending);
    std::fill(depLeft_.begin() + first, depLeft_.begin() + nextTask, kNoTask);
    std::fill(depRight_.begin() + first, depRight_.begin() + nextTask,
              kNoTask);
    if (pending == 0) {
      for (TaskId id = first; id < nextTask; ++id) initialReady_.push_back(id);
    }
  }

  // ---- droplet allocation & dependency wiring ----------------------------
  // Droplets of node v are indexed 0 .. 2*execs(v)-1 in production order;
  // droplet j comes from instance j/2. A root's first demand[r] droplets are
  // targets; remaining droplets go to consumer positions in graph order,
  // each position taking one droplet per instance in instance order. The
  // instances of v are numbered consecutively, so v's droplets are a
  // consecutive run of the per-droplet arrays and droplet `slot` belongs to
  // task slot / 2.
  std::uint8_t* const fates = outFate_.data();
  TaskId* const consumers = outConsumer_.data();
  for (NodeId v = 0; v < nodeCount; ++v) {
    if (graph.node(v).isLeaf() || execs_[v] == 0) continue;
    std::size_t slot = 2 * std::size_t{firstTask_[v]};
    const std::size_t end = slot + 2 * execs_[v];
    if (rootIndex[v] != kNoRoot) {
      const std::size_t targets = demands_[rootIndex[v]];
      std::fill(fates + slot, fates + slot + targets,
                static_cast<std::uint8_t>(DropletFate::kTarget));
      std::fill(consumers + slot, consumers + slot + targets, kNoTask);
      slot += targets;
    }
    for (NodeId p : graph.consumers()[v]) {
      // `p` appears once per operand slot that references v.
      std::vector<TaskId>& deps =
          graph.node(p).left == v ? depLeft_ : depRight_;
      const TaskId firstConsumer = firstTask_[p];
      for (std::uint64_t k = 0; k < execs_[p]; ++k) {
        const TaskId consumer = firstConsumer + static_cast<TaskId>(k);
        const auto producer = static_cast<TaskId>(slot / 2);
        deps[consumer] = producer;
        ++consumedOuts_[producer];
        fates[slot] = static_cast<std::uint8_t>(DropletFate::kConsumed);
        consumers[slot] = consumer;
        ++slot;
      }
    }
    std::fill(fates + slot, fates + end,
              static_cast<std::uint8_t>(DropletFate::kWaste));
    std::fill(consumers + slot, consumers + end, kNoTask);
  }

  // ---- component-tree labelling ------------------------------------------
  // Demand-point instances own trees, numbered across demand points in
  // target order; every other instance belongs to the tree of its first
  // consumer (consumers have larger ids, so one descending sweep settles
  // everything).
  std::vector<std::uint32_t>& treeBase = scratch.treeBase;
  treeBase.assign(demandNodes_.size(), 0);
  {
    std::uint32_t base = 0;
    for (std::size_t r = 0; r < demandNodes_.size(); ++r) {
      treeBase[r] = base;
      base += static_cast<std::uint32_t>(execs_[demandNodes_[r]]);
    }
  }
  constexpr auto kConsumed = static_cast<std::uint8_t>(DropletFate::kConsumed);
  for (auto id = static_cast<TaskId>(count); id-- > 0;) {
    const NodeId v = node_[id];
    if (rootIndex[v] != kNoRoot) {
      tree_[id] = treeBase[rootIndex[v]] + (id - firstTask_[v]) + 1;
    } else if (outFate_[2 * std::size_t{id}] == kConsumed) {
      tree_[id] = tree_[outConsumer_[2 * std::size_t{id}]];
    } else if (outFate_[2 * std::size_t{id} + 1] == kConsumed) {
      tree_[id] = tree_[outConsumer_[2 * std::size_t{id} + 1]];
    } else {
      tree_[id] = 0;  // no tree: validateOrThrow rejects it
    }
  }

  validateOrThrow();
}

Task TaskForest::task(TaskId id) const {
  Task t;
  t.node = node_[id];
  t.instance = id - firstTask_[t.node];
  t.level = levels_[id];
  t.tree = tree_[id];
  t.depLeft = depLeft_[id];
  t.depRight = depRight_[id];
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t drop = 2 * std::size_t{id} + s;
    t.out[s] = OutputDroplet{static_cast<DropletFate>(outFate_[drop]),
                             outConsumer_[drop]};
  }
  t.operandClass = operandClass_[id];
  return t;
}

std::uint64_t TaskForest::demand() const { return stats_.targets; }

unsigned TaskForest::depth() const { return graph_->depth(); }

std::string TaskForest::taskLabel(TaskId id) const {
  std::string label = "m";
  label += std::to_string(tree_[id]);
  label += '.';
  label += std::to_string(node_[id]);
  return label;
}

std::string TaskForest::toDot() const {
  const auto fateOf = [this](TaskId id, std::size_t s) {
    return static_cast<DropletFate>(outFate_[2 * std::size_t{id} + s]);
  };
  const auto count = static_cast<TaskId>(taskCount());
  std::string out = "digraph forest {\n  rankdir=BT;\n";
  // Cluster tasks by component tree, as in the paper's figures.
  for (std::uint64_t tree = 1; tree <= stats_.componentTrees; ++tree) {
    out += "  subgraph cluster_T" + std::to_string(tree) + " {\n    label=\"T" +
           std::to_string(tree) + "\";\n";
    for (TaskId id = 0; id < count; ++id) {
      if (tree_[id] != tree) continue;
      const bool emitsTarget = fateOf(id, 0) == DropletFate::kTarget ||
                               fateOf(id, 1) == DropletFate::kTarget;
      const bool wastes = fateOf(id, 0) == DropletFate::kWaste ||
                          fateOf(id, 1) == DropletFate::kWaste;
      out += "    t" + std::to_string(id) + " [label=\"" + taskLabel(id) +
             "\\nL" + std::to_string(levels_[id]) + "\"" +
             (emitsTarget ? ", shape=doublecircle" : "") +
             (wastes ? ", color=red" : "") + "];\n";
    }
    out += "  }\n";
  }
  for (TaskId id = 0; id < count; ++id) {
    for (std::size_t s = 0; s < 2; ++s) {
      if (fateOf(id, s) != DropletFate::kConsumed) continue;
      const TaskId consumer = outConsumer_[2 * std::size_t{id} + s];
      const bool crossTree = tree_[consumer] != tree_[id];
      out += "  t" + std::to_string(id) + " -> t" + std::to_string(consumer) +
             " [color=" + (crossTree ? "brown" : "darkgreen") + "];\n";
    }
  }
  out += "}\n";
  return out;
}

void TaskForest::validateOrThrow() const {
  const std::size_t count = taskCount();
  std::uint64_t targets = 0;
  std::uint64_t waste = 0;
  for (TaskId id = 0; id < count; ++id) {
    const auto& n = graph_->node(node_[id]);
    if (n.isLeaf()) {
      throw std::logic_error("TaskForest: task on a leaf node");
    }
    const bool leftLeaf = graph_->node(n.left).isLeaf();
    const bool rightLeaf = graph_->node(n.right).isLeaf();
    if (leftLeaf != (depLeft_[id] == kNoTask) ||
        rightLeaf != (depRight_[id] == kNoTask)) {
      throw std::logic_error("TaskForest: operand wiring disagrees with graph");
    }
    for (TaskId dep : {depLeft_[id], depRight_[id]}) {
      if (dep == kNoTask) continue;
      if (dep >= count || levels_[dep] >= levels_[id]) {
        throw std::logic_error("TaskForest: bad dependency");
      }
      bool found = false;
      for (std::size_t s = 0; s < 2; ++s) {
        const std::size_t drop = 2 * std::size_t{dep} + s;
        found = found ||
                (outFate_[drop] ==
                     static_cast<std::uint8_t>(DropletFate::kConsumed) &&
                 outConsumer_[drop] == id);
      }
      if (!found) {
        throw std::logic_error("TaskForest: consumer back-pointer missing");
      }
    }
    for (std::size_t s = 0; s < 2; ++s) {
      const auto fate =
          static_cast<DropletFate>(outFate_[2 * std::size_t{id} + s]);
      targets += fate == DropletFate::kTarget ? 1 : 0;
      waste += fate == DropletFate::kWaste ? 1 : 0;
    }
    if (tree_[id] == 0 || tree_[id] > stats_.componentTrees) {
      throw std::logic_error("TaskForest: task without a component tree");
    }
  }
  if (targets != stats_.targets || waste != stats_.waste) {
    throw std::logic_error("TaskForest: droplet accounting broken");
  }
  // Droplet conservation: every input droplet becomes a target or a waste
  // droplet ((1:1) mix-split preserves droplet count).
  if (stats_.inputTotal != stats_.targets + stats_.waste) {
    throw std::logic_error("TaskForest: droplet conservation violated");
  }
}

}  // namespace dmf::forest
