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

OperandClass classify(const MixingGraph& graph, NodeId node) {
  const auto& n = graph.node(node);
  const bool leftLeaf = graph.node(n.left).isLeaf();
  const bool rightLeaf = graph.node(n.right).isLeaf();
  if (leftLeaf && rightLeaf) return OperandClass::kTypeC;
  if (leftLeaf || rightLeaf) return OperandClass::kTypeB;
  return OperandClass::kTypeA;
}

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
    std::vector<TaskId> taskBase;
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
  std::vector<TaskId>& taskBase = scratch.taskBase;
  taskBase.assign(nodeCount, kNoTask);
  tasks_.clear();
  tasks_.reserve(static_cast<std::size_t>(totalTasks));
  for (auto it = topDown.rbegin(); it != topDown.rend(); ++it) {
    const NodeId v = *it;
    if (graph.node(v).isLeaf() || execs_[v] == 0) continue;
    taskBase[v] = static_cast<TaskId>(tasks_.size());
    for (std::uint64_t k = 0; k < execs_[v]; ++k) {
      Task t;
      t.node = v;
      t.instance = static_cast<std::uint32_t>(k);
      t.level = graph.node(v).level;
      t.operandClass = classify(graph, v);
      tasks_.push_back(t);
    }
  }

  // ---- droplet allocation & dependency wiring ----------------------------
  // Droplets of node v are indexed 0 .. 2*execs(v)-1 in production order;
  // droplet j comes from instance j/2. A root's first demand[r] droplets are
  // targets; remaining droplets go to consumer positions in graph order,
  // each position taking one droplet per instance in instance order.
  for (NodeId v = 0; v < nodeCount; ++v) {
    if (graph.node(v).isLeaf() || execs_[v] == 0) continue;
    std::uint64_t next = 0;
    auto produce = [&](DropletFate fate, TaskId consumer) {
      Task& producer = tasks_[taskBase[v] + static_cast<TaskId>(next / 2)];
      producer.out[next % 2] = OutputDroplet{fate, consumer};
      ++next;
    };
    if (rootIndex[v] != kNoRoot) {
      for (std::uint64_t i = 0; i < demands_[rootIndex[v]]; ++i) {
        produce(DropletFate::kTarget, kNoTask);
      }
    }
    for (NodeId p : graph.consumers()[v]) {
      // `p` appears once per operand slot that references v.
      const bool leftSlot = graph.node(p).left == v;
      for (std::uint64_t k = 0; k < execs_[p]; ++k) {
        const TaskId consumer = taskBase[p] + static_cast<TaskId>(k);
        const TaskId producer =
            taskBase[v] + static_cast<TaskId>(next / 2);
        if (leftSlot) {
          tasks_[consumer].depLeft = producer;
        } else {
          tasks_[consumer].depRight = producer;
        }
        produce(DropletFate::kConsumed, consumer);
      }
    }
    while (next < 2 * execs_[v]) {
      produce(DropletFate::kWaste, kNoTask);
    }
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
  for (TaskId id = static_cast<TaskId>(tasks_.size()); id-- > 0;) {
    Task& t = tasks_[id];
    if (rootIndex[t.node] != kNoRoot) {
      t.tree = treeBase[rootIndex[t.node]] + t.instance + 1;
      continue;
    }
    for (const OutputDroplet& drop : t.out) {
      if (drop.fate == DropletFate::kConsumed) {
        t.tree = tasks_[drop.consumer].tree;
        break;
      }
    }
  }

  buildSoaViews();
  validateOrThrow();
}

void TaskForest::buildSoaViews() {
  const std::size_t n = tasks_.size();
  levels_.resize(n);
  depLeft_.resize(n);
  depRight_.resize(n);
  outConsumer_.resize(2 * n);
  outFate_.resize(2 * n);
  initialPending_.resize(n);
  consumedOuts_.resize(n);
  initialReady_.clear();
  for (std::size_t id = 0; id < n; ++id) {
    const Task& t = tasks_[id];
    levels_[id] = t.level;
    depLeft_[id] = t.depLeft;
    depRight_[id] = t.depRight;
    initialPending_[id] = static_cast<std::uint8_t>(
        (t.depLeft != kNoTask ? 1 : 0) + (t.depRight != kNoTask ? 1 : 0));
    if (initialPending_[id] == 0) {
      initialReady_.push_back(static_cast<TaskId>(id));
    }
    std::uint8_t consumed = 0;
    for (std::size_t s = 0; s < 2; ++s) {
      outConsumer_[2 * id + s] = t.out[s].consumer;
      outFate_[2 * id + s] = static_cast<std::uint8_t>(t.out[s].fate);
      consumed = static_cast<std::uint8_t>(
          consumed + (t.out[s].fate == DropletFate::kConsumed ? 1 : 0));
    }
    consumedOuts_[id] = consumed;
  }
}

std::uint64_t TaskForest::demand() const { return stats_.targets; }

unsigned TaskForest::depth() const { return graph_->depth(); }

std::string TaskForest::taskLabel(TaskId id) const {
  const Task& t = tasks_[id];
  std::string label = "m";
  label += std::to_string(t.tree);
  label += '.';
  label += std::to_string(t.node);
  return label;
}

std::string TaskForest::toDot() const {
  std::string out = "digraph forest {\n  rankdir=BT;\n";
  // Cluster tasks by component tree, as in the paper's figures.
  for (std::uint64_t tree = 1; tree <= stats_.componentTrees; ++tree) {
    out += "  subgraph cluster_T" + std::to_string(tree) + " {\n    label=\"T" +
           std::to_string(tree) + "\";\n";
    for (TaskId id = 0; id < tasks_.size(); ++id) {
      if (tasks_[id].tree != tree) continue;
      const bool emitsTarget =
          tasks_[id].out[0].fate == DropletFate::kTarget ||
          tasks_[id].out[1].fate == DropletFate::kTarget;
      const bool wastes = tasks_[id].out[0].fate == DropletFate::kWaste ||
                          tasks_[id].out[1].fate == DropletFate::kWaste;
      out += "    t" + std::to_string(id) + " [label=\"" + taskLabel(id) +
             "\\nL" + std::to_string(tasks_[id].level) + "\"" +
             (emitsTarget ? ", shape=doublecircle" : "") +
             (wastes ? ", color=red" : "") + "];\n";
    }
    out += "  }\n";
  }
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    for (const OutputDroplet& drop : tasks_[id].out) {
      if (drop.fate != DropletFate::kConsumed) continue;
      const bool crossTree = tasks_[drop.consumer].tree != tasks_[id].tree;
      out += "  t" + std::to_string(id) + " -> t" +
             std::to_string(drop.consumer) + " [color=" +
             (crossTree ? "brown" : "darkgreen") + "];\n";
    }
  }
  out += "}\n";
  return out;
}

void TaskForest::validateOrThrow() const {
  std::uint64_t targets = 0;
  std::uint64_t waste = 0;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    const auto& n = graph_->node(t.node);
    if (n.isLeaf()) {
      throw std::logic_error("TaskForest: task on a leaf node");
    }
    const bool leftLeaf = graph_->node(n.left).isLeaf();
    const bool rightLeaf = graph_->node(n.right).isLeaf();
    if (leftLeaf != (t.depLeft == kNoTask) ||
        rightLeaf != (t.depRight == kNoTask)) {
      throw std::logic_error("TaskForest: operand wiring disagrees with graph");
    }
    for (TaskId dep : {t.depLeft, t.depRight}) {
      if (dep == kNoTask) continue;
      if (dep >= tasks_.size() || tasks_[dep].level >= t.level) {
        throw std::logic_error("TaskForest: bad dependency");
      }
      bool found = false;
      for (const OutputDroplet& drop : tasks_[dep].out) {
        found = found ||
                (drop.fate == DropletFate::kConsumed && drop.consumer == id);
      }
      if (!found) {
        throw std::logic_error("TaskForest: consumer back-pointer missing");
      }
    }
    for (const OutputDroplet& drop : t.out) {
      targets += drop.fate == DropletFate::kTarget ? 1 : 0;
      waste += drop.fate == DropletFate::kWaste ? 1 : 0;
    }
    if (t.tree == 0 || t.tree > stats_.componentTrees) {
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
