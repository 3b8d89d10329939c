// The mixing forest: the paper's demand-driven task graph for MDST.
//
// Given a base mixing graph and a droplet demand D, the forest instantiates
// every (1:1) mix-split needed to emit D target droplets while reusing the
// second output droplet of every mix-split ("waste" in single-pass mixing) as
// an operand elsewhere. For D = p * 2^d the forest wastes nothing.
//
// Formulation (equivalent to the paper's component-tree construction, see
// DESIGN.md section 2): need(root) = D; each execution of a node yields two
// droplets, so execs(v) = ceil(need(v) / 2); every consumer edge adds
// execs(consumer) to the operand node's need. Instance k of a node consumes
// droplet #k allocated from its operand's production sequence, and droplet j
// is produced by instance floor(j / 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mixgraph/graph.h"

namespace dmf::forest {

/// Index of a mix-split instance (task) inside a TaskForest.
using TaskId = std::uint32_t;

/// Sentinel: "operand is a dispensed input droplet" / "droplet has no
/// consumer task".
inline constexpr TaskId kNoTask = 0xFFFFFFFFu;

/// What happens to one of the two droplets a mix-split emits.
enum class DropletFate : std::uint8_t {
  kConsumed,  ///< used as an operand of another mix-split
  kTarget,    ///< emitted as a target droplet of the demand
  kWaste,     ///< discarded to a waste reservoir
};

/// One output droplet of a task.
struct OutputDroplet {
  DropletFate fate = DropletFate::kWaste;
  /// Consuming task when fate == kConsumed, kNoTask otherwise.
  TaskId consumer = kNoTask;
};

/// SRS node classification (paper section 4.2.2): where the two operands of a
/// mix-split come from. Stalling a Type-A node parks two droplets in storage,
/// Type-B one, Type-C none (reservoir dispensing needs no storage).
enum class OperandClass : std::uint8_t {
  kTypeA,  ///< both operands produced by other mix-splits
  kTypeB,  ///< exactly one operand is a dispensed input droplet
  kTypeC,  ///< both operands are dispensed input droplets
};

/// One (1:1) mix-split instance.
struct Task {
  /// Base-graph mix node this instance executes.
  mixgraph::NodeId node = mixgraph::kNoNode;
  /// Which execution of that node (0-based).
  std::uint32_t instance = 0;
  /// Paper-figure level of the node (root instances at level d).
  unsigned level = 0;
  /// Component mixing tree id, 1-based (T1, T2, ...).
  std::uint32_t tree = 0;
  /// Producer of the left/right operand droplet; kNoTask when the operand is
  /// dispensed from a reservoir (the base-graph child is a leaf).
  TaskId depLeft = kNoTask;
  TaskId depRight = kNoTask;
  /// The two output droplets, in production order.
  OutputDroplet out[2];
  /// Operand classification for SRS.
  OperandClass operandClass = OperandClass::kTypeC;
};

/// Aggregate forest statistics — the paper's Tms, W, I[], I, |F| metrics.
struct ForestStats {
  std::uint64_t mixSplits = 0;                ///< Tms
  std::uint64_t waste = 0;                    ///< W
  std::uint64_t inputTotal = 0;               ///< I
  std::vector<std::uint64_t> inputPerFluid;   ///< I[] per fluid
  std::uint64_t componentTrees = 0;           ///< |F| = ceil(D/2)
  std::uint64_t targets = 0;                  ///< the demand D
};

/// Demand injected at an arbitrary mix node of the base graph. The classic
/// forest is the special case where every demand sits at a root; error
/// recovery injects demand mid-graph — a lost or corrupted droplet of node v
/// is exactly one extra unit of need(v) (see DESIGN.md §11).
struct NodeDemand {
  mixgraph::NodeId node = mixgraph::kNoNode;
  std::uint64_t count = 0;
};

/// The instantiated mixing forest for one (graph, demand) pair.
///
/// The construction is deterministic: the same graph and demand always yield
/// the same forest, so Tms, W and I are unique given the base algorithm, the
/// ratio, and D (paper section 4.2).
class TaskForest {
 public:
  /// Builds the forest for a single-target graph. `graph` must be finalized
  /// and outlive the forest. Throws std::invalid_argument if demand == 0 or
  /// the graph is not finalized; std::overflow_error if the task count
  /// exceeds TaskId range.
  TaskForest(const mixgraph::MixingGraph& graph, std::uint64_t demand);

  /// Multi-target form: one demand per graph root (aligned with
  /// graph.roots()). Every demand must be positive.
  TaskForest(const mixgraph::MixingGraph& graph,
             std::vector<std::uint64_t> demands);

  /// Repair-forest form: demand injected at arbitrary mix nodes (droplets of
  /// those nodes are emitted as targets). Duplicate nodes merge their counts
  /// at the first occurrence. Throws std::invalid_argument on an empty list,
  /// a zero count, an out-of-range id, or a leaf node (a leaf droplet is a
  /// reservoir dispense, not a mix product).
  TaskForest(const mixgraph::MixingGraph& graph,
             const std::vector<NodeDemand>& needs);

  /// Makes this forest equal to TaskForest(graph, demand), reusing its
  /// storage: building forests back to back into one object allocates only
  /// when a forest outgrows the largest before it. Throws as that
  /// constructor does; after a throw the forest must be rebuilt before use.
  void rebuild(const mixgraph::MixingGraph& graph, std::uint64_t demand);

  [[nodiscard]] const mixgraph::MixingGraph& graph() const { return *graph_; }
  /// Total demand over all targets.
  [[nodiscard]] std::uint64_t demand() const;
  /// Per-demand-point counts (aligned with demandNodes(); size 1 for
  /// single-target forests).
  [[nodiscard]] const std::vector<std::uint64_t>& demands() const {
    return demands_;
  }
  /// The graph nodes that emit target droplets, in demand order. For the
  /// classic constructors this equals graph().roots().
  [[nodiscard]] const std::vector<mixgraph::NodeId>& demandNodes() const {
    return demandNodes_;
  }

  [[nodiscard]] std::size_t taskCount() const { return levels_.size(); }
  /// Task `id` assembled from the per-task arrays below: a handful of loads
  /// per call, for cold callers (oracles, executor, recovery, serialize,
  /// toDot). Hot loops read the arrays directly.
  [[nodiscard]] Task task(TaskId id) const;

  // ---- structure-of-arrays layout ---------------------------------------
  // The forest is stored only as flat parallel arrays, each written once by
  // build(), so the schedulers and storage counters sweep them directly.
  // Indexing: per-task arrays by TaskId; per-droplet arrays by
  // 2 * TaskId + slot.

  /// Paper-figure level per task.
  [[nodiscard]] const std::vector<unsigned>& taskLevels() const {
    return levels_;
  }
  /// Left/right operand producer per task (kNoTask for dispenses).
  [[nodiscard]] const std::vector<TaskId>& depLefts() const {
    return depLeft_;
  }
  [[nodiscard]] const std::vector<TaskId>& depRights() const {
    return depRight_;
  }
  /// Consumer of droplet (2 * id + slot); kNoTask unless consumed.
  [[nodiscard]] const std::vector<TaskId>& outConsumers() const {
    return outConsumer_;
  }
  /// DropletFate of droplet (2 * id + slot), as its underlying byte.
  [[nodiscard]] const std::vector<std::uint8_t>& outFates() const {
    return outFate_;
  }
  /// Number of task-produced operands per task (0..2) — the ready-queue
  /// pending count every list scheduler starts from.
  [[nodiscard]] const std::vector<std::uint8_t>& initialPending() const {
    return initialPending_;
  }
  /// Number of consumed output droplets per task (0..2).
  [[nodiscard]] const std::vector<std::uint8_t>& consumedOutCounts() const {
    return consumedOuts_;
  }
  /// SRS operand class per task.
  [[nodiscard]] const std::vector<OperandClass>& operandClasses() const {
    return operandClass_;
  }

  /// Depth of the forest — component-tree roots sit at this level.
  [[nodiscard]] unsigned depth() const;

  /// Forest statistics (computed once at construction).
  [[nodiscard]] const ForestStats& stats() const { return stats_; }

  /// Number of executions of base-graph node `v` in the forest.
  [[nodiscard]] std::uint64_t executions(mixgraph::NodeId v) const {
    return execs_[v];
  }

  /// Tasks with no task-produced operands (ready at cycle 1), ascending:
  /// the tasks whose initialPending() count is 0.
  [[nodiscard]] const std::vector<TaskId>& initialReady() const {
    return initialReady_;
  }

  /// A display label in the style of the paper's figures: "m<tree>.<node>"
  /// with the component tree first.
  [[nodiscard]] std::string taskLabel(TaskId id) const;

  /// Cheap structural self-check (used by tests): dependency wiring is
  /// acyclic and consistent with the out[] droplet fates. Throws
  /// std::logic_error on violation.
  void validateOrThrow() const;

  /// Graphviz rendering in the style of the paper's Fig. 1/Fig. 2: one node
  /// per mix-split instance, clustered by component tree; green edges for
  /// in-tree droplet flow, brown for waste reuse across trees, red marks for
  /// wasted droplets and double circles for target emissions.
  [[nodiscard]] std::string toDot() const;

 private:
  void build();

  const mixgraph::MixingGraph* graph_;
  std::vector<std::uint64_t> demands_;          // per demand point
  std::vector<mixgraph::NodeId> demandNodes_;   // aligned with demands_
  std::vector<std::uint64_t> execs_;            // per base-graph node
  std::vector<TaskId> firstTask_;               // per base-graph node
  // Per-task and per-droplet arrays (see the accessor block above); a
  // task's instance is its id minus firstTask_ of its node.
  std::vector<mixgraph::NodeId> node_;
  std::vector<std::uint32_t> tree_;
  std::vector<OperandClass> operandClass_;
  std::vector<unsigned> levels_;
  std::vector<TaskId> depLeft_;
  std::vector<TaskId> depRight_;
  std::vector<TaskId> outConsumer_;
  std::vector<std::uint8_t> outFate_;
  std::vector<std::uint8_t> initialPending_;
  std::vector<std::uint8_t> consumedOuts_;
  std::vector<TaskId> initialReady_;
  ForestStats stats_;
};

}  // namespace dmf::forest
