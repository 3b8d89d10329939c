// Mixing graphs: DAGs of (1:1) mix-split operations realizing a target ratio.
//
// A *mixing tree* (MM, RMA, RSM output) is the special case where every node
// has at most two consumers and the underlying shape is a tree; MTCS produces
// a genuine DAG by sharing common sub-mixtures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmf/mixture_value.h"
#include "dmf/ratio.h"

namespace dmf::mixgraph {

/// Index of a node inside a MixingGraph.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (leaf children).
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// One vertex of a mixing graph: either a *leaf* (a droplet of pure input
/// fluid dispensed from a reservoir) or a *mix node* (one (1:1) mix-split of
/// its two children's droplets).
struct Node {
  /// Exact composition of the droplet(s) this node denotes.
  dmf::MixtureValue value;
  /// Children (operands of the mix-split); kNoNode for leaves.
  NodeId left = kNoNode;
  NodeId right = kNoNode;
  /// Drawing/priority level as in the paper's figures: the root sits at level
  /// d (the accuracy level) and each edge drops one level, so
  /// level = d - (longest distance to the root). Computed by finalize().
  unsigned level = 0;

  [[nodiscard]] bool isLeaf() const { return left == kNoNode; }
};

/// A validated mixing graph for one target ratio.
///
/// Build protocol: construct with the target ratio, add nodes via addLeaf /
/// addMix, then call finalize(root). finalize computes levels, prunes
/// unreachable nodes and validates every invariant; all query methods other
/// than the builder API require a finalized graph.
class MixingGraph {
 public:
  /// Starts an empty graph for `ratio`.
  explicit MixingGraph(Ratio ratio);

  /// Starts an empty multi-target graph: one root per target ratio, shared
  /// intermediates (the SDMT/MDMT generalization). All targets must use the
  /// same fluid space and accuracy level and be pairwise distinct; throws
  /// std::invalid_argument otherwise.
  explicit MixingGraph(std::vector<Ratio> targets);

  // ---- builder API -------------------------------------------------------

  /// Adds a leaf droplet of pure fluid `fluid` (0-based). Leaves are
  /// positional: the same fluid may appear as many leaves.
  NodeId addLeaf(std::size_t fluid);

  /// Adds a mix-split of nodes `left` and `right`. The node's composition is
  /// derived exactly. Throws std::invalid_argument on bad ids or when the two
  /// operand compositions are identical (a no-op mix).
  NodeId addMix(NodeId left, NodeId right);

  /// Declares `root` the target node, prunes nodes unreachable from it,
  /// assigns levels, and validates:
  ///  - the root composition equals the ratio's target composition,
  ///  - every mix node's composition is the exact (1:1) mix of its children,
  ///  - levels strictly decrease along every edge and fit within accuracy d.
  /// Throws std::logic_error on violation. Node ids may be remapped by
  /// pruning; the returned id is the root's final id.
  NodeId finalize(NodeId root);

  /// Multi-target finalize: one root per target ratio (in target order). A
  /// root may be an interior node of another target's tree — that is the
  /// sharing the multi-target engine exploits. Returns the roots' final ids.
  /// Throws std::invalid_argument on a count mismatch or duplicate roots.
  std::vector<NodeId> finalize(std::vector<NodeId> roots);

  // ---- queries (finalized graph) ----------------------------------------

  /// The primary (first) target ratio.
  [[nodiscard]] const Ratio& ratio() const { return targets_.front(); }
  /// All target ratios (size 1 for classic single-target graphs).
  [[nodiscard]] const std::vector<Ratio>& targets() const { return targets_; }
  [[nodiscard]] bool finalized() const { return finalized_; }
  /// The primary root. For multi-target graphs prefer roots().
  [[nodiscard]] NodeId root() const;
  /// All roots, aligned with targets().
  [[nodiscard]] const std::vector<NodeId>& roots() const;
  [[nodiscard]] std::size_t nodeCount() const { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const;

  /// Number of leaf nodes (distinct dispense positions).
  [[nodiscard]] std::size_t leafCount() const;
  /// Number of mix nodes — the paper's per-pass mix-split count when the
  /// graph is a tree.
  [[nodiscard]] std::size_t internalCount() const;
  /// Depth of the graph = level of the root = ratio accuracy d.
  [[nodiscard]] unsigned depth() const;

  /// True iff no node has more than one consumer edge (classic mixing tree).
  [[nodiscard]] bool isTree() const;

  /// Node ids ordered by level descending (every parent precedes its
  /// children) — the order demand propagation wants. Computed by finalize().
  [[nodiscard]] const std::vector<NodeId>& nodesByLevelDesc() const;

  /// consumers()[v] lists each mix node that uses v as an operand, once per
  /// operand slot.
  [[nodiscard]] const std::vector<std::vector<NodeId>>& consumers() const;

  /// Graphviz dot rendering (values as labels; leaves boxed).
  [[nodiscard]] std::string toDot() const;

 private:
  void requireFinalized(const char* what) const;
  void validateOrThrow() const;

  std::vector<Ratio> targets_;
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> consumers_;
  std::vector<NodeId> roots_;
  std::vector<NodeId> levelOrder_;
  bool finalized_ = false;
};

}  // namespace dmf::mixgraph
