#include "mixgraph/graph.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace dmf::mixgraph {

MixingGraph::MixingGraph(Ratio ratio) {
  targets_.push_back(std::move(ratio));
}

MixingGraph::MixingGraph(std::vector<Ratio> targets)
    : targets_(std::move(targets)) {
  if (targets_.empty()) {
    throw std::invalid_argument("MixingGraph: no target ratios");
  }
  for (std::size_t i = 1; i < targets_.size(); ++i) {
    if (targets_[i].fluidCount() != targets_.front().fluidCount()) {
      throw std::invalid_argument(
          "MixingGraph: targets must share one fluid space");
    }
    if (targets_[i].accuracy() != targets_.front().accuracy()) {
      throw std::invalid_argument(
          "MixingGraph: targets must share one accuracy level");
    }
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    for (std::size_t j = i + 1; j < targets_.size(); ++j) {
      if (MixtureValue::target(targets_[i]) ==
          MixtureValue::target(targets_[j])) {
        throw std::invalid_argument(
            "MixingGraph: duplicate target composition " +
            targets_[i].toString());
      }
    }
  }
}

NodeId MixingGraph::addLeaf(std::size_t fluid) {
  if (finalized_) {
    throw std::logic_error("MixingGraph: cannot add nodes after finalize()");
  }
  nodes_.push_back(Node{
      MixtureValue::pure(fluid, targets_.front().fluidCount()), kNoNode,
      kNoNode, 0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId MixingGraph::addMix(NodeId left, NodeId right) {
  if (finalized_) {
    throw std::logic_error("MixingGraph: cannot add nodes after finalize()");
  }
  if (left >= nodes_.size() || right >= nodes_.size()) {
    throw std::invalid_argument("MixingGraph::addMix: bad child id");
  }
  nodes_.push_back(Node{
      MixtureValue::mix(nodes_[left].value, nodes_[right].value), left, right,
      0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId MixingGraph::finalize(NodeId root) {
  if (targets_.size() != 1) {
    throw std::invalid_argument(
        "MixingGraph::finalize: multi-target graph needs one root per target");
  }
  return finalize(std::vector<NodeId>{root}).front();
}

std::vector<NodeId> MixingGraph::finalize(std::vector<NodeId> roots) {
  if (finalized_) {
    throw std::logic_error("MixingGraph: finalize() called twice");
  }
  if (roots.size() != targets_.size()) {
    throw std::invalid_argument(
        "MixingGraph::finalize: need exactly one root per target");
  }
  for (NodeId root : roots) {
    if (root >= nodes_.size()) {
      throw std::invalid_argument("MixingGraph::finalize: bad root id");
    }
  }

  // Prune nodes unreachable from every root (builders that rewire, e.g.
  // MTCS sharing, can leave orphans behind).
  std::vector<bool> reachable(nodes_.size(), false);
  std::deque<NodeId> work;
  for (NodeId root : roots) {
    if (!reachable[root]) {
      reachable[root] = true;
      work.push_back(root);
    }
  }
  while (!work.empty()) {
    const Node& n = nodes_[work.front()];
    work.pop_front();
    if (!n.isLeaf()) {
      for (NodeId c : {n.left, n.right}) {
        if (!reachable[c]) {
          reachable[c] = true;
          work.push_back(c);
        }
      }
    }
  }
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  std::vector<Node> kept;
  kept.reserve(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (reachable[id]) {
      remap[id] = static_cast<NodeId>(kept.size());
      kept.push_back(std::move(nodes_[id]));
    }
  }
  for (Node& n : kept) {
    if (!n.isLeaf()) {
      n.left = remap[n.left];
      n.right = remap[n.right];
    }
  }
  nodes_ = std::move(kept);
  roots_.clear();
  for (NodeId root : roots) {
    roots_.push_back(remap[root]);
  }
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    for (std::size_t j = i + 1; j < roots_.size(); ++j) {
      if (roots_[i] == roots_[j]) {
        throw std::invalid_argument("MixingGraph::finalize: duplicate roots");
      }
    }
  }

  // Levels: roots start at accuracy d (all targets share it); level(v) =
  // min over consumers(level) - 1, i.e. d minus the longest path to any
  // root. A root that is another target's intermediate ends up below d.
  const unsigned d = targets_.front().accuracy();
  std::vector<unsigned> level(nodes_.size(), d);
  // Process ids in reverse creation order: builders create children before
  // parents, so consumers of v always have ids greater than v.
  for (NodeId id = static_cast<NodeId>(nodes_.size()); id-- > 0;) {
    const Node& n = nodes_[id];
    if (n.isLeaf()) continue;
    for (NodeId c : {n.left, n.right}) {
      if (c >= id) {
        throw std::logic_error(
            "MixingGraph: children must be created before parents");
      }
      if (level[id] == 0) {
        throw std::logic_error("MixingGraph: path to root longer than depth");
      }
      level[c] = std::min(level[c], level[id] - 1);
    }
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    nodes_[id].level = level[id];
  }

  consumers_.assign(nodes_.size(), {});
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (!n.isLeaf()) {
      consumers_[n.left].push_back(id);
      consumers_[n.right].push_back(id);
    }
  }

  levelOrder_.resize(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) levelOrder_[id] = id;
  std::stable_sort(levelOrder_.begin(), levelOrder_.end(),
                   [this](NodeId a, NodeId b) {
                     return nodes_[a].level > nodes_[b].level;
                   });

  finalized_ = true;
  validateOrThrow();
  return roots_;
}

NodeId MixingGraph::root() const {
  requireFinalized("root");
  return roots_.front();
}

const std::vector<NodeId>& MixingGraph::roots() const {
  requireFinalized("roots");
  return roots_;
}

const Node& MixingGraph::node(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::invalid_argument("MixingGraph::node: bad id");
  }
  return nodes_[id];
}

std::size_t MixingGraph::leafCount() const {
  requireFinalized("leafCount");
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const Node& n) { return n.isLeaf(); }));
}

std::size_t MixingGraph::internalCount() const {
  requireFinalized("internalCount");
  return nodes_.size() - leafCount();
}

unsigned MixingGraph::depth() const {
  requireFinalized("depth");
  return targets_.front().accuracy();
}

bool MixingGraph::isTree() const {
  requireFinalized("isTree");
  return std::all_of(consumers_.begin(), consumers_.end(),
                     [](const std::vector<NodeId>& c) { return c.size() <= 1; });
}

const std::vector<NodeId>& MixingGraph::nodesByLevelDesc() const {
  requireFinalized("nodesByLevelDesc");
  return levelOrder_;
}

const std::vector<std::vector<NodeId>>& MixingGraph::consumers() const {
  requireFinalized("consumers");
  return consumers_;
}

std::string MixingGraph::toDot() const {
  requireFinalized("toDot");
  std::string out = "digraph mixing {\n  rankdir=BT;\n";
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    const bool isRoot =
        std::find(roots_.begin(), roots_.end(), id) != roots_.end();
    out += "  n" + std::to_string(id) + " [label=\"" + n.value.toString() +
           "\\nL" + std::to_string(n.level) + "\"" +
           (n.isLeaf() ? ", shape=box" : "") +
           (isRoot ? ", shape=doublecircle" : "") + "];\n";
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (!n.isLeaf()) {
      out += "  n" + std::to_string(n.left) + " -> n" + std::to_string(id) +
             ";\n";
      out += "  n" + std::to_string(n.right) + " -> n" + std::to_string(id) +
             ";\n";
    }
  }
  out += "}\n";
  return out;
}

void MixingGraph::requireFinalized(const char* what) const {
  if (!finalized_) {
    throw std::logic_error(std::string("MixingGraph::") + what +
                           ": graph not finalized");
  }
}

void MixingGraph::validateOrThrow() const {
  if (nodes_.empty()) {
    throw std::logic_error("MixingGraph: empty graph");
  }
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    if (nodes_[roots_[i]].value != MixtureValue::target(targets_[i])) {
      throw std::logic_error("MixingGraph: root composition " +
                             nodes_[roots_[i]].value.toString() +
                             " does not match target " +
                             MixtureValue::target(targets_[i]).toString());
    }
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.isLeaf()) {
      if (!n.value.isPure()) {
        throw std::logic_error("MixingGraph: leaf with mixed composition");
      }
      continue;
    }
    if (n.value !=
        MixtureValue::mix(nodes_[n.left].value, nodes_[n.right].value)) {
      throw std::logic_error("MixingGraph: node composition inconsistent");
    }
    for (NodeId c : {n.left, n.right}) {
      if (nodes_[c].level >= n.level) {
        throw std::logic_error("MixingGraph: level does not decrease on edge");
      }
    }
  }
  // Single-target graphs keep the classic invariant "root sits at level d";
  // in a multi-target graph a root may be another target's intermediate.
  if (targets_.size() == 1 &&
      nodes_[roots_.front()].level != targets_.front().accuracy()) {
    throw std::logic_error("MixingGraph: root level mismatch");
  }
}

}  // namespace dmf::mixgraph
