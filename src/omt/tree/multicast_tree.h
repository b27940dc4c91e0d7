// The overlay multicast tree: a rooted spanning tree over the host set in
// which every edge is a unicast overlay link from a parent (forwarder) to a
// child (receiver). Out-degree of a node is the number of children it
// forwards to — the quantity the paper's degree constraint caps.
//
// The structure distinguishes *core* edges (between cell representatives,
// built by the grid stage of Algorithm Polar_Grid) from *local* edges
// (within a cell, built by the Bisection stage); Table I's "Core" column is
// the longest all-core root path.
//
// Designed for multi-million-node trees: parent/kind arrays during
// construction, a CSR child adjacency built once by finalize(). Every array
// is a DefaultInitVector, so at scale each sits on its own huge-page
// mapping, given back to the kernel with the tree.
#pragma once

#include <cstdint>
#include <span>

#include "omt/common/default_init.h"
#include "omt/common/error.h"
#include "omt/common/types.h"

namespace omt {

enum class EdgeKind : std::uint8_t {
  kCore,   ///< between cell representatives (the grid's binary core network)
  kLocal,  ///< within a cell (bisection) or any non-core attachment
};

class MulticastTree {
 public:
  /// An unconnected forest skeleton over `nodeCount` nodes rooted at `root`;
  /// call attach() for every non-root node, then finalize().
  MulticastTree(NodeId nodeCount, NodeId root);

  NodeId size() const { return static_cast<NodeId>(parent_.size()); }
  NodeId root() const { return root_; }

  /// Attach `child` under `parent`. Each node may be attached once, the
  /// root never. Increments the parent's out-degree.
  void attach(NodeId child, NodeId parent, EdgeKind kind);

  /// Prefetch hint for the slots attach() touches when `node` is attached
  /// or gains a child: its parent link, edge kind and out-degree. It reads
  /// no value and changes no state, so it may run while other threads
  /// attach other nodes (the parallel grid build issues it for the members
  /// of cells it will wire next).
  void prefetch(NodeId node) const {
    checkNode(node);
    const auto i = static_cast<std::size_t>(node);
    __builtin_prefetch(parent_.data() + i, 1);
    __builtin_prefetch(kind_.data() + i, 1);
    __builtin_prefetch(outDegree_.data() + i, 1);
  }

  /// Whether the node has been attached (the root counts as attached).
  bool attached(NodeId node) const {
    return node == root_ || parentOf(node) != kNoNode;
  }

  NodeId parentOf(NodeId node) const {
    checkNode(node);
    return parent_[static_cast<std::size_t>(node)];
  }

  /// Kind of the edge (parentOf(node) -> node); node must be attached and
  /// not the root.
  EdgeKind edgeKindOf(NodeId node) const;

  /// Current number of children of `node`.
  std::int32_t outDegree(NodeId node) const {
    checkNode(node);
    return outDegree_[static_cast<std::size_t>(node)];
  }

  /// Build the CSR child adjacency; requires every node attached. Safe to
  /// call again after further attaches (rebuilds).
  void finalize();

  bool finalized() const { return finalized_; }

  /// Children of `node`; requires finalize().
  std::span<const NodeId> childrenOf(NodeId node) const;

  /// Nodes in breadth-first order from the root; requires finalize().
  /// Guaranteed to list parents before children.
  std::span<const NodeId> bfsOrder() const;

 private:
  void checkNode(NodeId node) const {
    OMT_ASSERT(node >= 0 && node < size(), "node id out of range");
  }

  NodeId root_;
  DefaultInitVector<NodeId> parent_;
  DefaultInitVector<EdgeKind> kind_;
  DefaultInitVector<std::int32_t> outDegree_;

  bool finalized_ = false;
  // finalize() writes every slot of the CSR before reading any.
  DefaultInitVector<std::int64_t> childOffset_;  // size + 1 entries
  DefaultInitVector<NodeId> childList_;
  DefaultInitVector<NodeId> bfsOrder_;
};

}  // namespace omt
