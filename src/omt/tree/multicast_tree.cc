#include "omt/tree/multicast_tree.h"

namespace omt {

namespace {

/// The node count as an array size, checked before any array is sized.
std::size_t checkedNodeCount(NodeId nodeCount) {
  OMT_CHECK(nodeCount >= 1, "tree needs at least one node");
  return static_cast<std::size_t>(nodeCount);
}

}  // namespace

MulticastTree::MulticastTree(NodeId nodeCount, NodeId root)
    : root_(root),
      parent_(checkedNodeCount(nodeCount), kNoNode),
      kind_(static_cast<std::size_t>(nodeCount), EdgeKind::kLocal),
      outDegree_(static_cast<std::size_t>(nodeCount), 0) {
  OMT_CHECK(root >= 0 && root < nodeCount, "root out of range");
}

void MulticastTree::attach(NodeId child, NodeId parent, EdgeKind kind) {
  checkNode(child);
  checkNode(parent);
  OMT_CHECK(child != root_, "cannot attach the root");
  OMT_CHECK(child != parent, "self-loop");
  OMT_CHECK(parent_[static_cast<std::size_t>(child)] == kNoNode,
            "node attached twice");
  parent_[static_cast<std::size_t>(child)] = parent;
  kind_[static_cast<std::size_t>(child)] = kind;
  ++outDegree_[static_cast<std::size_t>(parent)];
  // Write only on an actual transition: the parallel grid build attaches
  // disjoint children/parents concurrently into a never-finalized tree, and
  // an unconditional store here would be its only shared write.
  if (finalized_) finalized_ = false;
}

EdgeKind MulticastTree::edgeKindOf(NodeId node) const {
  checkNode(node);
  OMT_CHECK(node != root_, "the root has no incoming edge");
  OMT_CHECK(parent_[static_cast<std::size_t>(node)] != kNoNode,
            "node not attached");
  return kind_[static_cast<std::size_t>(node)];
}

void MulticastTree::finalize() {
  // attach() keeps outDegree_ equal to the child count, so the CSR offsets
  // are its prefix sum. childOffset_[v] first holds the END of v's children;
  // the scatter walks v downwards and pre-decrements, which lists each
  // node's children in increasing id and leaves childOffset_[v] at their
  // start, with no cursor copy. The resize writes nothing: the prefix pass
  // writes all n + 1 offsets.
  const std::size_t n = parent_.size();
  childOffset_.resize(n + 1);
  std::int64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    OMT_CHECK(parent_[v] != kNoNode || static_cast<NodeId>(v) == root_,
              "finalize() with unattached nodes");
    total += outDegree_[v];
    childOffset_[v] = total;
  }
  childOffset_[n] = total;

  // Two-stage prefetch: the offset entry of the parent kAhead nodes ahead,
  // then the child slot of the parent kAhead / 2 ahead (an estimate; a
  // sibling in between moves it by a slot or two). The resize writes
  // nothing: with every node attached the offsets sum to n - 1, so the
  // scatter below fills every slot.
  constexpr std::size_t kAhead = 16;
  childList_.resize(n - 1);
  for (std::size_t v = n; v-- > 0;) {
    if (v >= kAhead) {
      const NodeId far = parent_[v - kAhead];
      const NodeId near = parent_[v - kAhead / 2];
      if (far != kNoNode)
        __builtin_prefetch(&childOffset_[static_cast<std::size_t>(far)], 1);
      if (near != kNoNode) {
        __builtin_prefetch(
            childList_.data() + childOffset_[static_cast<std::size_t>(near)],
            1);
      }
    }
    if (static_cast<NodeId>(v) == root_) continue;
    childList_[static_cast<std::size_t>(
        --childOffset_[static_cast<std::size_t>(parent_[v])])] =
        static_cast<NodeId>(v);
  }

  // BFS from the root; if the parent links contain a cycle, some nodes are
  // unreachable and bfsOrder_ ends up shorter than n — validation reports
  // that as a broken tree rather than this method looping forever. The
  // queue is bfsOrder_ itself, so nodes kAhead slots on are already known
  // while their offsets and child ranges are still cold.
  bfsOrder_.clear();
  bfsOrder_.reserve(n);
  bfsOrder_.push_back(root_);
  for (std::size_t head = 0; head < bfsOrder_.size(); ++head) {
    if (head + kAhead < bfsOrder_.size()) {
      __builtin_prefetch(
          &childOffset_[static_cast<std::size_t>(bfsOrder_[head + kAhead])]);
    }
    if (head + kAhead / 2 < bfsOrder_.size()) {
      __builtin_prefetch(
          childList_.data() +
          childOffset_[static_cast<std::size_t>(bfsOrder_[head + kAhead / 2])]);
    }
    const NodeId v = bfsOrder_[head];
    const auto begin = childOffset_[static_cast<std::size_t>(v)];
    const auto end = childOffset_[static_cast<std::size_t>(v) + 1];
    for (std::int64_t i = begin; i < end; ++i)
      bfsOrder_.push_back(childList_[static_cast<std::size_t>(i)]);
  }
  finalized_ = true;
}

std::span<const NodeId> MulticastTree::childrenOf(NodeId node) const {
  OMT_CHECK(finalized_, "childrenOf() before finalize()");
  checkNode(node);
  const auto begin = childOffset_[static_cast<std::size_t>(node)];
  const auto end = childOffset_[static_cast<std::size_t>(node) + 1];
  return {childList_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::span<const NodeId> MulticastTree::bfsOrder() const {
  OMT_CHECK(finalized_, "bfsOrder() before finalize()");
  return bfsOrder_;
}

}  // namespace omt
