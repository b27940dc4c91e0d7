#include "omt/tree/multicast_tree.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace omt {
namespace {

TEST(MulticastTreeTest, SingleNodeTree) {
  MulticastTree tree(1, 0);
  tree.finalize();
  EXPECT_EQ(tree.size(), 1);
  EXPECT_EQ(tree.root(), 0);
  EXPECT_TRUE(tree.childrenOf(0).empty());
  const auto order = tree.bfsOrder();
  EXPECT_EQ(std::vector<NodeId>(order.begin(), order.end()),
            std::vector<NodeId>{0});
}

TEST(MulticastTreeTest, AttachBuildsParentChildStructure) {
  MulticastTree tree(4, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  tree.attach(2, 0, EdgeKind::kLocal);
  tree.attach(3, 1, EdgeKind::kLocal);
  tree.finalize();

  EXPECT_EQ(tree.parentOf(1), 0);
  EXPECT_EQ(tree.parentOf(2), 0);
  EXPECT_EQ(tree.parentOf(3), 1);
  EXPECT_EQ(tree.parentOf(0), kNoNode);
  EXPECT_EQ(tree.outDegree(0), 2);
  EXPECT_EQ(tree.outDegree(1), 1);
  EXPECT_EQ(tree.outDegree(3), 0);
  EXPECT_EQ(tree.edgeKindOf(1), EdgeKind::kCore);
  EXPECT_EQ(tree.edgeKindOf(2), EdgeKind::kLocal);

  const auto children0 = tree.childrenOf(0);
  EXPECT_EQ(std::vector<NodeId>(children0.begin(), children0.end()),
            (std::vector<NodeId>{1, 2}));
}

TEST(MulticastTreeTest, BfsOrderListsParentsBeforeChildren) {
  MulticastTree tree(6, 2);
  tree.attach(0, 2, EdgeKind::kLocal);
  tree.attach(1, 0, EdgeKind::kLocal);
  tree.attach(3, 1, EdgeKind::kLocal);
  tree.attach(4, 2, EdgeKind::kLocal);
  tree.attach(5, 4, EdgeKind::kLocal);
  tree.finalize();

  const auto& order = tree.bfsOrder();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.front(), 2);
  std::vector<int> position(6, -1);
  for (std::size_t i = 0; i < order.size(); ++i)
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (NodeId v = 0; v < 6; ++v) {
    if (v == tree.root()) continue;
    EXPECT_LT(position[static_cast<std::size_t>(tree.parentOf(v))],
              position[static_cast<std::size_t>(v)]);
  }
}

TEST(MulticastTreeTest, AttachErrors) {
  MulticastTree tree(3, 0);
  EXPECT_THROW(tree.attach(0, 1, EdgeKind::kLocal), InvalidArgument);  // root
  EXPECT_THROW(tree.attach(1, 1, EdgeKind::kLocal), InvalidArgument);  // self
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_THROW(tree.attach(1, 0, EdgeKind::kLocal), InvalidArgument);  // twice
}

TEST(MulticastTreeTest, FinalizeRequiresAllAttached) {
  MulticastTree tree(3, 0);
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_THROW(tree.finalize(), InvalidArgument);
}

TEST(MulticastTreeTest, AccessorsRequireFinalize) {
  MulticastTree tree(2, 0);
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_FALSE(tree.finalized());
  EXPECT_THROW(tree.childrenOf(0), InvalidArgument);
  EXPECT_THROW(tree.bfsOrder(), InvalidArgument);
  tree.finalize();
  EXPECT_TRUE(tree.finalized());
  EXPECT_NO_THROW(tree.childrenOf(0));
}

TEST(MulticastTreeTest, EdgeKindOfRejectsRootAndUnattached) {
  MulticastTree tree(3, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  EXPECT_THROW(tree.edgeKindOf(0), InvalidArgument);
  EXPECT_THROW(tree.edgeKindOf(2), InvalidArgument);
}

TEST(MulticastTreeTest, AttachedPredicate) {
  MulticastTree tree(3, 0);
  EXPECT_TRUE(tree.attached(0));
  EXPECT_FALSE(tree.attached(1));
  tree.attach(1, 0, EdgeKind::kLocal);
  EXPECT_TRUE(tree.attached(1));
}

TEST(MulticastTreeTest, ConstructionErrors) {
  EXPECT_THROW(MulticastTree(0, 0), InvalidArgument);
  EXPECT_THROW(MulticastTree(3, 3), InvalidArgument);
  EXPECT_THROW(MulticastTree(3, -1), InvalidArgument);
}

TEST(MulticastTreeTest, NegativeNodeCountRejectedBeforeSizing) {
  // A negative count cast to an array size would ask for ~2^64 elements;
  // the typed error must come first.
  EXPECT_THROW(MulticastTree(-1, 0), InvalidArgument);
  EXPECT_THROW(MulticastTree(std::numeric_limits<NodeId>::min(), 0),
               InvalidArgument);
}

TEST(MulticastTreeTest, CycleAmongParentsYieldsShortBfs) {
  // 1 and 2 point at each other; finalize() must not hang and BFS misses
  // them (validation reports this as a cycle).
  MulticastTree tree(3, 0);
  tree.attach(1, 2, EdgeKind::kLocal);
  tree.attach(2, 1, EdgeKind::kLocal);
  tree.finalize();
  EXPECT_EQ(tree.bfsOrder().size(), 1u);
}

TEST(MulticastTreeTest, LargeFanOut) {
  const NodeId n = 1000;
  MulticastTree tree(n, 0);
  for (NodeId v = 1; v < n; ++v) tree.attach(v, 0, EdgeKind::kLocal);
  tree.finalize();
  EXPECT_EQ(tree.outDegree(0), n - 1);
  EXPECT_EQ(tree.childrenOf(0).size(), static_cast<std::size_t>(n - 1));
  EXPECT_EQ(tree.bfsOrder().size(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace omt
