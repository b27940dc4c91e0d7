// Golden regression tests: exact structural fingerprints of the trees each
// algorithm builds on fixed seeded inputs. These pin the implementations'
// *behaviour*, not just their invariants — an unintended change to tie
// breaking, traversal order, or geometry shows up here even when every
// invariant still holds. If an algorithm is changed deliberately, update
// the constants (and note it in the change description).
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "omt/baselines/baselines.h"
#include "omt/bisection/bisection.h"
#include "omt/bisection/square_bisection.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/samplers.h"

namespace omt {
namespace {

/// FNV-1a over the parent array (parents shifted by one so the root's
/// kNoNode participates).
std::uint64_t treeFingerprint(const MulticastTree& tree) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (NodeId v = 0; v < tree.size(); ++v) {
    const auto x = static_cast<std::uint64_t>(tree.parentOf(v) + 1);
    for (int b = 0; b < 8; ++b) {
      hash ^= (x >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

std::vector<Point> disk200() {
  Rng rng(12345);
  return sampleDiskWithCenterSource(rng, 200, 2);
}

TEST(GoldenTest, PolarGridDegree6) {
  EXPECT_EQ(treeFingerprint(
                buildPolarGridTree(disk200(), 0, {.maxOutDegree = 6}).tree),
            0xbf78c6a4119ea1a0ULL);
}

TEST(GoldenTest, PolarGridDegree2) {
  EXPECT_EQ(treeFingerprint(
                buildPolarGridTree(disk200(), 0, {.maxOutDegree = 2}).tree),
            0x48dea1cd880ca865ULL);
}

TEST(GoldenTest, BisectionDegree4) {
  EXPECT_EQ(treeFingerprint(
                buildBisectionTree(disk200(), 0, {.maxOutDegree = 4}).tree),
            0x619347e88d7d2eecULL);
}

TEST(GoldenTest, SquareBisectionDegree4) {
  EXPECT_EQ(
      treeFingerprint(
          buildSquareBisectionTree(disk200(), 0, {.maxOutDegree = 4}).tree),
      0x82d2dbacedbd8f1fULL);
}

TEST(GoldenTest, GreedyInsertionDegree6) {
  EXPECT_EQ(treeFingerprint(buildGreedyInsertionTree(disk200(), 0, 6)),
            0xe6052145e6ec202dULL);
}

TEST(GoldenTest, LayeredDegree3) {
  EXPECT_EQ(treeFingerprint(buildLayeredTree(disk200(), 0, 3)),
            0x976026ffc4679f00ULL);
}

TEST(GoldenTest, PolarGridThreeDimensionalDegree10) {
  Rng rng(777);
  const auto points = sampleDiskWithCenterSource(rng, 300, 3);
  EXPECT_EQ(treeFingerprint(
                buildPolarGridTree(points, 0, {.maxOutDegree = 10}).tree),
            0xf7c349cfb3d9a13eULL);
}

/// FNV-1a over every node's parent + 1, edge kind (0xff for the root) and
/// out-degree: pins the whole tree, not just its parent links.
std::uint64_t fullFingerprint(const MulticastTree& tree) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (x >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  for (NodeId v = 0; v < tree.size(); ++v) {
    mix(static_cast<std::uint64_t>(tree.parentOf(v) + 1));
    mix(v == tree.root() ? 0xffULL
                         : static_cast<std::uint64_t>(tree.edgeKindOf(v)));
    mix(static_cast<std::uint64_t>(tree.outDegree(v)));
  }
  return hash;
}

enum class Builder { kPolarGrid, kBisection };

struct ScaleCase {
  Builder builder;
  int dim;
  int degree;
  std::int64_t n;
  /// Stack every third point on point 1 and every seventh on point 2, so
  /// the recursion runs out of extent and falls back to the m-ary fan.
  bool coincident;
  std::uint64_t fingerprint;
};

std::vector<Point> scalePoints(const ScaleCase& c) {
  Rng rng(0x601d0000ULL + static_cast<std::uint64_t>(c.dim) * 1000003ULL +
          static_cast<std::uint64_t>(c.n));
  std::vector<Point> points = sampleDiskWithCenterSource(rng, c.n, c.dim);
  if (c.coincident) {
    for (std::size_t i = 3; i < points.size(); ++i) {
      if (i % 7 == 0) {
        points[i] = points[2];
      } else if (i % 3 == 0) {
        points[i] = points[1];
      }
    }
  }
  return points;
}

MulticastTree buildScaleCase(const ScaleCase& c,
                             std::span<const Point> points, int workers) {
  if (c.builder == Builder::kPolarGrid) {
    return buildPolarGridTree(points, 0,
                              {.maxOutDegree = c.degree, .workers = workers})
        .tree;
  }
  return buildBisectionTree(points, 0,
                            {.maxOutDegree = c.degree, .workers = workers})
      .tree;
}

std::string describe(const ScaleCase& c) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s d=%d D=%d n=%lld%s",
                c.builder == Builder::kPolarGrid ? "polar_grid" : "bisection",
                c.dim, c.degree, static_cast<long long>(c.n),
                c.coincident ? " coincident" : "");
  return buf;
}

/// Construction output at a size where cells hold tens of points and the
/// intra-cell bisection recurses several levels deep, at one and three
/// workers, hashed over parents, edge kinds and out-degrees.
TEST(GoldenTest, ConstructionAtScale) {
  constexpr Builder kGrid = Builder::kPolarGrid;
  constexpr Builder kBisect = Builder::kBisection;
  const ScaleCase cases[] = {
      {kGrid, 2, 2, 30000, false, 0x936f328fbce20016ULL},
      {kGrid, 2, 3, 30000, false, 0xf63d65ffed48435aULL},
      {kGrid, 2, 4, 30000, false, 0x61ff524497aae873ULL},
      {kGrid, 2, 6, 30000, false, 0x194f602312c275bfULL},
      {kGrid, 3, 2, 30000, false, 0xba0bad7eaf324fd9ULL},
      {kGrid, 3, 3, 30000, false, 0x9f47fe33e63467a9ULL},
      {kGrid, 3, 6, 30000, false, 0xc1bcc11d04a393d3ULL},
      {kGrid, 3, 10, 30000, false, 0x598ed37e07e3a959ULL},
      // d >= 4: the polar angles invert sin^k for k >= 2 (table-seeded).
      {kGrid, 4, 2, 20000, false, 0x4da4663a85a3de9aULL},
      {kGrid, 4, 6, 20000, false, 0xffd9f564e3024541ULL},
      {kGrid, 6, 2, 20000, false, 0xa1bdb44ec4a3fd2fULL},
      {kGrid, 6, 6, 20000, false, 0x031cd27c9a5269f6ULL},
      {kGrid, 8, 2, 20000, false, 0x1f4e0b317c509b60ULL},
      {kGrid, 8, 6, 20000, false, 0x84f864f223effb66ULL},
      {kBisect, 2, 2, 30000, false, 0xc7affb4438549d09ULL},
      {kBisect, 2, 3, 30000, false, 0x9d7559b8a16a1489ULL},
      {kBisect, 2, 4, 30000, false, 0x0487e2e8d6c2d5b9ULL},
      {kBisect, 2, 6, 30000, false, 0xc834dfc40894692fULL},
      {kBisect, 3, 2, 30000, false, 0x14555f8f521032fdULL},
      {kBisect, 3, 3, 30000, false, 0x3995672ae2094421ULL},
      {kBisect, 3, 6, 30000, false, 0xce0b4d138a3b942fULL},
      {kBisect, 3, 10, 30000, false, 0xfc39197ef56e1895ULL},
      {kGrid, 2, 2, 5000, true, 0x828c8e491b92d601ULL},
      {kGrid, 2, 3, 5000, true, 0xabca41c576f2d2f5ULL},
      {kGrid, 2, 6, 5000, true, 0x5f7b648dd980ac8fULL},
      {kGrid, 3, 2, 5000, true, 0x569fe7c81b42e050ULL},
      {kGrid, 3, 3, 5000, true, 0x0af1e7be832ec6f1ULL},
      {kGrid, 3, 6, 5000, true, 0xe9abfb142d58e153ULL},
      {kBisect, 2, 2, 5000, true, 0xf334fccfb0f0274cULL},
      {kBisect, 2, 3, 5000, true, 0x36e7cff1c7e2aef7ULL},
      {kBisect, 2, 6, 5000, true, 0x012162315bff00b1ULL},
      {kBisect, 3, 2, 5000, true, 0x6c7e96486c90572aULL},
      {kBisect, 3, 3, 5000, true, 0x1884b70ac88dd1f8ULL},
      {kBisect, 3, 6, 5000, true, 0xcd27ef4a93d365c1ULL},
  };
  for (const ScaleCase& c : cases) {
    const std::vector<Point> points = scalePoints(c);
    for (const int workers : {1, 3}) {
      const std::uint64_t got =
          fullFingerprint(buildScaleCase(c, points, workers));
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llx",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, c.fingerprint)
          << describe(c) << " workers=" << workers << " got " << hex;
    }
  }
}

/// FNV-1a over every node's child list (its length, then its ids in
/// childrenOf() order) and, separately, over bfsOrder(): the orders the
/// simulators, the reliability model and the data-plane engine iterate,
/// which fullFingerprint does not see.
struct OrderFingerprint {
  std::uint64_t children;
  std::uint64_t bfs;
};

OrderFingerprint orderFingerprint(const MulticastTree& tree) {
  const auto mix = [](std::uint64_t& hash, std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (x >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  OrderFingerprint out{1469598103934665603ULL, 1469598103934665603ULL};
  for (NodeId v = 0; v < tree.size(); ++v) {
    const std::span<const NodeId> children = tree.childrenOf(v);
    mix(out.children, children.size());
    for (const NodeId c : children)
      mix(out.children, static_cast<std::uint64_t>(c));
  }
  mix(out.bfs, tree.bfsOrder().size());
  for (const NodeId v : tree.bfsOrder())
    mix(out.bfs, static_cast<std::uint64_t>(v));
  return out;
}

/// Child order and BFS order of Polar_Grid trees at n = 300,000, where the
/// grid CSR spans several point blocks, at one and three workers.
TEST(GoldenTest, ChildAndBfsOrderAtScale) {
  struct OrderCase {
    int dim;
    int degree;
    std::uint64_t children;
    std::uint64_t bfs;
  };
  const OrderCase cases[] = {
      {2, 6, 0x3216d8ffdd13b394ULL, 0xe3571311032d4306ULL},
      {2, 2, 0xba8e911a0a511070ULL, 0x6ef3a1e295eb5666ULL},
      {3, 10, 0x65c7945839713642ULL, 0x59e794eec3a5cd1eULL},
  };
  for (const OrderCase& c : cases) {
    Rng rng(0x0de40000ULL + static_cast<std::uint64_t>(c.dim));
    const std::vector<Point> points =
        sampleDiskWithCenterSource(rng, 300000, c.dim);
    for (const int workers : {1, 3}) {
      const OrderFingerprint got = orderFingerprint(
          buildPolarGridTree(points, 0,
                             {.maxOutDegree = c.degree, .workers = workers})
              .tree);
      char hex[64];
      std::snprintf(hex, sizeof hex, "0x%016llx 0x%016llx",
                    static_cast<unsigned long long>(got.children),
                    static_cast<unsigned long long>(got.bfs));
      EXPECT_EQ(got.children, c.children)
          << "d=" << c.dim << " D=" << c.degree << " workers=" << workers
          << " got " << hex;
      EXPECT_EQ(got.bfs, c.bfs)
          << "d=" << c.dim << " D=" << c.degree << " workers=" << workers
          << " got " << hex;
    }
  }
}

TEST(GoldenTest, FingerprintDistinguishesStructures) {
  // Sanity: different algorithms on the same input produce different
  // fingerprints (the hash is not degenerate).
  const auto points = disk200();
  const auto a = treeFingerprint(
      buildPolarGridTree(points, 0, {.maxOutDegree = 6}).tree);
  const auto b = treeFingerprint(buildGreedyInsertionTree(points, 0, 6));
  const auto c = treeFingerprint(buildChainTree(points, 0));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace omt
