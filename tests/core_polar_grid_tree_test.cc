#include "omt/core/polar_grid_tree.h"

#include <cmath>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "omt/common/error.h"
#include "omt/core/bounds.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"
#include "omt/tree/metrics.h"
#include "omt/tree/validation.h"

namespace omt {
namespace {

TEST(CellBisectionFanOutTest, PolicyValues) {
  EXPECT_EQ(cellBisectionFanOut(2, 6), 4);   // paper's 2D default: 4 + 2
  EXPECT_EQ(cellBisectionFanOut(3, 10), 8);  // paper's 3D default: 8 + 2
  EXPECT_EQ(cellBisectionFanOut(2, 2), 2);
  EXPECT_EQ(cellBisectionFanOut(2, 3), 2);
  EXPECT_EQ(cellBisectionFanOut(2, 4), 2);
  EXPECT_EQ(cellBisectionFanOut(2, 5), 3);
  EXPECT_EQ(cellBisectionFanOut(2, 100), 4);  // capped at 2^d
  EXPECT_EQ(cellBisectionFanOut(3, 100), 8);
  EXPECT_THROW(cellBisectionFanOut(2, 1), InvalidArgument);
}

TEST(PolarGridTreeTest, TinyInputs) {
  for (std::int64_t n = 1; n <= 5; ++n) {
    std::vector<Point> points;
    for (std::int64_t i = 0; i < n; ++i)
      points.push_back(Point{static_cast<double>(i) * 0.1, 0.0});
    for (const int degree : {2, 3, 6}) {
      const PolarGridResult result =
          buildPolarGridTree(points, 0, {.maxOutDegree = degree});
      const ValidationResult valid =
          validate(result.tree, {.maxOutDegree = degree});
      EXPECT_TRUE(valid.ok) << "n=" << n << " D=" << degree << ": "
                            << valid.message;
    }
  }
}

TEST(PolarGridTreeTest, AllPointsCoincident) {
  const std::vector<Point> points(50, Point{1.0, -1.0});
  const PolarGridResult result =
      buildPolarGridTree(points, 0, {.maxOutDegree = 2});
  EXPECT_TRUE(validate(result.tree, {.maxOutDegree = 2}));
  const TreeMetrics m = computeMetrics(result.tree, points);
  EXPECT_NEAR(m.maxDelay, 0.0, 1e-12);
}

TEST(PolarGridTreeTest, RejectsBadArguments) {
  const std::vector<Point> points{Point{0.0, 0.0}};
  EXPECT_THROW(buildPolarGridTree({}, 0), InvalidArgument);
  EXPECT_THROW(buildPolarGridTree(points, 1), InvalidArgument);
  EXPECT_THROW(buildPolarGridTree(points, 0, {.maxOutDegree = 1}),
               InvalidArgument);
  for (const double bad : {-2.0, 0.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(buildPolarGridTree(points, 0, {.outerRadius = bad}),
                 InvalidArgument)
        << bad;
  }
}

struct TreeParam {
  int dim;
  int degree;
  std::int64_t n;
};

class PolarGridTreeSweep : public ::testing::TestWithParam<TreeParam> {};

TEST_P(PolarGridTreeSweep, ValidSpanningTreeWithinDegreeCap) {
  const auto [dim, degree, n] = GetParam();
  Rng rng(5000 + static_cast<std::uint64_t>(dim * 1000 + degree * 100) +
          static_cast<std::uint64_t>(n));
  const auto points = sampleDiskWithCenterSource(rng, n, dim);
  const PolarGridResult result =
      buildPolarGridTree(points, 0, {.maxOutDegree = degree});
  const ValidationResult valid =
      validate(result.tree, {.maxOutDegree = degree});
  EXPECT_TRUE(valid.ok) << valid.message;
}

TEST_P(PolarGridTreeSweep, DelayBetweenLowerBoundAndEq7) {
  const auto [dim, degree, n] = GetParam();
  Rng rng(6000 + static_cast<std::uint64_t>(dim * 1000 + degree * 100) +
          static_cast<std::uint64_t>(n));
  const auto points = sampleDiskWithCenterSource(rng, n, dim);
  const PolarGridResult result =
      buildPolarGridTree(points, 0, {.maxOutDegree = degree});
  const TreeMetrics m = computeMetrics(result.tree, points);
  const double lower = radiusLowerBound(points, 0);
  EXPECT_GE(m.maxDelay, lower - 1e-9);
  if (dim == 2) {
    // Equation (7) is proved for the 2D grid.
    EXPECT_LE(m.maxDelay, result.upperBound * (1.0 + 1e-9))
        << "dim=" << dim << " D=" << degree << " n=" << n;
  }
}

TEST_P(PolarGridTreeSweep, CoreDelayIsAtMostMaxDelay) {
  const auto [dim, degree, n] = GetParam();
  Rng rng(7000 + static_cast<std::uint64_t>(dim * 1000 + degree * 100) +
          static_cast<std::uint64_t>(n));
  const auto points = sampleDiskWithCenterSource(rng, n, dim);
  const PolarGridResult result =
      buildPolarGridTree(points, 0, {.maxOutDegree = degree});
  const TreeMetrics m = computeMetrics(result.tree, points);
  EXPECT_LE(m.coreDelay, m.maxDelay + 1e-12);
  EXPECT_GT(result.coreEdgeCount, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolarGridTreeSweep,
    ::testing::Values(TreeParam{2, 2, 100}, TreeParam{2, 2, 5000},
                      TreeParam{2, 3, 1000}, TreeParam{2, 4, 1000},
                      TreeParam{2, 5, 500}, TreeParam{2, 6, 100},
                      TreeParam{2, 6, 20000}, TreeParam{2, 8, 2000},
                      TreeParam{3, 2, 2000}, TreeParam{3, 10, 2000},
                      TreeParam{4, 2, 1000}, TreeParam{4, 18, 1000}));

TEST(PolarGridTreeTest, DelayConvergesTowardLowerBound) {
  // Theorem 2: delay/lower-bound shrinks as n grows (fixed seed stream).
  Rng rng(81);
  double prevRatio = kInf;
  for (const std::int64_t n : {200, 5000, 100000}) {
    const auto points = sampleDiskWithCenterSource(rng, n, 2);
    const PolarGridResult result = buildPolarGridTree(points, 0);
    const TreeMetrics m = computeMetrics(result.tree, points);
    const double ratio = m.maxDelay / radiusLowerBound(points, 0);
    EXPECT_LT(ratio, prevRatio) << "n=" << n;
    prevRatio = ratio;
  }
  EXPECT_LT(prevRatio, 1.08);  // near-optimal at n = 100000 (paper: 1.034)
}

TEST(PolarGridTreeTest, ArbitrarySourcePosition) {
  Rng rng(82);
  std::vector<Point> points;
  for (int i = 0; i < 3000; ++i)
    points.push_back(sampleUnitBall(rng, 2));
  // Use an off-center host as the source (Section IV-C: arbitrary source
  // placement in a convex region).
  NodeId source = 0;
  double best = kInf;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = distance(points[i], Point{0.6, 0.3});
    if (d < best) {
      best = d;
      source = static_cast<NodeId>(i);
    }
  }
  const PolarGridResult result = buildPolarGridTree(points, source);
  EXPECT_EQ(result.tree.root(), source);
  EXPECT_TRUE(validate(result.tree, {.maxOutDegree = 6}));
  const TreeMetrics m = computeMetrics(result.tree, points);
  const double lower = radiusLowerBound(points, source);
  EXPECT_LE(m.maxDelay, result.upperBound * (1.0 + 1e-9));
  EXPECT_GE(m.maxDelay, lower - 1e-9);
}

TEST(PolarGridTreeTest, GeneralConvexRegions) {
  Rng rng(83);
  const Box square(Point{-1.0, -1.0}, Point{1.0, 1.0});
  const ConvexPolygon hexagon({Point{1.0, 0.0}, Point{0.5, 0.9},
                               Point{-0.5, 0.9}, Point{-1.0, 0.0},
                               Point{-0.5, -0.9}, Point{0.5, -0.9}});
  for (const Region* region :
       {static_cast<const Region*>(&square),
        static_cast<const Region*>(&hexagon)}) {
    auto points = sampleRegion(rng, 4000, *region);
    points[0] = Point{0.0, 0.0};  // source at the region's center
    for (const int degree : {2, 6}) {
      const PolarGridResult result =
          buildPolarGridTree(points, 0, {.maxOutDegree = degree});
      const ValidationResult valid =
          validate(result.tree, {.maxOutDegree = degree});
      EXPECT_TRUE(valid.ok)
          << region->name() << " D=" << degree << ": " << valid.message;
      const TreeMetrics m = computeMetrics(result.tree, points);
      EXPECT_LE(m.maxDelay, result.upperBound * (1.0 + 1e-9))
          << region->name() << " D=" << degree;
    }
  }
}

TEST(PolarGridTreeTest, NonConvexRegionStillYieldsValidTree) {
  // Outside the theory (annulus is not convex) but must stay feasible.
  Rng rng(84);
  const Annulus ring(Point{0.0, 0.0}, 0.5, 1.0);
  auto points = sampleRegion(rng, 2000, ring);
  points.push_back(Point{0.0, 0.0});  // the source sits in the hole
  const NodeId source = static_cast<NodeId>(points.size() - 1);
  const PolarGridResult result = buildPolarGridTree(points, source);
  EXPECT_TRUE(validate(result.tree, {.maxOutDegree = 6}));
}

TEST(PolarGridTreeTest, NonUniformClusteredPoints) {
  Rng rng(85);
  const Ball disk(Point{0.0, 0.0}, 1.0);
  auto points = sampleClustered(rng, 5000, disk, 5, 0.7, 0.08);
  points[0] = Point{0.0, 0.0};
  for (const int degree : {2, 6}) {
    const PolarGridResult result =
        buildPolarGridTree(points, 0, {.maxOutDegree = degree});
    EXPECT_TRUE(validate(result.tree, {.maxOutDegree = degree}));
    const TreeMetrics m = computeMetrics(result.tree, points);
    EXPECT_LE(m.maxDelay, result.upperBound * (1.0 + 1e-9)) << degree;
  }
}

TEST(PolarGridTreeTest, Deterministic) {
  Rng rng(86);
  const auto points = sampleDiskWithCenterSource(rng, 2000, 2);
  const PolarGridResult a = buildPolarGridTree(points, 0);
  const PolarGridResult b = buildPolarGridTree(points, 0);
  for (NodeId v = 0; v < a.tree.size(); ++v)
    EXPECT_EQ(a.tree.parentOf(v), b.tree.parentOf(v));
  EXPECT_EQ(a.rings(), b.rings());
}

TEST(PolarGridTreeTest, CoreEdgesFormBinaryCoreNetwork) {
  Rng rng(87);
  const auto points = sampleDiskWithCenterSource(rng, 10000, 2);
  const PolarGridResult result = buildPolarGridTree(points, 0);
  // Out-degree 6: every occupied inner cell contributes core edges to its
  // occupied children. With k rings and full inner occupancy, core edges =
  // occupied cells - 1 (every occupied cell except ring 0 has exactly one
  // incoming core edge).
  EXPECT_EQ(result.coreEdgeCount, result.occupiedCells - 1);
}

TEST(PolarGridTreeTest, HigherDegreeNeverHurtsMuch) {
  // More fan-out should not make the tree dramatically worse: compare the
  // max delay of D = 6 and D = 2 trees on the same input.
  Rng rng(88);
  const auto points = sampleDiskWithCenterSource(rng, 20000, 2);
  const TreeMetrics m6 = computeMetrics(
      buildPolarGridTree(points, 0, {.maxOutDegree = 6}).tree, points);
  const TreeMetrics m2 = computeMetrics(
      buildPolarGridTree(points, 0, {.maxOutDegree = 2}).tree, points);
  EXPECT_LE(m6.maxDelay, m2.maxDelay + 1e-9);
}

TEST(PolarGridTreeTest, RingCountMatchesAssignment) {
  Rng rng(89);
  const auto points = sampleDiskWithCenterSource(rng, 5000, 2);
  const PolarGridResult result = buildPolarGridTree(points, 0);
  EXPECT_GE(result.rings(), 6);  // paper reports ~8 at n = 5000
  EXPECT_LE(result.rings(), 11);
  EXPECT_NEAR(result.outerRadius(), 1.0, 0.05);
}

}  // namespace
}  // namespace omt
