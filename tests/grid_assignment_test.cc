#include "omt/grid/assignment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "omt/common/error.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"

namespace omt {
namespace {

/// Checks grid property 3 for a given ring count k over the point radii:
/// rings 1..k-1 must be fully occupied.
bool property3Holds(std::span<const Point> points, NodeId source, int k,
                    double outerRadius, int dim) {
  if (k < 1 || k > PolarGrid::kMaxRings) return false;
  const PolarGrid grid(dim, k, outerRadius);
  const Point& origin = points[static_cast<std::size_t>(source)];
  std::vector<std::uint8_t> seen(grid.heapIdCount(), 0);
  for (const Point& p : points) {
    const PolarCoords polar = toPolar(p, origin);
    const int ring = grid.ringOf(std::min(polar.radius, outerRadius));
    seen[grid.heapId(ring, grid.cellOf(polar, ring))] = 1;
  }
  for (int ring = 1; ring <= k - 1; ++ring) {
    for (std::uint64_t c = 0; c < grid.cellsInRing(ring); ++c) {
      if (!seen[grid.heapId(ring, c)]) return false;
    }
  }
  return true;
}

/// Each point's heap id, read back from the CSR (0, never a heap id, for a
/// point no cell lists).
std::vector<std::uint64_t> heapIdOfEachPoint(const GridAssignment& a) {
  std::vector<std::uint64_t> out(a.cellMembers.size(), 0);
  for (std::uint64_t h = 1; h < a.grid.heapIdCount(); ++h) {
    for (const NodeId member : a.membersOf(h))
      out[static_cast<std::size_t>(member)] = h;
  }
  return out;
}

/// Whether the CSR lists `node` in ring 0.
bool inRingZero(const GridAssignment& a, NodeId node) {
  const auto members = a.membersOf(a.grid.heapId(0, 0));
  return std::find(members.begin(), members.end(), node) != members.end();
}

TEST(AssignmentTest, Property3HoldsForChosenK) {
  Rng rng(41);
  for (const std::int64_t n : {16, 100, 1000, 20000}) {
    const auto points = sampleDiskWithCenterSource(rng, n, 2);
    const GridAssignment a = assignToGrid(points, 0);
    EXPECT_TRUE(property3Holds(points, 0, a.grid.rings(),
                               a.grid.outerRadius(), 2))
        << "n=" << n;
  }
}

TEST(AssignmentTest, ChosenKIsMaximal) {
  Rng rng(42);
  for (const std::int64_t n : {64, 500, 5000}) {
    const auto points = sampleDiskWithCenterSource(rng, n, 2);
    const GridAssignment a = assignToGrid(points, 0);
    const int k = a.grid.rings();
    EXPECT_FALSE(
        property3Holds(points, 0, k + 1, a.grid.outerRadius(), 2))
        << "k+1 should violate property 3 at n=" << n;
  }
}

TEST(AssignmentTest, CsrPartitionsAllPoints) {
  Rng rng(43);
  const auto points = sampleDiskWithCenterSource(rng, 3000, 2);
  const GridAssignment a = assignToGrid(points, 0);

  // Every point is listed once, under the cell its own polar coordinates
  // classify into at the chosen k.
  std::vector<std::uint8_t> seen(points.size(), 0);
  for (std::uint64_t h = 1; h < a.grid.heapIdCount(); ++h) {
    const int ring = a.grid.ringOfHeapId(h);
    for (const NodeId member : a.membersOf(h)) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(member)]);
      seen[static_cast<std::size_t>(member)] = 1;
      const PolarCoords polar =
          toPolar(points[static_cast<std::size_t>(member)], points[0]);
      EXPECT_EQ(a.grid.ringOf(std::min(polar.radius, a.grid.outerRadius())),
                ring);
      EXPECT_EQ(a.grid.heapId(ring, a.grid.cellOf(polar, ring)), h);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::uint8_t s) { return s == 1; }));
}

TEST(AssignmentTest, AssignedCellsContainTheirPoints) {
  Rng rng(44);
  for (const int d : {2, 3}) {
    const auto points = sampleDiskWithCenterSource(rng, 2000, d);
    const GridAssignment a = assignToGrid(points, 0);
    const std::vector<std::uint64_t> heapId = heapIdOfEachPoint(a);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_NE(heapId[i], 0u) << "d=" << d << " i=" << i;
      const PolarCoords polar = toPolar(points[i], points[0]);
      const RingSegment segment = a.grid.cellSegment(
          a.grid.ringOfHeapId(heapId[i]), a.grid.cellOfHeapId(heapId[i]));
      EXPECT_TRUE(segment.contains(polar, 1e-9)) << "d=" << d << " i=" << i;
    }
  }
}

TEST(AssignmentTest, SourceIsInRingZero) {
  Rng rng(45);
  const auto points = sampleDiskWithCenterSource(rng, 500, 2);
  const GridAssignment a = assignToGrid(points, 0);
  EXPECT_EQ(heapIdOfEachPoint(a)[0], a.grid.heapId(0, 0));
}

TEST(AssignmentTest, OuterRadiusIsMaxDistance) {
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.5, 0.0},
                                  Point{0.0, -3.0}};
  const GridAssignment a = assignToGrid(points, 0);
  EXPECT_DOUBLE_EQ(a.grid.outerRadius(), 3.0);
}

TEST(AssignmentTest, ExplicitOuterRadius) {
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.5, 0.0}};
  AssignmentOptions options;
  options.outerRadius = 2.0;
  const GridAssignment a = assignToGrid(points, 0, options);
  EXPECT_DOUBLE_EQ(a.grid.outerRadius(), 2.0);

  options.outerRadius = 0.1;  // smaller than the point spread
  EXPECT_THROW(assignToGrid(points, 0, options), InvalidArgument);

  // An explicit radius must be finite and positive; only a computed radius
  // of 0 (every point at the source) falls back to 1.
  for (const double bad : {-2.0, 0.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    options.outerRadius = bad;
    EXPECT_THROW(assignToGrid(points, 0, options), InvalidArgument) << bad;
  }
}

TEST(AssignmentTest, KGrowsLogarithmically) {
  // Equation (5): k >= log2(n)/2 with high probability; also k <= log2(n)+1
  // by counting. Check both at a few sizes.
  Rng rng(46);
  for (const std::int64_t n : {256, 4096, 65536}) {
    const auto points = sampleDiskWithCenterSource(rng, n, 2);
    const GridAssignment a = assignToGrid(points, 0);
    const double log2n = std::log2(static_cast<double>(n));
    EXPECT_GE(a.grid.rings(), static_cast<int>(log2n / 2.0)) << "n=" << n;
    EXPECT_LE(a.grid.rings(), static_cast<int>(log2n) + 1) << "n=" << n;
  }
}

TEST(AssignmentTest, KIsMonotoneInNOnAverage) {
  Rng rng(47);
  const auto small = sampleDiskWithCenterSource(rng, 100, 2);
  const auto large = sampleDiskWithCenterSource(rng, 100000, 2);
  EXPECT_LT(assignToGrid(small, 0).grid.rings(),
            assignToGrid(large, 0).grid.rings());
}

TEST(AssignmentTest, SingleNode) {
  const std::vector<Point> points{Point{1.0, 2.0}};
  const GridAssignment a = assignToGrid(points, 0);
  EXPECT_EQ(a.grid.rings(), 1);
  EXPECT_TRUE(inRingZero(a, 0));
  EXPECT_EQ(a.membersOf(1).size(), 1u);
}

TEST(AssignmentTest, AllPointsCoincident) {
  const std::vector<Point> points(10, Point{3.0, 4.0});
  const GridAssignment a = assignToGrid(points, 0);
  EXPECT_EQ(a.grid.rings(), 1);
  EXPECT_EQ(a.membersOf(1).size(), 10u);  // everything in ring 0
}

TEST(AssignmentTest, NonCenterSource) {
  Rng rng(48);
  auto points = sampleDiskWithCenterSource(rng, 800, 2);
  const NodeId source = 17;
  const GridAssignment a = assignToGrid(points, source);
  EXPECT_TRUE(inRingZero(a, source));
  EXPECT_TRUE(property3Holds(points, source, a.grid.rings(),
                             a.grid.outerRadius(), 2));
}

TEST(AssignmentTest, Deterministic) {
  Rng rng(49);
  const auto points = sampleDiskWithCenterSource(rng, 1000, 2);
  const GridAssignment a = assignToGrid(points, 0);
  const GridAssignment b = assignToGrid(points, 0);
  EXPECT_EQ(a.grid.rings(), b.grid.rings());
  EXPECT_EQ(a.cellMembers, b.cellMembers);
  EXPECT_EQ(a.cellStart, b.cellStart);
}

TEST(AssignmentTest, OccupiedCellsCountsNonEmpty) {
  const std::vector<Point> points{Point{0.0, 0.0}, Point{1.0, 0.0}};
  const GridAssignment a = assignToGrid(points, 0);
  EXPECT_EQ(a.occupiedCells(), 2);  // ring 0 + one outer cell
}

/// Reference k selection: try every candidate from the cap downward and
/// re-grid the points from scratch each time (independent of the fold-based
/// selection in assignToGrid).
int bruteForceRings(std::span<const Point> points, NodeId source,
                    double outerRadius, int dim) {
  const auto n = static_cast<std::int64_t>(points.size());
  int cap = 1;
  while (cap < PolarGrid::kMaxRings && (std::int64_t{1} << cap) <= n) ++cap;
  for (int k = cap; k >= 1; --k) {
    if (property3Holds(points, source, k, outerRadius, dim)) return k;
  }
  return 1;
}

TEST(AssignmentTest, KSelectionMatchesBruteForceOnAdversarialOccupancy) {
  // Knock whole cells out of a fine classification so property 3 fails at
  // controlled rings, including patterns where a hole is masked at coarser
  // k by an occupied sibling subtree — the cases the O(heapIds) fold-based
  // selection must get right.
  Rng rng(51);
  const double radius = 1.0;
  AssignmentOptions options;
  options.outerRadius = radius;
  for (int pattern = 0; pattern < 12; ++pattern) {
    const auto raw = sampleDiskWithCenterSource(rng, 4000, 2);
    const PolarGrid fine(2, 9, radius);
    std::vector<std::uint8_t> doomed(fine.heapIdCount(), 0);
    for (int t = 0; t < 4 * pattern; ++t) {
      const int ring = 1 + static_cast<int>(rng.uniformInt(9));
      const std::uint64_t cell = rng.uniformInt(fine.cellsInRing(ring));
      doomed[fine.heapId(ring, cell)] = 1;
    }
    std::vector<Point> points;
    points.push_back(raw[0]);  // the source stays
    for (std::size_t i = 1; i < raw.size(); ++i) {
      const PolarCoords polar = toPolar(raw[i], raw[0]);
      const int ring = fine.ringOf(std::min(polar.radius, radius));
      if (!doomed[fine.heapId(ring, fine.cellOf(polar, ring))])
        points.push_back(raw[i]);
    }
    const GridAssignment a = assignToGrid(points, 0, options);
    EXPECT_EQ(a.grid.rings(), bruteForceRings(points, 0, radius, 2))
        << "pattern=" << pattern;
  }
}

TEST(AssignmentTest, KSelectionMatchesBruteForceOnSparseSets) {
  // Tiny and skewed sets exercise the delta-near-kMax end of the fold.
  Rng rng(52);
  for (const std::int64_t n : {2, 3, 5, 9, 17, 33}) {
    const auto points = sampleDiskWithCenterSource(rng, n, 2);
    const GridAssignment a = assignToGrid(points, 0);
    EXPECT_EQ(a.grid.rings(),
              bruteForceRings(points, 0, a.grid.outerRadius(), 2))
        << "n=" << n;
  }
  // All mass near the rim: inner rings empty, k must collapse to 1.
  std::vector<Point> rim{Point{0.0, 0.0}};
  for (int i = 0; i < 64; ++i) {
    const double angle = 2.0 * 3.14159265358979323846 * i / 64.0;
    rim.push_back(Point{0.99 * std::cos(angle), 0.99 * std::sin(angle)});
  }
  const GridAssignment a = assignToGrid(rim, 0);
  EXPECT_EQ(a.grid.rings(), bruteForceRings(rim, 0, a.grid.outerRadius(), 2));
}

TEST(AssignmentTest, ParallelAssignmentMatchesSequential) {
  Rng rng(53);
  // n = 300,000 spreads the CSR build over several point blocks at every
  // worker count.
  for (const std::int64_t n : {20000, 300000}) {
    for (const int dim : {2, 3}) {
      const auto points = sampleDiskWithCenterSource(rng, n, dim);
      AssignmentOptions sequential;
      sequential.workers = 1;
      const GridAssignment want = assignToGrid(points, 0, sequential);
      // Increasing index within every cell plus each point's own cell pin
      // the whole CSR, whatever block count built it.
      for (std::uint64_t h = 1; h < want.grid.heapIdCount(); ++h) {
        const auto members = want.membersOf(h);
        ASSERT_TRUE(std::is_sorted(members.begin(), members.end()))
            << "n=" << n << " dim=" << dim << " h=" << h;
      }
      const std::vector<std::uint64_t> wantIds = heapIdOfEachPoint(want);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const PolarCoords polar = toPolar(points[i], points[0]);
        const int ring = want.grid.ringOf(
            std::min(polar.radius, want.grid.outerRadius()));
        ASSERT_EQ(wantIds[i],
                  want.grid.heapId(ring, want.grid.cellOf(polar, ring)))
            << "n=" << n << " dim=" << dim << " i=" << i;
      }
      for (const int workers : {2, 7, 16}) {
        AssignmentOptions options;
        options.workers = workers;
        const GridAssignment got = assignToGrid(points, 0, options);
        EXPECT_EQ(got.grid.rings(), want.grid.rings());
        EXPECT_DOUBLE_EQ(got.grid.outerRadius(), want.grid.outerRadius());
        EXPECT_EQ(got.cellStart, want.cellStart);
        EXPECT_EQ(got.cellMembers, want.cellMembers);
        EXPECT_EQ(heapIdOfEachPoint(got), wantIds);
        EXPECT_EQ(got.packedPolar, want.packedPolar);
        EXPECT_EQ(got.occupiedCells(), want.occupiedCells());
      }
    }
  }
}

TEST(AssignmentTest, PolarOfPointMatchesToPolar) {
  Rng rng(54);
  const auto points = sampleDiskWithCenterSource(rng, 3000, 2);
  const GridAssignment a = assignToGrid(points, 0);
  ASSERT_EQ(a.packedPolar.size(), 2 * points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PolarCoords want = toPolar(points[i], points[0]);
    const PolarCoords got = a.polarOf(static_cast<NodeId>(i));
    EXPECT_EQ(a.radiusOf(static_cast<NodeId>(i)), want.radius);
    EXPECT_EQ(got.radius, want.radius);
    EXPECT_EQ(got.dim, want.dim);
    for (int c = 0; c < want.cubeAxes(); ++c)
      EXPECT_EQ(got.cube[static_cast<std::size_t>(c)],
                want.cube[static_cast<std::size_t>(c)]);
  }
}

TEST(AssignmentTest, OccupiedCellsCacheMatchesFullScan) {
  Rng rng(55);
  for (const std::int64_t n : {1, 2, 100, 5000}) {
    GridAssignment a = assignToGrid(sampleDiskWithCenterSource(rng, n, 2), 0);
    std::int64_t scanned = 0;
    for (std::size_t h = 1; h < a.grid.heapIdCount(); ++h) {
      if (a.cellStart[h + 1] > a.cellStart[h]) ++scanned;
    }
    EXPECT_EQ(a.occupiedCells(), scanned) << "n=" << n;  // cached path
    a.occupiedCellCount = -1;
    EXPECT_EQ(a.occupiedCells(), scanned) << "n=" << n;  // fallback path
  }
}

TEST(AssignmentTest, RejectsBadArguments) {
  const std::vector<Point> points{Point{0.0, 0.0}};
  EXPECT_THROW(assignToGrid({}, 0), InvalidArgument);
  EXPECT_THROW(assignToGrid(points, 1), InvalidArgument);
  EXPECT_THROW(assignToGrid(points, -1), InvalidArgument);
}

TEST(AssignmentTest, ThreeDimensionalProperty3) {
  Rng rng(50);
  const auto points = sampleDiskWithCenterSource(rng, 5000, 3);
  const GridAssignment a = assignToGrid(points, 0);
  EXPECT_TRUE(property3Holds(points, 0, a.grid.rings(), a.grid.outerRadius(),
                             3));
  EXPECT_GE(a.grid.rings(), 4);
}

}  // namespace
}  // namespace omt
