// Algorithm Polar_Grid (Section III) — the paper's asymptotically optimal
// degree-constrained minimum-radius multicast tree.
//
// Three stages:
//  1. build the maximal polar grid over the points (omt/grid);
//  2. connect the cells: each cell's representative (the minimum-radius
//     point) links to the representatives of its two aligned cells in the
//     next ring, forming a binary core network rooted at the source;
//  3. connect the remaining points inside every cell with the Bisection
//     algorithm (omt/bisection).
//
// Out-degree policies (paper Sections III-C and IV-A, plus the natural
// interpolation for other caps):
//  * D >= 4 — representative: 2 core links + bisection fan-out
//    min(D - 2, 2^d). D = 6 in 2D (4+2) and D = 10 in 3D (8+2) are the
//    paper's defaults.
//  * D == 3 — representative keeps fan-out 2 for bisection and delegates
//    the two core links to a relay node (the cell's maximum-radius point).
//  * D == 2 — the paper's three-case construction: the representative
//    forwards to at most two special points, one relaying to the next-ring
//    cells and one acting as the in-cell bisection center.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "omt/common/types.h"
#include "omt/geometry/point.h"
#include "omt/grid/polar_grid.h"
#include "omt/tree/multicast_tree.h"

namespace omt {

struct PolarGridOptions {
  /// Maximum out-degree of any node, >= 2. Defaults to the paper's 2D
  /// setting; pass 10 for the paper's 3D experiments, 2 for binary trees.
  int maxOutDegree = 6;
  /// Optional fixed outer radius, finite and > 0 (default: max
  /// source-to-point distance).
  std::optional<double> outerRadius = std::nullopt;
  /// Hard cap on the ring count (testing hook; the default never binds).
  int maxRings = PolarGrid::kMaxRings;
  /// Worker threads for the construction pipeline; 0 = auto (OMT_THREADS
  /// environment variable, else half the hardware threads), capped at one
  /// worker per kPointsPerWorker points (omt/grid/assignment.h). The built
  /// tree is byte-identical for every value (see docs/performance.md).
  int workers = 0;
};

struct PolarGridResult {
  MulticastTree tree;          ///< finalized spanning tree rooted at source
  PolarGrid grid;              ///< the grid the tree was built on
  double upperBound = 0.0;     ///< eq. (7) at j = 0 (Table I "Bound")
  std::int64_t occupiedCells = 0;
  std::int64_t coreEdgeCount = 0;

  int rings() const { return grid.rings(); }
  double outerRadius() const { return grid.outerRadius(); }
};

/// Build the Polar_Grid tree over `points` rooted at `points[source]`.
/// Requires n >= 1 and a uniform dimension in [2, kMaxDim]. Always returns
/// a valid spanning tree with out-degrees <= options.maxOutDegree; the
/// asymptotic-optimality guarantee additionally assumes the points are
/// (approximately) uniformly distributed in a convex region around the
/// source.
PolarGridResult buildPolarGridTree(std::span<const Point> points,
                                   NodeId source,
                                   const PolarGridOptions& options = {});

/// The bisection fan-out the degree policy assigns inside cells:
/// min(D - 2, 2^d) for D >= 4, otherwise 2.
int cellBisectionFanOut(int dim, int maxOutDegree);

/// radius / radiusLowerBound of a fresh static Polar_Grid build over
/// `points` — the quality yardstick the churn watchdog and the steady-state
/// gate compare a long-lived incremental session against. Returns 1.0 when
/// n <= 1 (both radius and bound are then zero).
double staticRadiusRatio(std::span<const Point> points, NodeId source,
                         int maxOutDegree);

}  // namespace omt
