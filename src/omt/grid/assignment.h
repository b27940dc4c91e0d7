// Point-to-cell assignment and maximal ring-count selection (grid
// property 3 of Section III-A).
//
// Given the host points and the source, this chooses the largest k such
// that every cell of rings 1..k-1 contains at least one point (cells of the
// outermost ring k may be empty), then groups point indices by cell. The
// selection exploits the grid's self-similarity: a point's (ring, cell)
// under k rings is (ring - 1, cell >> 1) under k - 1 rings (clamped at ring
// 0), so one O(n) classification pass at the largest candidate k serves all
// candidates, and every candidate's occupancy check comes from one
// bottom-up OR-fold over the kMax occupancy bitmap (O(heapIds) total).
//
// All O(n) passes run on the shared thread pool: polar conversion and
// classification in chunks, marking the kMax occupancy bitmap with
// idempotent byte stores; the counting-sort CSR build in fixed, contiguous
// point blocks, each counting and scattering through its own per-cell
// cursors. No pass takes a per-point atomic read-modify-write or sorts a
// cell afterwards, and the result is identical for every worker count (see
// docs/performance.md for the determinism contract).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "omt/common/default_init.h"
#include "omt/common/types.h"
#include "omt/geometry/angular_cube.h"
#include "omt/geometry/point.h"
#include "omt/grid/polar_grid.h"

namespace omt {

struct GridAssignment {
  PolarGrid grid;  ///< chosen grid (k maximal, outer radius = max distance)

  /// Per-point polar coordinates about the source, packed point-major:
  /// grid.dim() doubles per point, the radius first and then the d-1
  /// angular-cube coordinates (16 bytes a point in 2D; a PolarCoords takes
  /// 72). Classification computes them anyway, and downstream stages (tree
  /// wiring, bisection) read them here rather than converting twice. Read
  /// through radiusOf / polarOf.
  DefaultInitVector<double> packedPolar;

  /// CSR of point indices grouped by cell heap id:
  /// members of heap id h are cellMembers[cellStart[h] .. cellStart[h+1]),
  /// in increasing point index (the block-ordered scatter's own order).
  DefaultInitVector<std::int64_t> cellStart;
  DefaultInitVector<NodeId> cellMembers;

  /// Number of non-empty cells, cached by assignToGrid (-1 = not cached;
  /// occupiedCells() then derives it from the CSR bounds).
  std::int64_t occupiedCellCount = -1;

  /// Distance of point i from the source; equals distance(points[i],
  /// origin) exactly.
  double radiusOf(NodeId i) const {
    return packedPolar[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(grid.dim())];
  }

  /// Point i's polar coordinates, bitwise equal to toPolar(points[i],
  /// origin).
  PolarCoords polarOf(NodeId i) const;

  /// Prefetch hint for point i's packed polar coordinates; reads no value
  /// and changes no state.
  void prefetchPolar(NodeId i) const {
    __builtin_prefetch(packedPolar.data() + static_cast<std::size_t>(i) *
                                                static_cast<std::size_t>(
                                                    grid.dim()));
  }

  std::span<const NodeId> membersOf(std::uint64_t heapId) const {
    const auto begin = cellStart[static_cast<std::size_t>(heapId)];
    const auto end = cellStart[static_cast<std::size_t>(heapId) + 1];
    return {cellMembers.data() + begin, static_cast<std::size_t>(end - begin)};
  }

  /// Number of cells (over all rings, including the outermost) that contain
  /// at least one point. O(1) when cached by assignToGrid; otherwise
  /// derived from the CSR bounds using grid property 3 (rings 1..k-1 are
  /// fully occupied by construction), which leaves only ring 0 and the
  /// outermost ring to inspect.
  std::int64_t occupiedCells() const;
};

struct AssignmentOptions {
  /// Hard cap on k; the default never binds in practice.
  int maxRings = PolarGrid::kMaxRings;
  /// Optional fixed outer radius, finite and > 0; by default the max
  /// source-to-point distance is used. Useful when the region's radius is
  /// known a priori.
  std::optional<double> outerRadius = std::nullopt;
  /// Worker threads for the O(n) passes; 0 = auto (OMT_THREADS environment
  /// variable, else half the hardware threads), capped by
  /// gridBuildWorkers. The result is byte-for-byte independent of this
  /// value.
  int workers = 0;
};

/// Points a build's passes give each worker at least: a pass's fixed cost
/// of waking pool helpers outweighs its work below about a thousand points
/// a worker (one and four workers build an n = 500-1,000 tree equally
/// fast), so a small build runs on fewer workers, down to one.
inline constexpr std::int64_t kPointsPerWorker = 1000;

/// The worker count a build over n points runs its passes on:
/// resolveWorkers(requested), capped at one worker per kPointsPerWorker
/// points.
int gridBuildWorkers(int requested, std::int64_t n);

/// Assign `points` to the maximal-k grid centered at points[source].
/// Requires n >= 1, all points of equal dimension >= 2, and every point
/// within the outer radius. Degenerate sets (all points at the source)
/// yield a k = 1 grid with everything in ring 0.
GridAssignment assignToGrid(std::span<const Point> points, NodeId source,
                            const AssignmentOptions& options = {});

}  // namespace omt
