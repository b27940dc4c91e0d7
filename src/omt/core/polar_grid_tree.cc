#include "omt/core/polar_grid_tree.h"

#include <algorithm>
#include <vector>

#include "omt/bisection/bisection.h"
#include "omt/common/error.h"
#include "omt/core/bounds.h"
#include "omt/grid/assignment.h"
#include "omt/kernels/polar_batch.h"
#include "omt/tree/metrics.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/parallel/parallel_for.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {

int cellBisectionFanOut(int dim, int maxOutDegree) {
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "dimension out of range");
  OMT_CHECK(maxOutDegree >= 2, "out-degree cap must be at least 2");
  if (maxOutDegree >= 4) {
    return std::min(maxOutDegree - 2,
                    static_cast<int>(std::int64_t{1} << dim));
  }
  return 2;
}

namespace {

/// Index (into `candidates`) of the minimum-radius point, ties by node id.
std::size_t argMinRadius(std::span<const NodeId> candidates,
                         const GridAssignment& assignment) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double cur = assignment.radiusOf(candidates[i]);
    const double bst = assignment.radiusOf(candidates[best]);
    if (cur < bst || (cur == bst && candidates[i] < candidates[best]))
      best = i;
  }
  return best;
}

/// Index of the candidate closest to `target`, ties by node id. Used to
/// pick the relay that forwards to the next ring: the two child
/// representatives sit near the cell's outer arc, so the best relay is the
/// point nearest the outer-arc midpoint.
std::size_t argMinDistanceTo(std::span<const NodeId> candidates,
                             std::span<const Point> points,
                             const Point& target) {
  std::size_t best = 0;
  double bestDist = kInf;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double cur =
        squaredDistance(points[static_cast<std::size_t>(candidates[i])], target);
    if (cur < bestDist ||
        (cur == bestDist && candidates[i] < candidates[best])) {
      bestDist = cur;
      best = i;
    }
  }
  return best;
}

/// Prefetch the cache lines squaredDistance reads of `p`: its coordinates
/// and its dimension, which a 72-byte, 8-aligned Point spreads over at most
/// two lines.
void prefetchPoint(const Point& p) {
  const auto* bytes = reinterpret_cast<const char*>(&p);
  __builtin_prefetch(bytes);
  __builtin_prefetch(bytes + sizeof(Point) - 1);
}

/// Look-ahead, in cells along the CSR, of the member prefetches of stages
/// 2a and 2b/3. Each member is a random index into the points, the packed
/// polar store and the tree's arrays. A 2D cell holds about 15 members at
/// n = 1M, so a few cells ahead keep misses in flight through a cell's
/// wiring while the lines they bring in (a few per member) stay well
/// inside L2 until their cell is reached.
constexpr std::uint64_t kCellsAhead = 4;

void removeAt(std::vector<NodeId>& v, std::size_t pos) {
  v[pos] = v.back();
  v.pop_back();
}

/// Deterministic: every counter adds once per logical item (build, node,
/// core edge), so the values are identical for any worker count.
struct CoreMetrics {
  obs::Counter& builds;
  obs::Counter& nodes;
  obs::Counter& coreEdges;
};

CoreMetrics& coreMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static CoreMetrics metrics{registry.counter("omt_core_builds_total"),
                             registry.counter("omt_core_nodes_total"),
                             registry.counter("omt_core_edges_total")};
  return metrics;
}

}  // namespace

PolarGridResult buildPolarGridTree(std::span<const Point> points,
                                   NodeId source,
                                   const PolarGridOptions& options) {
  const auto n = static_cast<NodeId>(points.size());
  OMT_CHECK(n >= 1, "empty point set");
  OMT_CHECK(source >= 0 && source < n, "source index out of range");
  OMT_CHECK(options.maxOutDegree >= 2, "out-degree cap must be at least 2");
  const int d = points.front().dim();
  const int workers = gridBuildWorkers(options.workers, n);

  const obs::TraceSpan span("build_polar_grid_tree", "core");
  coreMetrics().builds.add();
  coreMetrics().nodes.add(n);

  AssignmentOptions assignOptions;
  assignOptions.maxRings = options.maxRings;
  assignOptions.outerRadius = options.outerRadius;
  assignOptions.workers = workers;
  const GridAssignment assignment = assignToGrid(points, source, assignOptions);
  const PolarGrid& grid = assignment.grid;
  const int k = grid.rings();
  const Point& origin = points[static_cast<std::size_t>(source)];
  const int fanOut = cellBisectionFanOut(d, options.maxOutDegree);
  const int degree = options.maxOutDegree;

  // Stage 2a (parallel over cells): representative of every occupied cell =
  // the point "closest to the center on the inner arc of the segment"
  // (Section III-B): the member nearest the midpoint of the cell's inner
  // boundary. The source represents ring 0 by definition. Each heap id is
  // written by exactly one chunk, so the pass is race-free and its output
  // independent of the chunking.
  const std::uint64_t heapIds = grid.heapIdCount();
  DefaultInitVector<NodeId> rep(heapIds, kNoNode);
  obs::TraceSpan repsSpan("stage2a_representatives", "core", span.id());
  // Each chunk gathers its occupied cells, builds their inner-arc
  // midpoints in SoA lanes on the worker's arena, and converts them with
  // one angularCubeBatch (table-seeded sin^k inversions).
  parallelForChunks(
      1, static_cast<std::int64_t>(heapIds), workers,
      [&](std::int64_t lo, std::int64_t hi, int) {
        ScratchArena& arena = workerArena();
        ScratchArena::Scope scope(arena);
        const auto chunkSize = static_cast<std::size_t>(hi - lo);
        std::span<std::uint64_t> ids = arena.alloc<std::uint64_t>(chunkSize);
        std::size_t occupied = 0;
        for (std::int64_t hh = lo; hh < hi; ++hh) {
          const auto h = static_cast<std::uint64_t>(hh);
          if (!assignment.membersOf(h).empty()) ids[occupied++] = h;
        }
        if (occupied == 0) return;
        kernels::PolarLanes mids;
        mids.radius = arena.alloc<double>(occupied);
        for (int j = 0; j < d - 1; ++j)
          mids.cube[static_cast<std::size_t>(j)] = arena.alloc<double>(occupied);
        for (std::size_t idx = 0; idx < occupied; ++idx) {
          const std::uint64_t h = ids[idx];
          const PolarCoords mid = grid.arcMidpoint(
              grid.ringOfHeapId(h), grid.cellOfHeapId(h), /*outer=*/false);
          mids.radius[idx] = mid.radius;
          for (int j = 0; j < d - 1; ++j)
            mids.cube[static_cast<std::size_t>(j)][idx] =
                mid.cube[static_cast<std::size_t>(j)];
        }
        std::span<Point> innerMid = arena.alloc<Point>(occupied);
        kernels::angularCubeBatch(d, origin, mids.radius, mids, innerMid);
        for (std::size_t idx = 0; idx < occupied; ++idx) {
          if (idx + kCellsAhead < occupied) {
            for (const NodeId m : assignment.membersOf(ids[idx + kCellsAhead]))
              prefetchPoint(points[static_cast<std::size_t>(m)]);
          }
          const std::uint64_t h = ids[idx];
          const auto members = assignment.membersOf(h);
          rep[h] = members[argMinDistanceTo(members, points, innerMid[idx])];
        }
      });
  rep[1] = source;
  repsSpan.end();

  PolarGridResult result{.tree = MulticastTree(n, source), .grid = grid};
  MulticastTree& tree = result.tree;
  result.occupiedCells = assignment.occupiedCells();

  // Stages 2b and 3 (parallel over cells). Every attach performed while
  // iterating cell h has its parent inside cell h (representative, relay,
  // bisection center, or a bisection-internal node) and a child that no
  // other cell attaches (h's own non-representative members, or the
  // representatives of the aligned next-ring cells 2h and 2h+1). Parent
  // out-degree writes therefore partition by cell and each child's parent
  // link is written exactly once, so cells are processed concurrently with
  // no synchronisation; the tree is identical for every worker count.
  // coreEdgeCount is a per-slot sum reduced after the join.
  std::vector<std::int64_t> coreEdges(static_cast<std::size_t>(workers), 0);
  obs::TraceSpan wireSpan("stage2b3_cell_wiring", "core", span.id());
  parallelForChunks(
      1, static_cast<std::int64_t>(heapIds), workers,
      [&](std::int64_t lo, std::int64_t hi, int slot) {
        std::int64_t& coreCount = coreEdges[static_cast<std::size_t>(slot)];
        const auto attachCore = [&](NodeId child, NodeId parent) {
          tree.attach(child, parent, EdgeKind::kCore);
          ++coreCount;
        };
        // Warm what wiring cell h will touch at random: its members' polar
        // coordinates and tree slots, their points when the relay choice
        // of D <= 3 measures distances, and the tree slots of the
        // next-ring representatives it links.
        const auto prefetchCell = [&](std::uint64_t h) {
          for (const NodeId m : assignment.membersOf(h)) {
            assignment.prefetchPolar(m);
            tree.prefetch(m);
            if (degree <= 3) prefetchPoint(points[static_cast<std::size_t>(m)]);
          }
          if (2 * h + 1 < heapIds) {
            if (rep[2 * h] != kNoNode) tree.prefetch(rep[2 * h]);
            if (rep[2 * h + 1] != kNoNode) tree.prefetch(rep[2 * h + 1]);
          }
        };
        std::vector<NodeId> locals;
        std::vector<PolarCoords> localPolar;
        for (std::int64_t hh = lo; hh < hi; ++hh) {
          const auto h = static_cast<std::uint64_t>(hh);
          if (h + kCellsAhead < static_cast<std::uint64_t>(hi))
            prefetchCell(h + kCellsAhead);
          const NodeId cellRep = rep[h];
          if (cellRep == kNoNode) {
            // Property 3: only outermost-ring cells may be empty.
            OMT_ASSERT(grid.ringOfHeapId(h) >= k,
                       "empty cell in an inner ring despite property 3");
            continue;
          }
          const int ring = grid.ringOfHeapId(h);
          const std::uint64_t cell = grid.cellOfHeapId(h);

          // Representatives of the two aligned cells in the next ring.
          NodeId childReps[2];
          int childCount = 0;
          if (ring < k) {
            for (std::uint64_t hc = 2 * h; hc <= 2 * h + 1; ++hc) {
              if (rep[hc] != kNoNode) childReps[childCount++] = rep[hc];
            }
          }

          // Remaining in-cell points.
          locals.clear();
          for (const NodeId member : assignment.membersOf(h)) {
            if (member != cellRep && member != source) locals.push_back(member);
          }

          // Apply the degree policy; pick the bisection root and relay wiring.
          NodeId bisectRoot = cellRep;
          int bisectFanOut = fanOut;
          if (degree >= 4) {
            for (int c = 0; c < childCount; ++c) attachCore(childReps[c], cellRep);
          } else if (degree == 3) {
            if (childCount > 0 && !locals.empty()) {
              const Point outerMid = kernels::fromPolarTabled(
                  grid.arcMidpoint(ring, cell, /*outer=*/true), origin);
              const std::size_t tPos = argMinDistanceTo(locals, points, outerMid);
              const NodeId relay = locals[tPos];
              removeAt(locals, tPos);
              attachCore(relay, cellRep);
              for (int c = 0; c < childCount; ++c) attachCore(childReps[c], relay);
            } else {
              for (int c = 0; c < childCount; ++c) attachCore(childReps[c], cellRep);
            }
          } else {  // degree == 2, the paper's Section IV-A cases
            if (childCount == 0) {
              // Outermost (or childless) cell: the representative roots the
              // bisection directly.
            } else if (locals.empty()) {
              // Case 1: the representative is alone; it carries the core links.
              for (int c = 0; c < childCount; ++c) attachCore(childReps[c], cellRep);
            } else if (locals.size() == 1) {
              // Case 2: the second point relays to the next ring.
              const NodeId other = locals[0];
              locals.clear();
              attachCore(other, cellRep);
              for (int c = 0; c < childCount; ++c) attachCore(childReps[c], other);
            } else {
              // Case 3: one special point relays to the next ring, another is
              // the center for connecting the rest of the cell.
              const Point outerMid = kernels::fromPolarTabled(
                  grid.arcMidpoint(ring, cell, /*outer=*/true), origin);
              const std::size_t tPos = argMinDistanceTo(locals, points, outerMid);
              const NodeId relay = locals[tPos];
              removeAt(locals, tPos);
              attachCore(relay, cellRep);
              for (int c = 0; c < childCount; ++c) attachCore(childReps[c], relay);
              const std::size_t bPos = argMinRadius(locals, assignment);
              const NodeId center = locals[bPos];
              removeAt(locals, bPos);
              tree.attach(center, cellRep, EdgeKind::kLocal);
              bisectRoot = center;
            }
          }

          // Stage 3: connect the remaining in-cell points with Bisection,
          // reusing the polar coordinates computed during assignment.
          if (!locals.empty()) {
            localPolar.clear();
            localPolar.reserve(locals.size());
            for (const NodeId member : locals)
              localPolar.push_back(assignment.polarOf(member));
            bisectConnect(tree, locals, localPolar, bisectRoot,
                          assignment.radiusOf(bisectRoot),
                          grid.cellSegment(ring, cell), bisectFanOut);
          }
        }
      });
  wireSpan.end();
  for (const std::int64_t c : coreEdges) result.coreEdgeCount += c;
  coreMetrics().coreEdges.add(result.coreEdgeCount);

  tree.finalize();
  result.upperBound = upperBoundEq7(grid, 0, relayLayers(d, fanOut));
  return result;
}

double staticRadiusRatio(std::span<const Point> points, NodeId source,
                         int maxOutDegree) {
  if (points.size() <= 1) return 1.0;
  const double bound = radiusLowerBound(points, source);
  if (bound <= 0.0) return 1.0;
  PolarGridOptions options;
  options.maxOutDegree = maxOutDegree;
  const PolarGridResult result = buildPolarGridTree(points, source, options);
  const TreeMetrics metrics = computeMetrics(result.tree, points);
  return metrics.maxDelay / bound;
}

}  // namespace omt
