#include "omt/grid/assignment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "omt/common/error.h"
#include "omt/kernels/polar_batch.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/parallel/parallel_for.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {
namespace {

/// Deterministic per-build facts: one add per logical item (point, build),
/// one set per chosen grid — identical for every worker count.
struct GridMetrics {
  obs::Counter& assignments;
  obs::Counter& points;
  obs::Gauge& rings;
  obs::Gauge& occupiedCells;
};

GridMetrics& gridMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static GridMetrics metrics{
      registry.counter("omt_grid_assignments_total"),
      registry.counter("omt_grid_points_total"),
      registry.gauge("omt_grid_rings"),
      registry.gauge("omt_grid_occupied_cells")};
  return metrics;
}

/// Largest candidate ring count for n points: property 3 needs all 2^(k-1)
/// cells of ring k-1 occupied, so 2^(k-1) <= n - 1 is necessary.
int candidateRings(std::int64_t n, int cap) {
  int k = 1;
  while (k < cap && (std::int64_t{1} << k) <= n) ++k;
  return k;
}

/// Largest k (= kMax - delta) whose rings 1..k-1 are fully occupied, from
/// the occupancy bitmap at kMax. Under k = kMax - delta, ring j (j >= 1)
/// collects the points whose kMax-ring is j + delta, in cell cellMax >>
/// delta; so ring j is fully occupied iff every ring-j cell's depth-delta
/// descendant block in ring j + delta contains an occupied cell. Those
/// block ORs are exactly a bottom-up heap fold: S_0 = occ, S_{delta+1}(h) =
/// S_delta(2h) | S_delta(2h+1), and ring j is full under delta iff
/// S_delta is 1 across ring j. One fold level costs half the previous one,
/// so the whole selection is O(heapIds) — the old per-candidate block scan
/// was O(2^kMax * kMax) when every candidate failed near the end.
int selectRings(std::span<std::uint8_t> fold, int kMax) {
  // ringFull[delta * kMax + (j - 1)] for j in 1..kMax - delta - 1.
  std::vector<std::uint8_t> ringFull(
      static_cast<std::size_t>(kMax) * static_cast<std::size_t>(kMax), 0);
  for (int delta = 0; delta <= kMax - 1; ++delta) {
    for (int j = 1; j <= kMax - delta - 1; ++j) {
      std::uint8_t all = 1;
      const std::uint64_t ringBegin = std::uint64_t{1} << j;
      for (std::uint64_t h = ringBegin; h < 2 * ringBegin; ++h) all &= fold[h];
      ringFull[static_cast<std::size_t>(delta) * static_cast<std::size_t>(kMax) +
               static_cast<std::size_t>(j - 1)] = all;
    }
    // Fold one level: S_{delta+1} over rings 0..kMax-delta-1. Ascending h
    // reads children 2h, 2h+1 before they are overwritten (2h > h).
    const std::uint64_t next = std::uint64_t{1} << (kMax - delta);
    for (std::uint64_t h = 1; h < next; ++h) fold[h] = fold[2 * h] | fold[2 * h + 1];
  }
  for (int delta = 0; delta <= kMax - 1; ++delta) {
    bool valid = true;
    for (int j = 1; j <= kMax - delta - 1 && valid; ++j) {
      valid = ringFull[static_cast<std::size_t>(delta) *
                           static_cast<std::size_t>(kMax) +
                       static_cast<std::size_t>(j - 1)] != 0;
    }
    if (valid) return kMax - delta;
  }
  return 1;
}

/// Per-worker ClassifyTable cache: rebuilt only when the grid key changes,
/// so the bisection driver's repeated builds (same dim / ring count /
/// radius family) reuse each worker's table instead of re-deriving the
/// split layout per build. Thread-local so workers never share a cache
/// line of hot per-point constants.
const kernels::ClassifyTable& workerClassifyTable(
    int dim, int rings, double outerRadius, std::span<const double> radii) {
  struct Cache {
    kernels::ClassifyTable table;
    bool valid = false;
  };
  thread_local Cache cache;
  if (!cache.valid || cache.table.dim != dim || cache.table.rings != rings ||
      cache.table.outerRadius != outerRadius) {
    cache.table = kernels::makeClassifyTable(dim, rings, outerRadius, radii);
    cache.valid = true;
  }
  return cache.table;
}

constexpr std::int64_t kMinBlockPoints = 65536;
constexpr std::int64_t kBlocksPerWorker = 4;

/// Number of contiguous, equal point blocks of the CSR build, each with its
/// own per-cell cursor row. The CSR does not depend on the block count, so
/// the count only trades balance against table size: a few blocks per
/// worker (a multiple of the worker count where the budget allows), at
/// least kMinBlockPoints points each, and at most n / 2 int32 cursors in
/// all (2 bytes a point at most; 1.5 MiB for a two-worker build at n = 1M).
std::int64_t csrBlockCount(std::int64_t n, std::size_t heapIds, int workers) {
  const std::int64_t cap = std::max<std::int64_t>(
      1, std::min(n / kMinBlockPoints,
                  n / 2 / static_cast<std::int64_t>(heapIds)));
  // Whole rounds of one block per worker, so no worker is left an extra one.
  const std::int64_t rounds =
      std::min<std::int64_t>(kBlocksPerWorker, cap / workers);
  return rounds >= 1 ? rounds * workers : cap;
}

}  // namespace

int gridBuildWorkers(int requested, std::int64_t n) {
  return static_cast<int>(std::min<std::int64_t>(
      resolveWorkers(requested),
      std::max<std::int64_t>(1, n / kPointsPerWorker)));
}

PolarCoords GridAssignment::polarOf(NodeId i) const {
  const int dim = grid.dim();
  const double* p = packedPolar.data() +
                    static_cast<std::size_t>(i) * static_cast<std::size_t>(dim);
  PolarCoords polar;
  polar.dim = dim;
  polar.radius = p[0];
  for (int j = 0; j < dim - 1; ++j)
    polar.cube[static_cast<std::size_t>(j)] = p[1 + j];
  return polar;
}

std::int64_t GridAssignment::occupiedCells() const {
  if (occupiedCellCount >= 0) return occupiedCellCount;
  // Property 3 of the chosen grid: rings 1..k-1 are fully occupied, so only
  // ring 0 and the outermost ring need their CSR bounds inspected.
  const int k = grid.rings();
  std::int64_t occupied = cellStart[2] > cellStart[1] ? 1 : 0;  // ring 0
  occupied += (std::int64_t{1} << k) - 2;                       // rings 1..k-1
  const std::uint64_t outerBegin = std::uint64_t{1} << k;
  for (std::uint64_t h = outerBegin; h < 2 * outerBegin; ++h) {
    if (cellStart[static_cast<std::size_t>(h) + 1] >
        cellStart[static_cast<std::size_t>(h)])
      ++occupied;
  }
  return occupied;
}

GridAssignment assignToGrid(std::span<const Point> points, NodeId source,
                            const AssignmentOptions& options) {
  const auto n = static_cast<std::int64_t>(points.size());
  OMT_CHECK(n >= 1, "empty point set");
  OMT_CHECK(source >= 0 && source < n, "source index out of range");
  const int d = points.front().dim();
  OMT_CHECK(d >= 2 && d <= kMaxDim, "dimension out of range");
  OMT_CHECK(options.maxRings >= 1 && options.maxRings <= PolarGrid::kMaxRings,
            "ring cap out of range");
  OMT_CHECK(!options.outerRadius.has_value() ||
                (std::isfinite(*options.outerRadius) &&
                 *options.outerRadius > 0.0),
            "explicit outer radius must be finite and positive");
  // CSR positions and per-block cursors are int32; a point set anywhere
  // near 2^31 points could not have been materialised.
  OMT_CHECK(n <= std::numeric_limits<std::int32_t>::max(),
            "grid assignment supports at most 2^31 - 1 points");
  const int workers = gridBuildWorkers(options.workers, n);
  const auto slots = static_cast<std::size_t>(workers);

  const obs::TraceSpan span("assign_to_grid", "grid");
  gridMetrics().assignments.add();
  gridMetrics().points.add(n);

  const Point& origin = points[static_cast<std::size_t>(source)];

  // Build-lifetime scratch: classification intermediates come from the
  // caller thread's arena, so repeated builds stop reallocating them
  // (workers only write into disjoint slices of these spans).
  ScratchArena& arena = workerArena();
  ScratchArena::Scope arenaScope(arena);
  const auto un = static_cast<std::size_t>(n);

  const auto ud = static_cast<std::size_t>(d);
  // Every element is overwritten by the polar pass below, so the buffer is
  // not zero-filled here: its fresh pages are faulted in by the pass's
  // workers, not serially by this thread.
  DefaultInitVector<double> packed(un * ud);
  std::vector<double> slotMax(slots, 0.0);

  // Outer radius R. The fused pass below classifies during the polar walk,
  // which needs the ring radii, so when R is not supplied a radius-only
  // prepass (one max reduction, no stores) finds it first.
  obs::TraceSpan polarSpan("polar_pass", "grid", span.id());
  double outerRadius = 0.0;
  if (options.outerRadius.has_value()) {
    outerRadius = *options.outerRadius;
  } else {
    parallelForChunks(
        0, n, workers, [&](std::int64_t lo, std::int64_t hi, int slot) {
          const double chunkMax = kernels::radiusMaxBatch(
              points.subspan(static_cast<std::size_t>(lo),
                             static_cast<std::size_t>(hi - lo)),
              origin);
          auto& localMax = slotMax[static_cast<std::size_t>(slot)];
          localMax = std::max(localMax, chunkMax);
        });
    for (const double m : slotMax) outerRadius = std::max(outerRadius, m);
    std::fill(slotMax.begin(), slotMax.end(), 0.0);
  }
  // A computed radius of 0 means every point sits at the source; an
  // explicit one was checked positive above.
  if (outerRadius <= 0.0) outerRadius = 1.0;
  polarSpan.end();

  // Classify every point at the largest candidate k and mark the occupied
  // cells: polar conversion and ring/cell classification run in ONE walk
  // over the points (cache-resident blocks inside polarClassifyBatch),
  // which also checks every point's dimension; then each point's kMax cell
  // is marked with a relaxed byte store. Every writer stores the same 1, so
  // the bitmap is identical for any worker count, and selectRings reads it
  // after the pool join.
  const int kMax = candidateRings(n, options.maxRings);
  const PolarGrid gridMax(d, kMax, outerRadius);
  const std::size_t heapIdsMax = gridMax.heapIdCount();
  std::span<std::int32_t> ringMax = arena.alloc<std::int32_t>(un);
  std::span<std::uint64_t> cellMax = arena.alloc<std::uint64_t>(un);
  std::span<std::uint8_t> occMax = arena.alloc<std::uint8_t>(heapIdsMax);
  std::memset(occMax.data(), 0, occMax.size());
  obs::TraceSpan classifySpan("classification", "grid", span.id());
  std::array<double, PolarGrid::kMaxRings + 1> radii{};
  for (int i = 0; i <= kMax; ++i)
    radii[static_cast<std::size_t>(i)] = gridMax.ringRadius(i);
  const std::span<const double> radiiSpan(radii.data(),
                                          static_cast<std::size_t>(kMax) + 1);
  parallelForChunks(
      0, n, workers, [&](std::int64_t lo, std::int64_t hi, int slot) {
        const kernels::ClassifyTable& table =
            workerClassifyTable(d, kMax, outerRadius, radiiSpan);
        const auto ulo = static_cast<std::size_t>(lo);
        const auto len = static_cast<std::size_t>(hi - lo);
        const double chunkMax = kernels::polarClassifyBatch(
            points.subspan(ulo, len), origin, table,
            std::span<double>(packed).subspan(ulo * ud, len * ud),
            ringMax.subspan(ulo, len), cellMax.subspan(ulo, len));
        auto& localMax = slotMax[static_cast<std::size_t>(slot)];
        localMax = std::max(localMax, chunkMax);
        for (std::size_t i = ulo; i < ulo + len; ++i) {
          std::atomic_ref<std::uint8_t>(
              occMax[static_cast<std::size_t>(
                  gridMax.heapId(ringMax[i], cellMax[i]))])
              .store(1, std::memory_order_relaxed);
        }
      });
  double maxRadius = 0.0;
  for (const double m : slotMax) maxRadius = std::max(maxRadius, m);
  OMT_CHECK(maxRadius <= outerRadius * (1.0 + 1e-9),
            "a point lies outside the requested outer radius");

  const int chosen = selectRings(occMax, kMax);
  classifySpan.end();
  gridMetrics().rings.set(static_cast<double>(chosen));

  // Final assignment under the chosen k.
  const int delta = kMax - chosen;
  GridAssignment out{.grid = PolarGrid(d, chosen, outerRadius),
                     .packedPolar = std::move(packed),
                     .cellStart = {},
                     .cellMembers = {},
                     .occupiedCellCount = -1};

  // Counting sort into the CSR through fixed point blocks. Under k = chosen
  // a point's ring is its kMax ring minus delta (clamped at ring 0) and its
  // cell is its kMax cell >> delta. Block b counts its points per cell into
  // its own cursor row; the serial prefix pass then starts block b's cursor
  // for cell h at cellStart[h] plus the members of h in blocks 0..b-1, so
  // the scatter lists every cell's members in increasing point index by
  // construction, whatever the block count.
  const obs::TraceSpan csrSpan("csr_build", "grid", span.id());
  const std::size_t heapIds = out.grid.heapIdCount();
  const auto chosenHeapId = [&](std::size_t i) -> std::size_t {
    const int ring = ringMax[i] - delta;
    return ring <= 0 ? 1
                     : (std::size_t{1} << ring) +
                           static_cast<std::size_t>(cellMax[i] >> delta);
  };
  const std::int64_t blocks = csrBlockCount(n, heapIds, workers);
  std::span<std::int32_t> cursor = arena.alloc<std::int32_t>(
      static_cast<std::size_t>(blocks) * heapIds);
  const auto blockRow = [&](std::int64_t b) {
    return cursor.subspan(static_cast<std::size_t>(b) * heapIds, heapIds);
  };
  const auto blockBegin = [&](std::int64_t b) {
    return static_cast<std::size_t>(n * b / blocks);
  };
  parallelForChunks(
      0, blocks, workers, [&](std::int64_t bLo, std::int64_t bHi, int) {
        for (std::int64_t b = bLo; b < bHi; ++b) {
          const std::span<std::int32_t> row = blockRow(b);
          std::fill(row.begin(), row.end(), 0);
          const std::size_t end = blockBegin(b + 1);
          for (std::size_t i = blockBegin(b); i < end; ++i)
            ++row[chosenHeapId(i)];
        }
      });
  out.cellStart.resize(heapIds + 1);  // the prefix pass writes every start
  std::int32_t next = 0;
  std::int64_t occupied = 0;
  for (std::size_t h = 0; h < heapIds; ++h) {
    out.cellStart[h] = next;
    for (std::int64_t b = 0; b < blocks; ++b) {
      std::int32_t& slot = cursor[static_cast<std::size_t>(b) * heapIds + h];
      const std::int32_t members = slot;
      slot = next;
      next += members;
    }
    if (next > out.cellStart[h]) ++occupied;
  }
  out.cellStart[heapIds] = next;
  out.occupiedCellCount = occupied;
  gridMetrics().occupiedCells.set(static_cast<double>(occupied));

  out.cellMembers.resize(points.size());
  parallelForChunks(
      0, blocks, workers, [&](std::int64_t bLo, std::int64_t bHi, int) {
        for (std::int64_t b = bLo; b < bHi; ++b) {
          const std::span<std::int32_t> row = blockRow(b);
          const std::size_t end = blockBegin(b + 1);
          for (std::size_t i = blockBegin(b); i < end; ++i)
            out.cellMembers[static_cast<std::size_t>(row[chosenHeapId(i)]++)] =
                static_cast<NodeId>(i);
        }
      });

  return out;
}

}  // namespace omt
