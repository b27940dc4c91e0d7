// SoA batch transforms for the point -> cell pipeline.
//
// The scalar pipeline pays per-point overhead that has nothing to do with
// the geometry: a Point temporary with checked element access per
// conversion, an exp2/log2 solve per ring lookup, and an integer modulo
// per digit of the cell address. These kernels process contiguous batches
// over structure-of-arrays lanes — one double lane per coordinate /
// angular axis — with the per-grid constants (ring boundary radii, powers
// of two, per-axis split counts) hoisted into a ClassifyTable built once
// per grid.
//
// Bitwise contract: every kernel replays the exact floating-point
// operation sequence of the scalar function it replaces (same accumulation
// order in the norms, same atan2/CDF calls, same rounding path in the cell
// digit extraction — doubling and the f - 1 step are exact in IEEE double,
// so the digit loop *is* floor(u * 2^n) with an all-ones clamp), and the
// sin^k inversions go through the table-seeded core that returns the same
// doubles as the scalar path. kernels_test.cc asserts bitwise equality
// against toPolar / ringOf / cellOf / fromPolar on random batches.
//
// Lanes are typically carved from a ScratchArena (parallel/scratch_arena.h)
// so repeated builds reuse the same memory.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "omt/common/types.h"
#include "omt/geometry/angular_cube.h"
#include "omt/geometry/point.h"

namespace omt::kernels {

/// SoA view of a batch of polar coordinates: one radius lane plus one lane
/// per angular-cube axis (entries [0, dim-2] meaningful). All lanes must
/// have the same length (the batch size).
struct PolarLanes {
  std::span<double> radius;
  std::array<std::span<double>, kMaxDim - 1> cube;
};

/// Batched toPolar: convert points[i] about `origin` into `lanes` and, when
/// `aosOut` is non-empty, the matching PolarCoords structs (the form
/// bisectConnect takes). Returns the batch's maximum radius
/// (the per-chunk reduction the assignment pass needs). Every written
/// double is bitwise identical to toPolar(points[i], origin).
double polarOfPointsBatch(std::span<const Point> points, const Point& origin,
                          const PolarLanes& lanes,
                          std::span<PolarCoords> aosOut);

/// Per-grid constants for batched classification, hoisted out of the
/// per-point loop. Built from the exact ringRadius(i) doubles of the grid
/// so boundary comparisons agree with PolarGrid::ringOf to the ulp.
struct ClassifyTable {
  int dim = 0;
  int rings = 0;
  double outerRadius = 0.0;
  /// ringRadius(i) for i in [0, rings].
  std::array<double, 41> ringRadius{};
  /// 2^n as a double for n in [0, rings] (exact).
  std::array<double, 41> pow2{};
  /// splits[ring][axis]: how many of the first `ring` axis-cycled binary
  /// splits land on `axis` — the digit count of that axis in a ring-`ring`
  /// cell address.
  std::array<std::array<std::uint8_t, kMaxDim - 1>, 41> splits{};
};

/// `ringRadii` must hold grid.ringRadius(0..rings) — passed in rather than
/// recomputed so this layer needs no dependency on omt::grid.
ClassifyTable makeClassifyTable(int dim, int rings, double outerRadius,
                                std::span<const double> ringRadii);

/// Batched ringOf + cellOf at the grid's full ring count: for each i,
/// ringOut[i] = ringOf(min(radius[i], outerRadius)) and cellOut[i] =
/// cellOf(polar_i, ringOut[i]), bitwise identical to the scalar pair.
void ringCellBatch(const ClassifyTable& table, std::span<const double> radius,
                   const PolarLanes& lanes, std::span<std::int32_t> ringOut,
                   std::span<std::uint64_t> cellOut);

/// Fused polar + classify: one walk over `points` that produces the polar
/// coordinates, the ring index at the table's full ring count, and the
/// cell address — the whole per-point front half of assignToGrid. The
/// polar output is packed point-major in GridAssignment::packedPolar's
/// layout: `polarOut` holds dim doubles per point, the radius and then the
/// dim-1 cube coordinates (size points.size() * dim). Works in
/// cache-resident blocks with small stack lanes instead of spilling
/// n-sized SoA lanes to memory between the passes. Returns the batch max
/// radius. Exact mode is bitwise identical to polarOfPointsBatch +
/// ringCellBatch; fast-math mode routes the transcendentals through the
/// fast_math tier.
double polarClassifyBatch(std::span<const Point> points, const Point& origin,
                          const ClassifyTable& table,
                          std::span<double> polarOut,
                          std::span<std::int32_t> ringOut,
                          std::span<std::uint64_t> cellOut);

/// Radius-only prepass for the fused path when the outer radius is not
/// known up front: per-point distance to `origin` (bitwise identical to the
/// radius the polar conversion produces), reduced to the batch max. Stores
/// nothing — the fused pass recomputes radii from the (cache-hot or
/// streamed) points rather than paying a lane round trip.
double radiusMaxBatch(std::span<const Point> points, const Point& origin);

/// Batched fromPolar (the angular-cube inverse): out[i] =
/// fromPolar({radius[i], cube lanes[i], dim}, origin), with the sin^k
/// inversions table-seeded. Bitwise identical to the scalar composition.
void angularCubeBatch(int dim, const Point& origin,
                      std::span<const double> radius, const PolarLanes& cube,
                      std::span<Point> out);

/// Scalar conveniences for call sites that transform one cell midpoint at
/// a time (Polar_Grid stage 2 relay targets): same results as the geometry
/// functions, with the table-seeded inversion.
Point directionFromCubeTabled(const std::array<double, kMaxDim - 1>& cube,
                              int dim);
Point fromPolarTabled(const PolarCoords& polar, const Point& origin);

}  // namespace omt::kernels
