#include "omt/kernels/polar_batch.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "omt/common/error.h"
#include "omt/geometry/sin_power_integral.h"
#include "omt/kernels/fast_math.h"
#include "omt/kernels/sin_power_table.h"
#include "omt/obs/metrics.h"

namespace omt::kernels {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kInvTwoPi = 1.0 / (2.0 * std::numbers::pi);

/// Block size of the fused kernels: big enough to amortise the per-block
/// dispatch, small enough that the stack lanes (radius + up to kMaxDim-1
/// cube lanes + the SoA gather buffers) stay L1-resident.
constexpr std::size_t kBlock = 512;

/// Points-ahead distance for the software prefetch in the gather loops.
constexpr std::size_t kPrefetchAhead = 8;

obs::Counter& batchPointsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "omt_kernel_batch_points_total");
  return counter;
}

obs::Counter& fastPointsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "omt_kernel_fast_math_points_total");
  return counter;
}

void checkLanes(const PolarLanes& lanes, int dim, std::size_t n) {
  OMT_CHECK(lanes.radius.size() == n, "radius lane size mismatch");
  for (int j = 0; j < dim - 1; ++j) {
    OMT_CHECK(lanes.cube[static_cast<std::size_t>(j)].size() == n,
              "cube lane size mismatch");
  }
}

// --- exact lane cores ------------------------------------------------------
//
// Bitwise contract: each core replays toPolar's floating-point operation
// sequence exactly — same difference, same left-to-right norm accumulation,
// same back-to-front suffix accumulation, same atan2/CDF calls. The d = 2
// and d = 3 specialisations drop only work whose *results* the generic loop
// never read: the generic code took a sqrt for every suffix norm, but only
// suffix[1..d-2] feed an atan2 — so d = 2 paid two dead sqrts per point and
// d = 3 paid two of its three (the 1.03x "speedup" of the 3D polar stage in
// BENCH_kernels came from exactly this). sqrt results never feed back into
// the accumulators, so skipping the dead ones leaves every output double
// unchanged.

double exactPolarLanes2D(const Point* pts, std::size_t n, const double* o,
                         double* radius, double* cube0) {
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    OMT_CHECK(pts[i].dim() == 2, "dimension mismatch");
    if (i + kPrefetchAhead < n) __builtin_prefetch(&pts[i + kPrefetchAhead]);
    const double* pc = pts[i].coords().data();
    const double v0 = pc[0] - o[0];
    const double v1 = pc[1] - o[1];
    const double r = std::sqrt(v0 * v0 + v1 * v1);
    radius[i] = r;
    maxRadius = std::max(maxRadius, r);
    double u = 0.0;
    if (r > 0.0) {
      double phi = std::atan2(v1, v0);
      if (phi < 0.0) phi += kTwoPi;
      u = phi / kTwoPi;
    }
    cube0[i] = u;
  }
  return maxRadius;
}

double exactPolarLanes3D(const Point* pts, std::size_t n, const double* o,
                         double* radius, double* cube0, double* cube1) {
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    OMT_CHECK(pts[i].dim() == 3, "dimension mismatch");
    if (i + kPrefetchAhead < n) __builtin_prefetch(&pts[i + kPrefetchAhead]);
    const double* pc = pts[i].coords().data();
    const double v0 = pc[0] - o[0];
    const double v1 = pc[1] - o[1];
    const double v2 = pc[2] - o[2];
    const double r = std::sqrt(v0 * v0 + v1 * v1 + v2 * v2);
    radius[i] = r;
    maxRadius = std::max(maxRadius, r);
    double c0 = 0.0;
    double c1 = 0.0;
    if (r > 0.0) {
      // Back-to-front suffix accumulation, only the one live sqrt.
      const double suffix1 = std::sqrt(v2 * v2 + v1 * v1);
      const double theta = std::atan2(suffix1, v0);
      c0 = sinPowerCdf(1, theta);
      double phi = std::atan2(v2, v1);
      if (phi < 0.0) phi += kTwoPi;
      c1 = phi / kTwoPi;
    }
    cube0[i] = c0;
    cube1[i] = c1;
  }
  return maxRadius;
}

double exactPolarLanesGeneric(const Point* pts, std::size_t n, const double* o,
                              int d, double* const* cube, double* radius) {
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    OMT_CHECK(pts[i].dim() == d, "dimension mismatch");
    if (i + kPrefetchAhead < n) __builtin_prefetch(&pts[i + kPrefetchAhead]);
    const double* pc = pts[i].coords().data();
    double v[kMaxDim];
    for (int j = 0; j < d; ++j) v[j] = pc[j] - o[j];
    double acc = 0.0;
    for (int j = 0; j < d; ++j) acc += v[j] * v[j];
    const double r = std::sqrt(acc);
    radius[i] = r;
    maxRadius = std::max(maxRadius, r);
    double c[kMaxDim - 1] = {};  // all-zero cube when radius == 0
    if (r > 0.0) {
      double suffix[kMaxDim];
      double sacc = 0.0;
      for (int j = d - 1; j >= 0; --j) {
        sacc += v[j] * v[j];
        // Only suffix[1..d-2] feed an atan2; skip the dead endpoint sqrts.
        if (j >= 1 && j <= d - 2) suffix[j] = std::sqrt(sacc);
      }
      for (int j = 0; j < d - 2; ++j) {
        const double theta = std::atan2(suffix[j + 1], v[j]);
        c[j] = sinPowerCdf(d - 2 - j, theta);
      }
      double phi = std::atan2(v[d - 1], v[d - 2]);
      if (phi < 0.0) phi += kTwoPi;
      c[d - 2] = phi / kTwoPi;
    }
    for (int j = 0; j < d - 1; ++j) cube[j][i] = c[j];
  }
  return maxRadius;
}

// --- fast-math lane cores --------------------------------------------------
//
// No bitwise contract here — the fast cores route the transcendentals
// through the fast_math tier (within its documented error bounds) and are
// free to use algebraically equivalent well-conditioned forms. For d = 2
// and d = 3 the points are transposed block-wise into stack SoA buffers so
// the whole conversion runs through the AVX2 lanes.

double fastPolarLanes2D(const Point* pts, std::size_t n, const double* o,
                        double* radius, double* cube0) {
  double maxRadius = 0.0;
  double dx[kBlock];
  double dy[kBlock];
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    for (std::size_t i = 0; i < len; ++i) {
      const Point& p = pts[start + i];
      OMT_CHECK(p.dim() == 2, "dimension mismatch");
      if (i + kPrefetchAhead < len)
        __builtin_prefetch(&pts[start + i + kPrefetchAhead]);
      const double* pc = p.coords().data();
      dx[i] = pc[0] - o[0];
      dy[i] = pc[1] - o[1];
    }
    const double blockMax = fast_math::fastPolar2DBatch(
        std::span<const double>(dx, len), std::span<const double>(dy, len),
        std::span<double>(radius + start, len),
        std::span<double>(cube0 + start, len));
    maxRadius = std::max(maxRadius, blockMax);
  }
  return maxRadius;
}

double fastPolarLanes3D(const Point* pts, std::size_t n, const double* o,
                        double* radius, double* cube0, double* cube1) {
  double maxRadius = 0.0;
  double dx[kBlock];
  double dy[kBlock];
  double dz[kBlock];
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    for (std::size_t i = 0; i < len; ++i) {
      const Point& p = pts[start + i];
      OMT_CHECK(p.dim() == 3, "dimension mismatch");
      if (i + kPrefetchAhead < len)
        __builtin_prefetch(&pts[start + i + kPrefetchAhead]);
      const double* pc = p.coords().data();
      dx[i] = pc[0] - o[0];
      dy[i] = pc[1] - o[1];
      dz[i] = pc[2] - o[2];
    }
    const double blockMax = fast_math::fastPolar3DBatch(
        std::span<const double>(dx, len), std::span<const double>(dy, len),
        std::span<const double>(dz, len),
        std::span<double>(radius + start, len),
        std::span<double>(cube0 + start, len),
        std::span<double>(cube1 + start, len));
    maxRadius = std::max(maxRadius, blockMax);
  }
  return maxRadius;
}

double fastPolarLanesGeneric(const Point* pts, std::size_t n, const double* o,
                             int d, double* const* cube, double* radius) {
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    OMT_CHECK(pts[i].dim() == d, "dimension mismatch");
    if (i + kPrefetchAhead < n) __builtin_prefetch(&pts[i + kPrefetchAhead]);
    const double* pc = pts[i].coords().data();
    double v[kMaxDim];
    for (int j = 0; j < d; ++j) v[j] = pc[j] - o[j];
    double acc = 0.0;
    for (int j = 0; j < d; ++j) acc += v[j] * v[j];
    const double r = std::sqrt(acc);
    radius[i] = r;
    maxRadius = std::max(maxRadius, r);
    double c[kMaxDim - 1] = {};
    if (r > 0.0) {
      // The suffix-norm cascade hands the fast CDF (cos, sin) pairs
      // directly — no atan2 on the polar-angle axes at all.
      double suffix[kMaxDim + 1];
      double sacc = 0.0;
      suffix[d] = 0.0;
      for (int j = d - 1; j >= 0; --j) {
        sacc += v[j] * v[j];
        suffix[j] = std::sqrt(sacc);
      }
      for (int j = 0; j < d - 2; ++j) {
        if (suffix[j] <= 0.0) {
          // Degenerate tail: atan2(0, v_j) is 0 or pi.
          c[j] = v[j] < 0.0 ? 1.0 : 0.0;
          continue;
        }
        const double cosT = std::clamp(v[j] / suffix[j], -1.0, 1.0);
        const double sinT = std::min(suffix[j + 1] / suffix[j], 1.0);
        c[j] = fast_math::fastSinPowerCdf(d - 2 - j, cosT, sinT);
      }
      double u = fast_math::fastAtan2(v[d - 1], v[d - 2]) * kInvTwoPi;
      if (u < 0.0) u += 1.0;
      if (u >= 1.0) u = 0.0;
      c[d - 2] = u;
    }
    for (int j = 0; j < d - 1; ++j) cube[j][i] = c[j];
  }
  return maxRadius;
}

/// Dispatch to the exact or fast lane core for `n` points starting at
/// `pts`, writing the radius lane and d-1 cube lanes. Returns the max
/// radius.
double polarLanesCore(const Point* pts, std::size_t n, const double* o, int d,
                      double* radius, double* const* cube, bool fast) {
  if (fast) {
    if (d == 2) return fastPolarLanes2D(pts, n, o, radius, cube[0]);
    if (d == 3) return fastPolarLanes3D(pts, n, o, radius, cube[0], cube[1]);
    return fastPolarLanesGeneric(pts, n, o, d, cube, radius);
  }
  if (d == 2) return exactPolarLanes2D(pts, n, o, radius, cube[0]);
  if (d == 3) return exactPolarLanes3D(pts, n, o, radius, cube[0], cube[1]);
  return exactPolarLanesGeneric(pts, n, o, d, cube, radius);
}

void writeAos(std::span<PolarCoords> aosOut, int d, const double* radius,
              double* const* cube) {
  for (std::size_t i = 0; i < aosOut.size(); ++i) {
    PolarCoords& out = aosOut[i];
    out.radius = radius[i];
    out.dim = d;
    for (int j = 0; j < d - 1; ++j)
      out.cube[static_cast<std::size_t>(j)] = cube[j][i];
    for (int j = d - 1; j < kMaxDim - 1; ++j)
      out.cube[static_cast<std::size_t>(j)] = 0.0;
  }
}

/// Point-major packed output: per point the radius, then the d-1 cube
/// coordinates.
void writePacked(std::span<double> packedOut, std::size_t offset,
                 std::size_t len, int d, const double* radius,
                 double* const* cube) {
  const auto stride = static_cast<std::size_t>(d);
  double* out = packedOut.data() + offset * stride;
  for (std::size_t i = 0; i < len; ++i, out += stride) {
    out[0] = radius[i];
    for (int j = 0; j < d - 1; ++j) out[1 + j] = cube[j][i];
  }
}

}  // namespace

double polarOfPointsBatch(std::span<const Point> points, const Point& origin,
                          const PolarLanes& lanes,
                          std::span<PolarCoords> aosOut) {
  const int d = origin.dim();
  OMT_CHECK(d >= 2 && d <= kMaxDim, "polar coordinates require dimension >= 2");
  const std::size_t n = points.size();
  checkLanes(lanes, d, n);
  OMT_CHECK(aosOut.empty() || aosOut.size() == n,
            "AoS output size mismatch");
  batchPointsCounter().add(static_cast<std::int64_t>(n));
  const bool fast = fast_math::enabled();
  if (fast) fastPointsCounter().add(static_cast<std::int64_t>(n));

  double* cube[kMaxDim - 1] = {};
  for (int j = 0; j < d - 1; ++j)
    cube[j] = lanes.cube[static_cast<std::size_t>(j)].data();
  const double maxRadius = polarLanesCore(
      points.data(), n, origin.coords().data(), d, lanes.radius.data(), cube,
      fast);
  if (!aosOut.empty()) writeAos(aosOut, d, lanes.radius.data(), cube);
  return maxRadius;
}

double radiusMaxBatch(std::span<const Point> points, const Point& origin) {
  const int d = origin.dim();
  OMT_CHECK(d >= 2 && d <= kMaxDim, "polar coordinates require dimension >= 2");
  const double* o = origin.coords().data();
  const std::size_t n = points.size();
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    OMT_CHECK(points[i].dim() == d, "dimension mismatch");
    if (i + kPrefetchAhead < n)
      __builtin_prefetch(&points[i + kPrefetchAhead]);
    const double* pc = points[i].coords().data();
    double v[kMaxDim];
    for (int j = 0; j < d; ++j) v[j] = pc[j] - o[j];
    double acc = 0.0;
    for (int j = 0; j < d; ++j) acc += v[j] * v[j];
    maxRadius = std::max(maxRadius, std::sqrt(acc));
  }
  return maxRadius;
}

double polarClassifyBatch(std::span<const Point> points, const Point& origin,
                          const ClassifyTable& table,
                          std::span<double> polarOut,
                          std::span<std::int32_t> ringOut,
                          std::span<std::uint64_t> cellOut) {
  const int d = origin.dim();
  OMT_CHECK(d == table.dim, "classify table dimension mismatch");
  OMT_CHECK(d >= 2 && d <= kMaxDim, "polar coordinates require dimension >= 2");
  const std::size_t n = points.size();
  OMT_CHECK(polarOut.size() == n * static_cast<std::size_t>(d),
            "packed polar output size mismatch");
  OMT_CHECK(ringOut.size() == n && cellOut.size() == n,
            "classification output size mismatch");
  batchPointsCounter().add(static_cast<std::int64_t>(n));
  const bool fast = fast_math::enabled();
  if (fast) fastPointsCounter().add(static_cast<std::int64_t>(n));

  double blockRadius[kBlock];
  double blockCube[kMaxDim - 1][kBlock];
  double* cube[kMaxDim - 1];
  for (int j = 0; j < kMaxDim - 1; ++j) cube[j] = blockCube[j];
  PolarLanes blockLanes;

  double maxRadius = 0.0;
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    const double blockMax =
        polarLanesCore(points.data() + start, len, origin.coords().data(), d,
                       blockRadius, cube, fast);
    maxRadius = std::max(maxRadius, blockMax);
    writePacked(polarOut, start, len, d, blockRadius, cube);
    blockLanes.radius = std::span<double>(blockRadius, len);
    for (int j = 0; j < d - 1; ++j)
      blockLanes.cube[static_cast<std::size_t>(j)] =
          std::span<double>(blockCube[j], len);
    ringCellBatch(table, blockLanes.radius, blockLanes,
                  ringOut.subspan(start, len), cellOut.subspan(start, len));
  }
  return maxRadius;
}

ClassifyTable makeClassifyTable(int dim, int rings, double outerRadius,
                                std::span<const double> ringRadii) {
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "grid dimension out of range");
  OMT_CHECK(rings >= 1 && rings <= 40, "ring count out of range");
  OMT_CHECK(outerRadius > 0.0, "outer radius must be positive");
  OMT_CHECK(ringRadii.size() == static_cast<std::size_t>(rings) + 1,
            "one boundary radius per ring required");
  ClassifyTable table;
  table.dim = dim;
  table.rings = rings;
  table.outerRadius = outerRadius;
  for (int i = 0; i <= rings; ++i) {
    table.ringRadius[static_cast<std::size_t>(i)] =
        ringRadii[static_cast<std::size_t>(i)];
    // 2^i as a double is exact for i <= 40.
    table.pow2[static_cast<std::size_t>(i)] =
        static_cast<double>(std::uint64_t{1} << i);
  }
  const int axes = dim - 1;
  for (int ring = 0; ring <= rings; ++ring) {
    for (int axis = 0; axis < axes; ++axis) {
      // Splits s = 0..ring-1 cycle through the axes; axis a is hit by
      // s = a, a + axes, a + 2*axes, ...
      table.splits[static_cast<std::size_t>(ring)]
                  [static_cast<std::size_t>(axis)] =
          static_cast<std::uint8_t>(
              ring > axis ? (ring - 1 - axis) / axes + 1 : 0);
    }
  }
  return table;
}

void ringCellBatch(const ClassifyTable& table, std::span<const double> radius,
                   const PolarLanes& lanes, std::span<std::int32_t> ringOut,
                   std::span<std::uint64_t> cellOut) {
  const std::size_t n = radius.size();
  const int rings = table.rings;
  const int axes = table.dim - 1;
  checkLanes(lanes, table.dim, n);
  OMT_CHECK(ringOut.size() == n && cellOut.size() == n,
            "classification output size mismatch");
  const double* boundary = table.ringRadius.data();

  if (axes == 1) {
    // d = 2 fast path: every split lands on the single (azimuth) axis, so
    // the cell address is just the first `ring` binary digits of u.
    const double* u0 = lanes.cube[0].data();
    for (std::size_t i = 0; i < n; ++i) {
      const double r = std::min(radius[i], table.outerRadius);
      // Descending scan = the canonical "smallest i with r <= r_i" index
      // (identical to PolarGrid::ringOf); uniform-in-volume point sets put
      // half the points in the outermost shell, so it ends in ~2 steps.
      int ring = rings;
      while (ring > 0 && r <= boundary[ring - 1]) --ring;
      const double scaled = u0[i] * table.pow2[static_cast<std::size_t>(ring)];
      const std::uint64_t cap = (std::uint64_t{1} << ring) - 1;
      const auto digits = static_cast<std::uint64_t>(scaled);
      ringOut[i] = ring;
      cellOut[i] = digits > cap ? cap : digits;
    }
    return;
  }

  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::min(radius[i], table.outerRadius);
    int ring = rings;
    while (ring > 0 && r <= boundary[ring - 1]) --ring;
    std::uint64_t cell = 0;
    if (ring > 0) {
      // Per-axis digit extraction: the scalar digit loop's doubling and
      // f - 1 steps are exact, so its bit sequence for axis a equals
      // floor(u_a * 2^n_a) (clamped to all-ones at u == 1). Extract every
      // axis's digits with one multiply, then interleave in split order.
      std::uint64_t bits[kMaxDim - 1];
      int rem[kMaxDim - 1];
      const auto& splits = table.splits[static_cast<std::size_t>(ring)];
      for (int a = 0; a < axes; ++a) {
        const int na = splits[static_cast<std::size_t>(a)];
        rem[a] = na;
        if (na == 0) {
          bits[a] = 0;
          continue;
        }
        const double scaled = lanes.cube[static_cast<std::size_t>(a)][i] *
                              table.pow2[static_cast<std::size_t>(na)];
        const std::uint64_t cap = (std::uint64_t{1} << na) - 1;
        const auto digits = static_cast<std::uint64_t>(scaled);
        bits[a] = digits > cap ? cap : digits;
      }
      int a = 0;
      for (int s = 0; s < ring; ++s) {
        cell = (cell << 1) | ((bits[a] >> --rem[a]) & 1);
        if (++a == axes) a = 0;
      }
    }
    ringOut[i] = ring;
    cellOut[i] = cell;
  }
}

namespace {

/// Fast-math variant of the angular-cube inverse: closed forms for the
/// d = 2 / d = 3 angles, the table-hybrid quantile above, and the
/// fast periodic sincos for every cos/sin pair (theta mapped to turns —
/// theta/2pi is exact to a rounding and the sincos contract is absolute).
void angularCubeBatchFast(int dim, const Point& origin,
                          std::span<const double> radius,
                          const PolarLanes& cube, std::span<Point> out) {
  const std::size_t n = radius.size();
  const double* o = origin.coords().data();
  const std::size_t azAxis = static_cast<std::size_t>(dim - 2);
  double sinPhi[kBlock];
  double cosPhi[kBlock];
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    fast_math::fastSinCosTwoPiBatch(cube.cube[azAxis].subspan(start, len),
                                    std::span<double>(sinPhi, len),
                                    std::span<double>(cosPhi, len));
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t idx = start + i;
      if (radius[idx] == 0.0) {
        out[idx] = origin;
        continue;
      }
      double u[kMaxDim];
      double sinProduct = 1.0;
      for (int j = 0; j < dim - 2; ++j) {
        const double uj = cube.cube[static_cast<std::size_t>(j)][idx];
        double cosT;
        double sinT;
        if (dim - 2 - j == 1) {
          // k = 1 closed form: cos(theta) = 1 - 2u exactly, sin from the
          // complement product (both factors exact or one rounding).
          cosT = 1.0 - 2.0 * uj;
          sinT = 2.0 * std::sqrt(uj * (1.0 - uj));
        } else {
          const double theta =
              fast_math::fastSinPowerQuantile(dim - 2 - j, uj);
          fast_math::fastSinCosTwoPi(theta * kInvTwoPi, sinT, cosT);
        }
        u[j] = sinProduct * cosT;
        sinProduct *= sinT;
      }
      u[dim - 2] = sinProduct * cosPhi[i];
      u[dim - 1] = sinProduct * sinPhi[i];
      double coords[kMaxDim];
      for (int j = 0; j < dim; ++j) coords[j] = o[j] + radius[idx] * u[j];
      out[idx] = Point(std::span<const double>(coords,
                                               static_cast<std::size_t>(dim)));
    }
  }
}

}  // namespace

void angularCubeBatch(int dim, const Point& origin,
                      std::span<const double> radius, const PolarLanes& cube,
                      std::span<Point> out) {
  OMT_CHECK(origin.dim() == dim, "dimension mismatch");
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "dimension out of range");
  const std::size_t n = radius.size();
  OMT_CHECK(out.size() == n, "output size mismatch");
  for (int j = 0; j < dim - 1; ++j) {
    OMT_CHECK(cube.cube[static_cast<std::size_t>(j)].size() == n,
              "cube lane size mismatch");
  }
  if (fast_math::enabled()) {
    fastPointsCounter().add(static_cast<std::int64_t>(n));
    angularCubeBatchFast(dim, origin, radius, cube, out);
    return;
  }
  const double* o = origin.coords().data();
  for (std::size_t i = 0; i < n; ++i) {
    if (radius[i] == 0.0) {
      out[i] = origin;
      continue;
    }
    // Mirrors directionFromCube + fromPolar: quantile cascade, azimuth,
    // then per-coordinate origin + radius * direction.
    double u[kMaxDim];
    double sinProduct = 1.0;
    for (int j = 0; j < dim - 2; ++j) {
      const double theta = sinPowerQuantileTabled(
          dim - 2 - j, cube.cube[static_cast<std::size_t>(j)][i]);
      u[j] = sinProduct * std::cos(theta);
      sinProduct *= std::sin(theta);
    }
    const double phi =
        kTwoPi * cube.cube[static_cast<std::size_t>(dim - 2)][i];
    u[dim - 2] = sinProduct * std::cos(phi);
    u[dim - 1] = sinProduct * std::sin(phi);
    double coords[kMaxDim];
    for (int j = 0; j < dim; ++j) coords[j] = o[j] + radius[i] * u[j];
    out[i] = Point(std::span<const double>(coords,
                                           static_cast<std::size_t>(dim)));
  }
}

Point directionFromCubeTabled(const std::array<double, kMaxDim - 1>& cube,
                              int dim) {
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "dimension out of range");
  Point u(dim);
  double sinProduct = 1.0;
  if (fast_math::enabled()) {
    for (int j = 0; j < dim - 2; ++j) {
      const double uj = cube[static_cast<std::size_t>(j)];
      double cosT;
      double sinT;
      if (dim - 2 - j == 1) {
        cosT = 1.0 - 2.0 * uj;
        sinT = 2.0 * std::sqrt(uj * (1.0 - uj));
      } else {
        const double theta = fast_math::fastSinPowerQuantile(dim - 2 - j, uj);
        fast_math::fastSinCosTwoPi(theta * kInvTwoPi, sinT, cosT);
      }
      u[j] = sinProduct * cosT;
      sinProduct *= sinT;
    }
    double sinPhi;
    double cosPhi;
    fast_math::fastSinCosTwoPi(cube[static_cast<std::size_t>(dim - 2)], sinPhi,
                               cosPhi);
    u[dim - 2] = sinProduct * cosPhi;
    u[dim - 1] = sinProduct * sinPhi;
    return u;
  }
  for (int j = 0; j < dim - 2; ++j) {
    const double theta =
        sinPowerQuantileTabled(dim - 2 - j, cube[static_cast<std::size_t>(j)]);
    u[j] = sinProduct * std::cos(theta);
    sinProduct *= std::sin(theta);
  }
  const double phi = kTwoPi * cube[static_cast<std::size_t>(dim - 2)];
  u[dim - 2] = sinProduct * std::cos(phi);
  u[dim - 1] = sinProduct * std::sin(phi);
  return u;
}

Point fromPolarTabled(const PolarCoords& polar, const Point& origin) {
  OMT_CHECK(polar.dim == origin.dim(), "dimension mismatch");
  if (polar.radius == 0.0) return origin;
  return origin + polar.radius * directionFromCubeTabled(polar.cube, polar.dim);
}

}  // namespace omt::kernels
