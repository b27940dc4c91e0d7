// Bitwise-identity contract of the batched kernel layer (omt/kernels):
// every kernel must return exactly the doubles of the scalar geometry it
// mirrors (toPolar, ringOf/cellOf, fromPolar, sinPowerQuantile), which
// these tests use as the oracle, for the pinned golden fingerprints and
// the byte-identical determinism contract to hold.

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "omt/geometry/angular_cube.h"
#include "omt/geometry/point.h"
#include "omt/geometry/sin_power_integral.h"
#include "omt/grid/polar_grid.h"
#include "omt/kernels/polar_batch.h"
#include "omt/kernels/sin_power_table.h"
#include "omt/obs/metrics.h"
#include "omt/obs/obs.h"
#include "omt/parallel/scratch_arena.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"

namespace omt {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(SinPowerTableTest, TableStoresCanonicalGridQuantiles) {
  for (int k = 2; k <= kernels::kMaxTabledPower; ++k) {
    const auto table = kernels::quantileTable(k);
    ASSERT_EQ(table.size(),
              static_cast<std::size_t>(
                  sin_power_detail::kQuantileGridIntervals + 1));
    // Spot-check against the canonical solver, including both endpoints.
    for (const int j : {0, 1, 7, 128, 512, 1000, 1023, 1024}) {
      EXPECT_EQ(bits(table[static_cast<std::size_t>(j)]),
                bits(sin_power_detail::gridQuantile(k, j)))
          << "k=" << k << " j=" << j;
    }
    // The registry hands out the same process-lifetime table every time.
    EXPECT_EQ(table.data(), kernels::quantileTable(k).data());
  }
}

TEST(SinPowerTableTest, TabledQuantileBitwiseEqualsScalarOn10kDraws) {
  Rng rng(0x5eed0001);
  for (int k = 2; k <= kernels::kMaxTabledPower; ++k) {
    for (int i = 0; i < 10000; ++i) {
      const double u = rng.uniform();
      EXPECT_EQ(bits(kernels::sinPowerQuantileTabled(k, u)),
                bits(sinPowerQuantile(k, u)))
          << "k=" << k << " u=" << u;
    }
    // Endpoints, tails, and grid-boundary u-values (interval switch points).
    for (const double u : {0.0, 1e-300, 1e-16, 1e-12, 1e-8, 1.0 / 1024.0,
                           2.0 / 1024.0, 0.5, 1023.0 / 1024.0, 1.0 - 1e-12,
                           1.0 - 1e-16, 1.0}) {
      EXPECT_EQ(bits(kernels::sinPowerQuantileTabled(k, u)),
                bits(sinPowerQuantile(k, u)))
          << "k=" << k << " u=" << u;
    }
  }
}

TEST(SinPowerTableTest, FallbackPathsMatchScalarToo) {
  // k beyond the table range falls back (and still matches bitwise), and
  // k = 0, 1 invert in closed form.
  Rng rng(0x5eed0002);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform();
    EXPECT_EQ(bits(kernels::sinPowerQuantileTabled(7, u)),
              bits(sinPowerQuantile(7, u)));
    EXPECT_EQ(bits(kernels::sinPowerQuantileTabled(0, u)),
              bits(sinPowerQuantile(0, u)));
    EXPECT_EQ(bits(kernels::sinPowerQuantileTabled(1, u)),
              bits(sinPowerQuantile(1, u)));
  }
}

TEST(SinPowerTableTest, InvertCountersAdvanceOnTabledCalls) {
  const bool obsSaved = obs::enabled();
  obs::setEnabled(true);
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& calls = registry.counter("omt_kernel_invert_calls_total");
  obs::Counter& iters = registry.counter("omt_kernel_invert_iterations_total");
  obs::Counter& hits = registry.counter("omt_kernel_table_hits_total");
  const std::int64_t calls0 = calls.value();
  const std::int64_t iters0 = iters.value();
  const std::int64_t hits0 = hits.value();
  Rng rng(0x5eed0004);
  constexpr int kDraws = 256;
  for (int i = 0; i < kDraws; ++i)
    kernels::sinPowerQuantileTabled(3, rng.uniform());
  EXPECT_EQ(calls.value() - calls0, kDraws);
  EXPECT_EQ(hits.value() - hits0, kDraws);
  // The point of the table: the seeded Newton converges in a handful of
  // steps (a few quadratic steps plus near-ulp safeguard wiggle), versus
  // the cold path's two full-range solves of dozens of iterations each.
  const double perCall =
      static_cast<double>(iters.value() - iters0) / kDraws;
  EXPECT_GT(perCall, 0.0);
  EXPECT_LT(perCall, 16.0);
  obs::setEnabled(obsSaved);
}

class PolarBatchDims : public ::testing::TestWithParam<int> {};

std::vector<Point> randomCloud(Rng& rng, int d, std::int64_t n) {
  std::vector<Point> points = sampleDiskWithCenterSource(rng, n, d);
  // Exercise the degenerate branches: a second copy of the origin and a
  // point whose azimuth wraps (negative angle -> phi/2pi near 1).
  points[1] = points[0];
  return points;
}

TEST_P(PolarBatchDims, PolarOfPointsBatchBitwiseEqualsToPolar) {
  const int d = GetParam();
  Rng rng(0x5eed0100 + static_cast<std::uint64_t>(d));
  const std::vector<Point> points = randomCloud(rng, d, 512);
  const Point& origin = points[0];
  const std::size_t n = points.size();

  std::vector<double> radius(n);
  std::vector<std::vector<double>> lanes(
      static_cast<std::size_t>(d - 1), std::vector<double>(n));
  kernels::PolarLanes view;
  view.radius = radius;
  for (int j = 0; j < d - 1; ++j)
    view.cube[static_cast<std::size_t>(j)] = lanes[static_cast<std::size_t>(j)];
  std::vector<PolarCoords> aos(n);
  const double batchMax =
      kernels::polarOfPointsBatch(points, origin, view, aos);

  double scalarMax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const PolarCoords expect = toPolar(points[i], origin);
    scalarMax = std::max(scalarMax, expect.radius);
    ASSERT_EQ(bits(radius[i]), bits(expect.radius)) << "i=" << i;
    ASSERT_EQ(bits(aos[i].radius), bits(expect.radius)) << "i=" << i;
    ASSERT_EQ(aos[i].dim, d);
    for (int j = 0; j < d - 1; ++j) {
      ASSERT_EQ(bits(lanes[static_cast<std::size_t>(j)][i]),
                bits(expect.cube[static_cast<std::size_t>(j)]))
          << "i=" << i << " axis=" << j;
      ASSERT_EQ(bits(aos[i].cube[static_cast<std::size_t>(j)]),
                bits(expect.cube[static_cast<std::size_t>(j)]))
          << "i=" << i << " axis=" << j;
    }
  }
  EXPECT_EQ(bits(batchMax), bits(scalarMax));
}

TEST_P(PolarBatchDims, RingCellBatchBitwiseEqualsScalarClassify) {
  const int d = GetParam();
  Rng rng(0x5eed0200 + static_cast<std::uint64_t>(d));
  const std::vector<Point> points = randomCloud(rng, d, 512);
  const Point& origin = points[0];
  const std::size_t n = points.size();

  std::vector<PolarCoords> polar(n);
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    polar[i] = toPolar(points[i], origin);
    maxRadius = std::max(maxRadius, polar[i].radius);
  }
  if (maxRadius == 0.0) maxRadius = 1.0;

  for (const int rings : {1, 3, 9}) {
    const PolarGrid grid(d, rings, maxRadius);
    std::vector<double> ringRadii(static_cast<std::size_t>(rings) + 1);
    for (int i = 0; i <= rings; ++i)
      ringRadii[static_cast<std::size_t>(i)] = grid.ringRadius(i);
    const kernels::ClassifyTable table =
        kernels::makeClassifyTable(d, rings, maxRadius, ringRadii);

    std::vector<double> radius(n);
    std::vector<std::vector<double>> lanes(
        static_cast<std::size_t>(d - 1), std::vector<double>(n));
    kernels::PolarLanes view;
    view.radius = radius;
    for (int j = 0; j < d - 1; ++j) {
      view.cube[static_cast<std::size_t>(j)] =
          lanes[static_cast<std::size_t>(j)];
      for (std::size_t i = 0; i < n; ++i)
        lanes[static_cast<std::size_t>(j)][i] =
            polar[i].cube[static_cast<std::size_t>(j)];
    }
    for (std::size_t i = 0; i < n; ++i) radius[i] = polar[i].radius;

    std::vector<std::int32_t> ringOut(n);
    std::vector<std::uint64_t> cellOut(n);
    kernels::ringCellBatch(table, radius, view, ringOut, cellOut);

    for (std::size_t i = 0; i < n; ++i) {
      const int expectRing = grid.ringOf(std::min(polar[i].radius, maxRadius));
      ASSERT_EQ(ringOut[i], expectRing) << "rings=" << rings << " i=" << i;
      ASSERT_EQ(cellOut[i], grid.cellOf(polar[i], expectRing))
          << "rings=" << rings << " i=" << i;
    }
  }
}

TEST_P(PolarBatchDims, AngularCubeBatchBitwiseEqualsFromPolar) {
  const int d = GetParam();
  Rng rng(0x5eed0300 + static_cast<std::uint64_t>(d));
  Point origin(d);
  for (int j = 0; j < d; ++j) origin[j] = rng.uniform(-1.0, 1.0);

  constexpr std::size_t kBatch = 256;
  std::vector<double> radius(kBatch);
  std::vector<std::vector<double>> lanes(
      static_cast<std::size_t>(d - 1), std::vector<double>(kBatch));
  std::vector<PolarCoords> reference(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    PolarCoords& pc = reference[i];
    pc.dim = d;
    pc.radius = i == 0 ? 0.0 : rng.uniform(0.0, 2.0);  // radius-0 branch
    for (int j = 0; j < d - 1; ++j) {
      double u = rng.uniform();
      if (i == 1) u = 1.0;  // upper cube boundary
      if (i == 2) u = 0.0;
      pc.cube[static_cast<std::size_t>(j)] = u;
      lanes[static_cast<std::size_t>(j)][i] = u;
    }
    radius[i] = pc.radius;
  }
  kernels::PolarLanes view;
  view.radius = radius;
  for (int j = 0; j < d - 1; ++j)
    view.cube[static_cast<std::size_t>(j)] = lanes[static_cast<std::size_t>(j)];

  std::vector<Point> out(kBatch);
  kernels::angularCubeBatch(d, origin, radius, view, out);

  for (std::size_t i = 0; i < kBatch; ++i) {
    const Point expect = fromPolar(reference[i], origin);
    ASSERT_EQ(out[i].dim(), d);
    for (int j = 0; j < d; ++j)
      ASSERT_EQ(bits(out[i][j]), bits(expect[j])) << "i=" << i << " j=" << j;
    const Point viaScalarTabled = kernels::fromPolarTabled(reference[i], origin);
    for (int j = 0; j < d; ++j)
      ASSERT_EQ(bits(viaScalarTabled[j]), bits(expect[j]))
          << "i=" << i << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensions, PolarBatchDims,
                         ::testing::Values(2, 3, 5, 8));

TEST(ScratchArenaTest, AllocationsAreAlignedAndScoped) {
  ScratchArena arena;
  {
    ScratchArena::Scope scope(arena);
    const std::span<double> a = arena.alloc<double>(100);
    const std::span<std::uint8_t> b = arena.alloc<std::uint8_t>(3);
    const std::span<double> c = arena.alloc<double>(1000);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) %
                  ScratchArena::kAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) %
                  ScratchArena::kAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) %
                  ScratchArena::kAlignment,
              0u);
    // Distinct live allocations never overlap.
    EXPECT_GE(reinterpret_cast<std::uintptr_t>(c.data()),
              reinterpret_cast<std::uintptr_t>(b.data()) + b.size_bytes());
    a[0] = 1.0;
    c[999] = 2.0;
  }
  EXPECT_GT(arena.capacityBytes(), 0u);
  EXPECT_GE(arena.highWaterBytes(),
            100 * sizeof(double) + 3 + 1000 * sizeof(double));
}

TEST(ScratchArenaTest, SteadyStateStopsGrowing) {
  ScratchArena arena;
  auto build = [&arena] {
    ScratchArena::Scope scope(arena);
    for (int round = 0; round < 4; ++round) {
      ScratchArena::Scope inner(arena);
      const std::span<double> lane = arena.alloc<double>(5000);
      lane[0] = static_cast<double>(round);
    }
    const std::span<std::uint64_t> ids = arena.alloc<std::uint64_t>(4096);
    ids[0] = 7;
  };
  build();  // warm-up may grow and then consolidates to one block
  build();
  const std::int64_t grownAfterWarmup = arena.growCount();
  const std::size_t capacity = arena.capacityBytes();
  for (int i = 0; i < 16; ++i) build();
  EXPECT_EQ(arena.growCount(), grownAfterWarmup);
  EXPECT_EQ(arena.capacityBytes(), capacity);
}

TEST(ScratchArenaTest, SpansSurviveLaterGrowth) {
  ScratchArena arena;
  ScratchArena::Scope scope(arena);
  const std::span<double> early = arena.alloc<double>(8);
  for (int i = 0; i < 8; ++i) early[i] = 3.25 * i;
  // Force several new blocks; `early` must stay intact (block list, not
  // a reallocating buffer).
  for (int i = 0; i < 6; ++i) arena.alloc<double>(1 << (12 + i));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(early[i], 3.25 * i);
}

TEST(ScratchArenaTest, WorkerArenaIsPerThreadAndReusable) {
  ScratchArena& a = workerArena();
  ScratchArena& b = workerArena();
  EXPECT_EQ(&a, &b);
  ScratchArena::Scope scope(a);
  const std::span<double> lane = a.alloc<double>(16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lane.data()) %
                ScratchArena::kAlignment,
            0u);
}

}  // namespace
}  // namespace omt
