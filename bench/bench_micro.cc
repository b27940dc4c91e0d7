// Micro-benchmarks (google-benchmark) for the hot paths: polar conversion,
// grid assignment, tree construction at several sizes and degrees, the
// standalone bisection, metrics, and the event-driven simulator.
#include <benchmark/benchmark.h>

#include "omt/baselines/delaunay.h"
#include "omt/bisection/bisection.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/geometry/enclosing_ball.h"
#include "omt/geometry/sin_power_integral.h"
#include "omt/grid/assignment.h"
#include "omt/grid/polar_grid.h"
#include "omt/kernels/polar_batch.h"
#include "omt/kernels/sin_power_table.h"
#include "omt/parallel/scratch_arena.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"
#include "omt/sim/multicast_sim.h"
#include "omt/spatial/kd_tree.h"
#include "omt/tree/metrics.h"

namespace {

using namespace omt;

std::vector<Point> diskPoints(std::int64_t n, int dim) {
  Rng rng(42);
  return sampleDiskWithCenterSource(rng, n, dim);
}

void BM_ToPolar(benchmark::State& state) {
  const auto points = diskPoints(1024, static_cast<int>(state.range(0)));
  const Point origin(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(toPolar(points[i], origin));
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_ToPolar)->Arg(2)->Arg(3)->Arg(8);

void BM_GridAssignment(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assignToGrid(points, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridAssignment)->Arg(1000)->Arg(100000);

void BM_PolarGridTree(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  const int degree = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buildPolarGridTree(points, 0, {.maxOutDegree = degree}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PolarGridTree)
    ->Args({1000, 6})
    ->Args({100000, 6})
    ->Args({100000, 2});

void BM_PolarGridTree3D(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buildPolarGridTree(points, 0, {.maxOutDegree = 10}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PolarGridTree3D)->Arg(100000);

void BM_BisectionTree(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buildBisectionTree(points, 0, {.maxOutDegree = 4}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BisectionTree)->Arg(1000)->Arg(30000);

void BM_ComputeMetrics(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  const auto result = buildPolarGridTree(points, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeMetrics(result.tree, points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeMetrics)->Arg(100000);

void BM_SimulateParallel(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  const auto result = buildPolarGridTree(points, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulateMulticast(result.tree, points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateParallel)->Arg(100000);

void BM_SimulateSerialized(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  const auto result = buildPolarGridTree(points, 0);
  SimOptions options;
  options.model = TransmissionModel::kSerialized;
  options.serializationInterval = 0.001;
  options.childOrder = ChildOrder::kDeepestFirst;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulateMulticast(result.tree, points, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateSerialized)->Arg(100000);

void BM_KdTreeNearest(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  KdTree tree(points);
  for (NodeId i = 0; i < tree.size(); i += 2) tree.setActive(i, true);
  Rng rng(7);
  std::vector<Point> queries;
  for (int i = 0; i < 512; ++i) queries.push_back(sampleUnitBall(rng, 2));
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.nearestActive(queries[q]));
    q = (q + 1) % queries.size();
  }
}
BENCHMARK(BM_KdTreeNearest)->Arg(100000);

void BM_SmallestEnclosingBall(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smallestEnclosingBall(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SmallestEnclosingBall)->Arg(100000);

void BM_DelaunayTriangulate(benchmark::State& state) {
  const auto points = diskPoints(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delaunayTriangulate(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DelaunayTriangulate)->Arg(2000);

// --- kernel layer: table-seeded inversion and SoA batch transforms --------

void BM_SinPowerQuantileCold(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(99);
  std::vector<double> us(4096);
  for (double& u : us) u = rng.uniform();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sinPowerQuantile(k, us[i]));
    i = (i + 1) % us.size();
  }
}
BENCHMARK(BM_SinPowerQuantileCold)->Arg(2)->Arg(6);

void BM_SinPowerQuantileTabled(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  kernels::quantileTable(k);  // build outside the timed region
  Rng rng(99);
  std::vector<double> us(4096);
  for (double& u : us) u = rng.uniform();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::sinPowerQuantileTabled(k, us[i]));
    i = (i + 1) % us.size();
  }
}
BENCHMARK(BM_SinPowerQuantileTabled)->Arg(2)->Arg(6);

void BM_ToPolarBatchSoA(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto points = diskPoints(65536, dim);
  const Point& origin = points[0];
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  kernels::PolarLanes lanes;
  lanes.radius = arena.alloc<double>(points.size());
  for (int j = 0; j < dim - 1; ++j)
    lanes.cube[static_cast<std::size_t>(j)] =
        arena.alloc<double>(points.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::polarOfPointsBatch(points, origin, lanes, {}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_ToPolarBatchSoA)->Arg(2)->Arg(3)->Arg(8);

void BM_ToPolarLoopAoS(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto points = diskPoints(65536, dim);
  const Point& origin = points[0];
  std::vector<PolarCoords> out(points.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < points.size(); ++i)
      out[i] = toPolar(points[i], origin);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_ToPolarLoopAoS)->Arg(2)->Arg(3)->Arg(8);

void BM_PointToCellScalar(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto points = diskPoints(65536, dim);
  const Point& origin = points[0];
  std::vector<PolarCoords> polar(points.size());
  double maxRadius = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    polar[i] = toPolar(points[i], origin);
    maxRadius = std::max(maxRadius, polar[i].radius);
  }
  const PolarGrid grid(dim, 17, maxRadius);
  std::vector<std::int32_t> ring(points.size());
  std::vector<std::uint64_t> cell(points.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const int r = grid.ringOf(std::min(polar[i].radius, maxRadius));
      ring[i] = r;
      cell[i] = grid.cellOf(polar[i], r);
    }
    benchmark::DoNotOptimize(cell.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_PointToCellScalar)->Arg(2)->Arg(3);

void BM_PointToCellKernel(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto points = diskPoints(65536, dim);
  const Point& origin = points[0];
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  kernels::PolarLanes lanes;
  lanes.radius = arena.alloc<double>(points.size());
  for (int j = 0; j < dim - 1; ++j)
    lanes.cube[static_cast<std::size_t>(j)] =
        arena.alloc<double>(points.size());
  const double maxRadius =
      kernels::polarOfPointsBatch(points, origin, lanes, {});
  const PolarGrid grid(dim, 17, maxRadius);
  std::vector<double> ringRadii(18);
  for (int i = 0; i <= 17; ++i)
    ringRadii[static_cast<std::size_t>(i)] = grid.ringRadius(i);
  const kernels::ClassifyTable table =
      kernels::makeClassifyTable(dim, 17, maxRadius, ringRadii);
  std::vector<std::int32_t> ring(points.size());
  std::vector<std::uint64_t> cell(points.size());
  for (auto _ : state) {
    kernels::ringCellBatch(table, lanes.radius, lanes, ring, cell);
    benchmark::DoNotOptimize(cell.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_PointToCellKernel)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
