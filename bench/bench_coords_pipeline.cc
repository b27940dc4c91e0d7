// Extension bench (the paper's stated future work): how mapping error
// affects tree quality. Hidden host positions generate "true" delays with
// lognormal stretch noise; GNP- and Vivaldi-style embeddings recover
// coordinates from the delays; Polar_Grid builds trees on the recovered
// coordinates; everything is evaluated on the TRUE delays. Shape to check:
// tree quality degrades gracefully with embedding error, and trees on
// recovered coordinates stay close to trees on the hidden truth.
//
// The run also times the batched coordinate kernels (omt/kernels) against
// the scalar point -> cell pipeline they replace — single-threaded, with
// bitwise verification of the outputs — and writes the breakdown to
// BENCH_kernels.json at the repo root. --kernels-only runs just that
// section (the CI perf-smoke mode); --enforce-kernel-speedup exits
// non-zero if the kernel path is >10% slower than the scalar path.
#include <bit>
#include <cmath>

#include "common.h"
#include "omt/coords/embedding.h"
#include "omt/geometry/sin_power_integral.h"
#include "omt/grid/polar_grid.h"
#include "omt/kernels/polar_batch.h"
#include "omt/kernels/sin_power_table.h"
#include "omt/parallel/scratch_arena.h"

namespace omt::bench {
namespace {

struct KernelTimes {
  double scalarPolar = 0.0;
  double kernelPolar = 0.0;
  double scalarClassify = 0.0;
  double kernelClassify = 0.0;
  double scalarTotal() const { return scalarPolar + scalarClassify; }
  double kernelTotal() const { return kernelPolar + kernelClassify; }
};

/// Single-threaded A/B of the point -> cell pipeline at dimension `dim`:
/// scalar (toPolar + ringOf/cellOf per point) vs batched kernels
/// (polarOfPointsBatch + ringCellBatch over SoA lanes). Outputs are
/// verified bitwise identical before any number is reported.
KernelTimes timePointToCell(std::int64_t n, int dim, int repeats,
                            BenchJsonWriter& json) {
  Rng rng(deriveSeed(7100, static_cast<std::uint64_t>(dim)));
  const std::vector<Point> points = sampleDiskWithCenterSource(rng, n, dim);
  const Point& origin = points[0];
  const auto un = static_cast<std::size_t>(n);

  // --- scalar pass 1: polar conversion ------------------------------------
  std::vector<PolarCoords> scalarPolar(un);
  KernelTimes times;
  double maxRadius = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    double localMax = 0.0;
    for (std::size_t i = 0; i < un; ++i) {
      scalarPolar[i] = toPolar(points[i], origin);
      localMax = std::max(localMax, scalarPolar[i].radius);
    }
    times.scalarPolar += watch.seconds();
    maxRadius = localMax;
  }
  if (maxRadius == 0.0) maxRadius = 1.0;
  const int rings =
      std::min<int>(PolarGrid::kMaxRings,
                    std::max<int>(1, static_cast<int>(std::log2(n)) + 1));
  const PolarGrid grid(dim, rings, maxRadius);

  // --- scalar pass 2: classification --------------------------------------
  std::vector<std::int32_t> scalarRing(un);
  std::vector<std::uint64_t> scalarCell(un);
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    for (std::size_t i = 0; i < un; ++i) {
      const int ring =
          grid.ringOf(std::min(scalarPolar[i].radius, maxRadius));
      scalarRing[i] = ring;
      scalarCell[i] = grid.cellOf(scalarPolar[i], ring);
    }
    times.scalarClassify += watch.seconds();
  }

  // --- kernel passes over arena-backed SoA lanes ---------------------------
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  kernels::PolarLanes lanes;
  lanes.radius = arena.alloc<double>(un);
  for (int j = 0; j < dim - 1; ++j)
    lanes.cube[static_cast<std::size_t>(j)] = arena.alloc<double>(un);
  std::vector<PolarCoords> kernelPolar(un);
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    kernels::polarOfPointsBatch(points, origin, lanes, kernelPolar);
    times.kernelPolar += watch.seconds();
  }

  std::vector<double> ringRadii(static_cast<std::size_t>(rings) + 1);
  for (int i = 0; i <= rings; ++i)
    ringRadii[static_cast<std::size_t>(i)] = grid.ringRadius(i);
  std::vector<std::int32_t> kernelRing(un);
  std::vector<std::uint64_t> kernelCell(un);
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    const kernels::ClassifyTable table =
        kernels::makeClassifyTable(dim, rings, maxRadius, ringRadii);
    kernels::ringCellBatch(table, lanes.radius, lanes, kernelRing, kernelCell);
    times.kernelClassify += watch.seconds();
  }

  // --- bitwise verification ------------------------------------------------
  for (std::size_t i = 0; i < un; ++i) {
    OMT_CHECK(std::bit_cast<std::uint64_t>(kernelPolar[i].radius) ==
                  std::bit_cast<std::uint64_t>(scalarPolar[i].radius),
              "kernel polar radius diverged from scalar");
    for (int j = 0; j < dim - 1; ++j) {
      OMT_CHECK(
          std::bit_cast<std::uint64_t>(
              kernelPolar[i].cube[static_cast<std::size_t>(j)]) ==
              std::bit_cast<std::uint64_t>(
                  scalarPolar[i].cube[static_cast<std::size_t>(j)]),
          "kernel polar cube diverged from scalar");
    }
    OMT_CHECK(kernelRing[i] == scalarRing[i] && kernelCell[i] == scalarCell[i],
              "kernel classification diverged from scalar");
  }

  const double perPoint = 1e9 / (static_cast<double>(n) * repeats);
  const auto emit = [&](const std::string& stage, double scalarSec,
                        double kernelSec) {
    json.beginRow();
    json.field("dim", static_cast<std::int64_t>(dim));
    json.field("n", n);
    json.field("stage", stage);
    json.field("scalar_ns_per_point", scalarSec * perPoint);
    json.field("kernel_ns_per_point", kernelSec * perPoint);
    json.field("speedup", scalarSec / kernelSec);
    json.endRow();
  };
  emit("polar", times.scalarPolar, times.kernelPolar);
  emit("classify", times.scalarClassify, times.kernelClassify);
  emit("point_to_cell", times.scalarTotal(), times.kernelTotal());
  return times;
}

/// Table-seeded vs cold quantile inversion (the per-call cost the tables
/// remove), reported per call.
void timeQuantileInversion(BenchJsonWriter& json) {
  constexpr int kCalls = 20000;
  constexpr int k = 2;  // the 3D polar-angle power, the common hot case
  std::vector<double> us(kCalls);
  Rng rng(7200);
  for (double& u : us) u = rng.uniform();

  double sink = 0.0;
  Stopwatch cold;
  for (const double u : us) sink += sinPowerQuantile(k, u);
  const double coldSec = cold.seconds();
  Stopwatch tabled;
  for (const double u : us) sink += kernels::sinPowerQuantileTabled(k, u);
  const double tabledSec = tabled.seconds();
  OMT_CHECK(sink != -1.0, "keep the compiler from eliding the loops");

  json.beginRow();
  json.field("dim", static_cast<std::int64_t>(3));
  json.field("n", static_cast<std::int64_t>(kCalls));
  json.field("stage", std::string("sin_power_quantile"));
  json.field("scalar_ns_per_point", coldSec * 1e9 / kCalls);
  json.field("kernel_ns_per_point", tabledSec * 1e9 / kCalls);
  json.field("speedup", coldSec / tabledSec);
  json.endRow();
}

/// Thread counts for the fused sweep: 1, powers of two, and the requested
/// maximum. --threads 1 (the default) keeps just the single-thread row.
std::vector<int> threadSweep(int maxThreads) {
  std::vector<int> sweep{1};
  for (int t = 2; t < maxThreads; t *= 2) sweep.push_back(t);
  if (maxThreads > 1) sweep.push_back(maxThreads);
  return sweep;
}

/// Times the fused polar+classify+count kernel (polarClassifyBatch, the
/// assignToGrid front half) against the PR 5 unfused two-pass kernel path,
/// across the --threads sweep, and — when compiled in — with the fast-math
/// tier on. Before any timing, one single-thread exact fused run is
/// verified bit for bit against the unfused path: its packed polar output
/// coordinate by coordinate against the AoS structs, and its ring and cell
/// per point. Returns true when the exact fused path is not >10% slower
/// than the unfused path it replaces.
bool timeFusedPointToCell(std::int64_t n, int dim, int repeats, int maxThreads,
                          BenchJsonWriter& json, TextTable& out) {
  Rng rng(deriveSeed(7300, static_cast<std::uint64_t>(dim)));
  const std::vector<Point> points = sampleDiskWithCenterSource(rng, n, dim);
  const Point& origin = points[0];
  const auto un = static_cast<std::size_t>(n);

  double maxRadius = kernels::radiusMaxBatch(points, origin);
  if (maxRadius == 0.0) maxRadius = 1.0;
  const int rings =
      std::min<int>(PolarGrid::kMaxRings,
                    std::max<int>(1, static_cast<int>(std::log2(n)) + 1));
  const PolarGrid grid(dim, rings, maxRadius);
  std::vector<double> ringRadii(static_cast<std::size_t>(rings) + 1);
  for (int i = 0; i <= rings; ++i)
    ringRadii[static_cast<std::size_t>(i)] = grid.ringRadius(i);
  const kernels::ClassifyTable table =
      kernels::makeClassifyTable(dim, rings, maxRadius, ringRadii);

  // Unfused single-thread baseline: the PR 5 two-pass kernel path (polar
  // into full SoA lanes, then classify off the lanes).
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  kernels::PolarLanes lanes;
  lanes.radius = arena.alloc<double>(un);
  for (int j = 0; j < dim - 1; ++j)
    lanes.cube[static_cast<std::size_t>(j)] = arena.alloc<double>(un);
  std::vector<PolarCoords> basePolar(un);
  std::vector<std::int32_t> baseRing(un);
  std::vector<std::uint64_t> baseCell(un);
  double unfusedSec = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    kernels::polarOfPointsBatch(points, origin, lanes, basePolar);
    kernels::ringCellBatch(table, lanes.radius, lanes, baseRing, baseCell);
    unfusedSec += watch.seconds();
  }

  const auto stride = static_cast<std::size_t>(dim);
  std::vector<double> fusedPolar(un * stride);
  std::vector<std::int32_t> fusedRing(un);
  std::vector<std::uint64_t> fusedCell(un);
  const auto runFused = [&](int threads) {
    parallelForChunks(0, n, threads,
                      [&](std::int64_t lo, std::int64_t hi, int) {
                        const auto ulo = static_cast<std::size_t>(lo);
                        const auto len = static_cast<std::size_t>(hi - lo);
                        kernels::polarClassifyBatch(
                            std::span<const Point>(points).subspan(ulo, len),
                            origin, table,
                            std::span<double>(fusedPolar)
                                .subspan(ulo * stride, len * stride),
                            std::span<std::int32_t>(fusedRing)
                                .subspan(ulo, len),
                            std::span<std::uint64_t>(fusedCell)
                                .subspan(ulo, len));
                      });
  };

  // Exact mode is contract-bound to the unfused kernels to the bit.
  {
    const bool prev = kernels::fast_math::setEnabled(false);
    runFused(1);
    kernels::fast_math::setEnabled(prev);
  }
  for (std::size_t i = 0; i < un; ++i) {
    const double* packed = fusedPolar.data() + i * stride;
    OMT_CHECK(std::bit_cast<std::uint64_t>(packed[0]) ==
                  std::bit_cast<std::uint64_t>(basePolar[i].radius),
              "fused polar radius diverged from unfused");
    for (int j = 0; j < dim - 1; ++j) {
      OMT_CHECK(std::bit_cast<std::uint64_t>(packed[1 + j]) ==
                    std::bit_cast<std::uint64_t>(
                        basePolar[i].cube[static_cast<std::size_t>(j)]),
                "fused polar cube diverged from unfused");
    }
    OMT_CHECK(fusedRing[i] == baseRing[i] && fusedCell[i] == baseCell[i],
              "fused classification diverged from unfused");
  }

  const double perPoint = 1e9 / (static_cast<double>(n) * repeats);
  bool gateOk = true;
  for (const bool fast : {false, true}) {
    if (fast && !kernels::fast_math::compiledIn()) continue;
    const bool prev = kernels::fast_math::setEnabled(fast);
    const std::string stage =
        fast ? "fused_point_to_cell_fast_math" : "fused_point_to_cell";
    for (const int threads : threadSweep(maxThreads)) {
      double fusedSec = 0.0;
      for (int r = 0; r < repeats; ++r) {
        Stopwatch watch;
        runFused(threads);
        fusedSec += watch.seconds();
      }
      if (!fast && threads == 1 && fusedSec > 1.10 * unfusedSec)
        gateOk = false;
      json.beginRow();
      json.field("dim", static_cast<std::int64_t>(dim));
      json.field("n", n);
      json.field("stage", stage);
      json.field("threads", static_cast<std::int64_t>(threads));
      json.field("scalar_ns_per_point", unfusedSec * perPoint);
      json.field("kernel_ns_per_point", fusedSec * perPoint);
      json.field("speedup", unfusedSec / fusedSec);
      json.endRow();
      out.addRow({std::to_string(dim), stage + " (t=" + std::to_string(threads) + ")",
                  TextTable::num(unfusedSec * perPoint, 1),
                  TextTable::num(fusedSec * perPoint, 1),
                  TextTable::num(unfusedSec / fusedSec, 2) + "x"});
    }
    kernels::fast_math::setEnabled(prev);
  }
  return gateOk;
}

/// Returns true when the kernel path meets the "not >10% slower" gate.
bool runKernelSection(const Args& args) {
  const std::int64_t n = args.maxN.value_or(1000000);
  const int repeats = n <= 200000 ? 5 : 2;
  std::cout << "\nBatched kernel A/B (single-threaded, n = " << n
            << ", bitwise-verified):\n";
  BenchJsonWriter json(benchOutputPath("BENCH_kernels.json"), "kernels");
  TextTable table({"Dim", "Stage", "Scalar ns/pt", "Kernel ns/pt", "Speedup"});
  bool gateOk = true;
  for (const int dim : {2, 3}) {
    const KernelTimes t = timePointToCell(n, dim, repeats, json);
    const double perPoint = 1e9 / (static_cast<double>(n) * repeats);
    const auto addRow = [&](const std::string& stage, double s, double kk) {
      table.addRow({std::to_string(dim), stage, TextTable::num(s * perPoint, 1),
                    TextTable::num(kk * perPoint, 1),
                    TextTable::num(s / kk, 2) + "x"});
    };
    addRow("polar", t.scalarPolar, t.kernelPolar);
    addRow("classify", t.scalarClassify, t.kernelClassify);
    addRow("point_to_cell", t.scalarTotal(), t.kernelTotal());
    if (t.kernelTotal() > 1.10 * t.scalarTotal()) gateOk = false;
    // Fused-vs-unfused (with the --threads sweep and the fast-math tier):
    // its "Scalar" column is the unfused kernel baseline, not raw scalar.
    if (!timeFusedPointToCell(n, dim, repeats, args.threads, json, table))
      gateOk = false;
  }
  timeQuantileInversion(json);
  json.close();
  std::cout << table.str() << "(wrote "
            << benchOutputPath("BENCH_kernels.json") << ")\n";
  return gateOk;
}

}  // namespace
}  // namespace omt::bench

int main(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  if (args.kernelsOnly) {
    const bool gateOk = runKernelSection(args);
    if (args.enforceKernelSpeedup && !gateOk) {
      std::cerr << "FAIL: kernel path >10% slower than scalar path\n";
      return 1;
    }
    return 0;
  }
  const std::int64_t n = args.maxN.value_or(args.full ? 600 : 250);
  const int trials = args.trials.value_or(args.full ? 10 : 3);

  std::cout << "Mapping-error pipeline at n = " << n << " (" << trials
            << " trials): true delays -> embedding -> Polar_Grid -> "
               "true-delay radius\n\n";
  TextTable table({"Noise", "EmbErr(GNP)", "EmbErr(Viv)", "R(truth)",
                   "R(GNP)", "R(Viv)", "R(LB)"});
  auto csv = openCsv(args, {"sigma", "gnp_err", "viv_err", "radius_truth",
                            "radius_gnp", "radius_viv", "radius_lb"});

  for (const double sigma : {0.0, 0.1, 0.2, 0.4}) {
    RunningStats gnpErr, vivErr, rTruth, rGnp, rViv, rLb;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(700, static_cast<std::uint64_t>(trial)));
      const auto hidden = sampleDiskWithCenterSource(rng, n, 2);
      const NoisyEuclideanDelayModel model(
          hidden, 0.0, sigma, 0.0,
          deriveSeed(701, static_cast<std::uint64_t>(trial)));

      if (trial == 0) {
        const TriangleViolationStats tiv =
            measureTriangleViolations(model, 20000, 17);
        std::cout << "  sigma " << sigma << ": triangle violations "
                  << TextTable::num(100.0 * tiv.violatingFraction, 1)
                  << "% of triples, mean severity "
                  << TextTable::num(tiv.meanSeverity, 3) << "\n";
      }
      GnpOptions gnp;
      gnp.dim = 2;
      gnp.landmarks = 16;
      gnp.seed = deriveSeed(702, static_cast<std::uint64_t>(trial));
      const EmbeddingResult gnpResult = embedGnp(model, gnp);
      gnpErr.add(embeddingError(model, gnpResult.coords, 20000, 7).medianRelative);

      VivaldiOptions viv;
      viv.dim = 2;
      viv.rounds = 60;
      viv.seed = deriveSeed(703, static_cast<std::uint64_t>(trial));
      const EmbeddingResult vivResult = embedVivaldi(model, viv);
      vivErr.add(embeddingError(model, vivResult.coords, 20000, 8).medianRelative);

      const auto onTruth = buildPolarGridTree(hidden, 0, {.maxOutDegree = 6});
      const auto onGnp =
          buildPolarGridTree(gnpResult.coords, 0, {.maxOutDegree = 6});
      const auto onViv =
          buildPolarGridTree(vivResult.coords, 0, {.maxOutDegree = 6});
      rTruth.add(evaluateUnderModel(onTruth.tree, model).maxDelay);
      rGnp.add(evaluateUnderModel(onGnp.tree, model).maxDelay);
      rViv.add(evaluateUnderModel(onViv.tree, model).maxDelay);
      double lb = 0.0;
      for (NodeId v = 1; v < model.size(); ++v)
        lb = std::max(lb, model.delay(0, v));
      rLb.add(lb);
    }
    table.addRow({TextTable::num(sigma, 2), TextTable::num(gnpErr.mean(), 3),
                  TextTable::num(vivErr.mean(), 3),
                  TextTable::num(rTruth.mean(), 3),
                  TextTable::num(rGnp.mean(), 3),
                  TextTable::num(rViv.mean(), 3),
                  TextTable::num(rLb.mean(), 3)});
    if (csv) {
      csv->writeRow({std::to_string(sigma), std::to_string(gnpErr.mean()),
                     std::to_string(vivErr.mean()),
                     std::to_string(rTruth.mean()),
                     std::to_string(rGnp.mean()), std::to_string(rViv.mean()),
                     std::to_string(rLb.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: embedding error grows with the noise sigma; "
               "tree radii on recovered coordinates track the truth-built "
               "radius and degrade gracefully, staying well above R(LB).\n";
  const bool gateOk = runKernelSection(args);
  if (args.enforceKernelSpeedup && !gateOk) {
    std::cerr << "FAIL: kernel path >10% slower than scalar path\n";
    return 1;
  }
  return 0;
}
