// Empirical check of Theorem 1: the standalone Bisection algorithm on its
// tight covering ring segment stays within factor 5 of the lower bound for
// out-degree 4 and factor 9 for out-degree 2 — and in practice far below.
// Reports the worst observed delay/lower-bound ratio over many random
// configurations (uniform, clustered, annular, collinear-ish).
#include "common.h"
#include "omt/bisection/bisection.h"

namespace {

using namespace omt;

std::vector<Point> makeConfig(Rng& rng, int shape, std::int64_t n) {
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  switch (shape) {
    case 0:  // uniform disk
      for (std::int64_t i = 0; i < n; ++i)
        points.push_back(sampleUnitBall(rng, 2) * 2.0);
      break;
    case 1: {  // tight clusters
      const Ball disk(Point{0.0, 0.0}, 2.0);
      points = sampleClustered(rng, n, disk, 3, 0.9, 0.05);
      break;
    }
    case 2: {  // annulus (hollow middle)
      const Annulus ring(Point{0.0, 0.0}, 1.0, 2.0);
      points = sampleRegion(rng, n, ring);
      break;
    }
    default:  // nearly collinear strip
      for (std::int64_t i = 0; i < n; ++i)
        points.push_back(Point{rng.uniform(-2.0, 2.0),
                               rng.uniform(-0.01, 0.01)});
      break;
  }
  return points;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const int trialsPerCell = args.full ? 200 : 40;

  std::cout << "Theorem 1 check: bisection delay vs lower bound on the "
               "covering segment\n\n";
  omt::TextTable table({"Shape", "Nodes", "Deg", "MaxRatio", "MeanRatio",
                        "Theorem"});
  auto csv = openCsv(args, {"shape", "n", "degree", "max_ratio", "mean_ratio",
                            "theorem_bound"});
  const char* shapeNames[] = {"uniform", "clustered", "annulus", "collinear"};

  for (int shape = 0; shape < 4; ++shape) {
    for (const std::int64_t n : {10LL, 100LL, 1000LL}) {
      for (const int degree : {4, 2}) {
        omt::RunningStats ratio;
        for (int trial = 0; trial < trialsPerCell; ++trial) {
          omt::Rng rng(omt::deriveSeed(
              9000 + static_cast<std::uint64_t>(shape * 10 + degree),
              static_cast<std::uint64_t>(n * 1000 + trial)));
          const auto points = makeConfig(rng, shape, n);
          const omt::BisectionTreeResult result =
              omt::buildBisectionTree(points, 0, {.maxOutDegree = degree});
          if (result.lowerBound <= 1e-9) continue;
          const omt::TreeMetrics m =
              omt::computeMetrics(result.tree, points);
          ratio.add(m.maxDelay / result.lowerBound);
        }
        const double theorem = degree >= 4 ? 5.0 : 9.0;
        table.addRow({shapeNames[shape], omt::TextTable::count(n),
                      std::to_string(degree),
                      omt::TextTable::num(ratio.max(), 3),
                      omt::TextTable::num(ratio.mean(), 3),
                      omt::TextTable::num(theorem, 0)});
        if (csv) {
          csv->writeRow({shapeNames[shape], std::to_string(n),
                         std::to_string(degree), std::to_string(ratio.max()),
                         std::to_string(ratio.mean()),
                         std::to_string(theorem)});
        }
        if (ratio.max() > theorem) {
          std::cerr << "THEOREM 1 VIOLATED: ratio " << ratio.max() << " > "
                    << theorem << "\n";
          return 1;
        }
      }
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: every MaxRatio is below its Theorem column "
               "(5 for out-degree 4, 9 for out-degree 2).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
