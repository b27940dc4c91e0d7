// Ablation: the square (quadtree) variant of the Bisection algorithm vs
// the paper's polar version (Section II describes the polar one precisely
// because it plugs into the polar grid; it mentions the square version is
// easier to describe). Both are constant-factor; shapes to check: the two
// stay within a small factor of each other, with the square frame slightly
// ahead standalone (the polar version pays for its artificial far ring
// center; its real role is as the intra-cell subroutine of Polar_Grid,
// where the cell IS a ring segment).
#include "common.h"
#include "omt/bisection/bisection.h"
#include "omt/bisection/square_bisection.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const int trials = args.trials.value_or(args.full ? 50 : 10);

  std::cout << "Constant-factor bisection: polar vs square frames "
               "(max delay / instance lower bound)\n\n";
  TextTable table({"Workload", "Nodes", "Deg", "Polar", "Square",
                   "Square/Polar"});
  auto csv = openCsv(args, {"workload", "n", "degree", "polar", "square",
                            "ratio"});

  struct Workload {
    const char* name;
    int shape;
  };
  const Workload workloads[] = {{"disk", 0}, {"annulus", 1}, {"square", 2}};

  for (const Workload& w : workloads) {
    for (const std::int64_t n : {200LL, 2000LL, 20000LL}) {
      for (const int degree : {2, 4}) {
        RunningStats polar, square;
        for (int trial = 0; trial < trials; ++trial) {
          Rng rng(deriveSeed(1300 + static_cast<std::uint64_t>(w.shape * 10 +
                                                               degree),
                             static_cast<std::uint64_t>(n + trial)));
          std::vector<Point> points;
          if (w.shape == 0) {
            for (std::int64_t i = 0; i < n; ++i)
              points.push_back(sampleUnitBall(rng, 2));
          } else if (w.shape == 1) {
            points = sampleRegion(rng, n, Annulus(Point{0.0, 0.0}, 0.8, 1.0));
          } else {
            points = sampleRegion(
                rng, n, Box(Point{-1.0, -1.0}, Point{1.0, 1.0}));
          }
          const double lb = radiusLowerBound(points, 0);
          if (lb <= 1e-12) continue;
          polar.add(computeMetrics(
                        buildBisectionTree(points, 0, {.maxOutDegree = degree})
                            .tree,
                        points)
                        .maxDelay /
                    lb);
          square.add(
              computeMetrics(buildSquareBisectionTree(
                                 points, 0, {.maxOutDegree = degree})
                                 .tree,
                             points)
                  .maxDelay /
              lb);
        }
        table.addRow({w.name, TextTable::count(n), std::to_string(degree),
                      TextTable::num(polar.mean(), 3),
                      TextTable::num(square.mean(), 3),
                      TextTable::num(square.mean() / polar.mean(), 2)});
        if (csv) {
          csv->writeRow({w.name, std::to_string(n), std::to_string(degree),
                         std::to_string(polar.mean()),
                         std::to_string(square.mean()),
                         std::to_string(square.mean() / polar.mean())});
        }
      }
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: ratios stay within a small constant "
               "(square/polar ~ 0.7-1.0 -- the polar frame pays for its "
               "artificial far ring center when used standalone).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
