// Optimality gaps at exactly-solvable sizes: branch and bound gives the
// true optimum for n <= ~12, so every heuristic's radius can be reported
// as a multiple of OPT rather than of the straight-line lower bound.
// Shape to check: greedy and the polished Polar_Grid land within
// ~1.1-1.3x of OPT; raw Polar_Grid is higher at these tiny sizes (its
// guarantee is asymptotic); and OPT itself sits well above the
// straight-line bound at out-degree 2 (the bound is loose when the degree
// constraint binds).
#include "common.h"
#include "omt/baselines/baselines.h"
#include "omt/core/exact.h"
#include "omt/core/local_search.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const int trials = args.trials.value_or(args.full ? 30 : 10);
  const std::int64_t n = args.maxN.value_or(10);

  std::cout << "Optimality gaps vs the exact optimum at n = " << n << " ("
            << trials << " trials)\n\n";
  TextTable table({"Degree", "OPT/StraightLB", "Polar/OPT", "Polar+LS/OPT",
                   "Greedy/OPT", "Nearest/OPT"});
  auto csv = openCsv(args, {"degree", "opt_over_lb", "polar", "polar_ls",
                            "greedy", "nearest"});

  for (const int degree : {2, 3}) {
    RunningStats optOverLb, polar, polished, greedy, nearest;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(1800 + static_cast<std::uint64_t>(degree),
                         static_cast<std::uint64_t>(trial)));
      const auto points = sampleDiskWithCenterSource(rng, n, 2);
      const ExactResult exact =
          solveExactMinRadius(points, 0, {.maxOutDegree = degree});
      if (!exact.provedOptimal || exact.radius <= 1e-12) continue;
      optOverLb.add(exact.radius / radiusLowerBound(points, 0));

      const PolarGridResult pg =
          buildPolarGridTree(points, 0, {.maxOutDegree = degree});
      polar.add(computeMetrics(pg.tree, points).maxDelay / exact.radius);
      polished.add(
          improveMaxDelay(pg.tree, points,
                          {.maxOutDegree = degree, .maxMoves = 500})
              .finalMaxDelay /
          exact.radius);
      greedy.add(
          computeMetrics(buildGreedyInsertionTree(points, 0, degree), points)
              .maxDelay /
          exact.radius);
      nearest.add(
          computeMetrics(buildNearestParentTree(points, 0, degree), points)
              .maxDelay /
          exact.radius);
    }
    table.addRow({std::to_string(degree), TextTable::num(optOverLb.mean(), 3),
                  TextTable::num(polar.mean(), 3),
                  TextTable::num(polished.mean(), 3),
                  TextTable::num(greedy.mean(), 3),
                  TextTable::num(nearest.mean(), 3)});
    if (csv) {
      csv->writeRow({std::to_string(degree), std::to_string(optOverLb.mean()),
                     std::to_string(polar.mean()),
                     std::to_string(polished.mean()),
                     std::to_string(greedy.mean()),
                     std::to_string(nearest.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: Greedy and Polar+LS land within ~1.1-1.3x "
               "of OPT; raw Polar is higher at these tiny n (its guarantee "
               "is asymptotic); OPT itself exceeds the straight-line bound "
               "when the cap binds.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
