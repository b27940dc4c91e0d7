// Comparison against the related-work heuristics the paper cites: greedy
// compact-tree insertion (Shi & Turner), Bandwidth-Latency (Chu et al.),
// degree-constrained nearest parent, a random feasible tree, and the
// degree-unconstrained star (whose radius IS the instance lower bound).
// The shape to check: Polar_Grid dominates every degree-bounded baseline
// at scale and approaches the star's radius, while running in O(n) instead
// of the baselines' O(n^2).
#include "common.h"
#include "omt/baselines/baselines.h"
#include "omt/baselines/delaunay.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const std::vector<std::int64_t> sizes =
      args.full ? std::vector<std::int64_t>{500, 2000, 10000, 30000}
                : std::vector<std::int64_t>{500, 2000, 10000};
  const int trials = args.trials.value_or(args.full ? 20 : 5);

  std::cout << "Baseline comparison on the unit disk (radius = max "
               "sender-to-receiver delay; lower is better)\n\n";

  for (const int degree : {6, 2}) {
    TextTable table({"Nodes", "PolarGrid", "Greedy", "BW-Lat", "Nearest",
                     "Delaunay", "HMTP", "Layered", "Random", "Star(LB)",
                     "PG sec", "Greedy sec"});
    for (const std::int64_t n : sizes) {
      RunningStats polar, greedy, bwlat, nearest, delaunay, hmtp, layered,
          random, star;
      RunningStats polarSec, greedySec;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(500 + static_cast<std::uint64_t>(degree),
                           static_cast<std::uint64_t>(n * 100 + trial)));
        const auto points = sampleDiskWithCenterSource(rng, n, 2);
        Stopwatch pgWatch;
        const auto pg = buildPolarGridTree(points, 0, {.maxOutDegree = degree});
        polarSec.add(pgWatch.seconds());
        polar.add(computeMetrics(pg.tree, points).maxDelay);
        Stopwatch gWatch;
        const auto g = buildGreedyInsertionTree(points, 0, degree);
        greedySec.add(gWatch.seconds());
        greedy.add(computeMetrics(g, points).maxDelay);
        Rng joinRng(deriveSeed(777, static_cast<std::uint64_t>(trial)));
        bwlat.add(computeMetrics(
            buildBandwidthLatencyTree(points, 0, degree, joinRng), points)
                      .maxDelay);
        nearest.add(computeMetrics(buildNearestParentTree(points, 0, degree),
                                   points)
                        .maxDelay);
        // Degree-unconstrained locality baseline (paper ref [10]).
        delaunay.add(computeMetrics(buildDelaunayCompassTree(points, 0),
                                    points)
                         .maxDelay);
        hmtp.add(computeMetrics(buildHmtpTree(points, 0, degree, joinRng),
                                points)
                     .maxDelay);
        layered.add(computeMetrics(buildLayeredTree(points, 0, degree),
                                   points)
                        .maxDelay);
        random.add(computeMetrics(
            buildRandomFeasibleTree(points, 0, degree, joinRng), points)
                       .maxDelay);
        star.add(computeMetrics(buildStarTree(points, 0), points).maxDelay);
      }
      table.addRow({TextTable::count(n), TextTable::num(polar.mean(), 3),
                    TextTable::num(greedy.mean(), 3),
                    TextTable::num(bwlat.mean(), 3),
                    TextTable::num(nearest.mean(), 3),
                    TextTable::num(delaunay.mean(), 3),
                    TextTable::num(hmtp.mean(), 3),
                    TextTable::num(layered.mean(), 3),
                    TextTable::num(random.mean(), 3),
                    TextTable::num(star.mean(), 3),
                    TextTable::num(polarSec.mean(), 4),
                    TextTable::num(greedySec.mean(), 4)});
    }
    std::cout << "out-degree cap " << degree << ":\n" << table.str() << "\n";
  }
  std::cout << "Shape check: PolarGrid < BW-Lat/Nearest/Random everywhere "
               "and approaches Star(LB) as n grows; Greedy is competitive "
               "at small n but costs O(n^2) (see the sec columns).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
