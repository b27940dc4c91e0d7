// Who wins at Table-I scale? The O(n^2) heuristics cannot run at 10^6
// hosts, so this bench compares only the near-linear builders: Polar_Grid,
// the k-d-tree nearest-parent, the hop-optimal layered tree, and Delaunay
// compass routing (degree-unconstrained; O(n^2) fallback skipped above
// 30k). Shape to check: Polar_Grid's radius advantage grows with n while
// its runtime stays competitive.
#include "common.h"
#include "omt/baselines/baselines.h"
#include "omt/baselines/delaunay.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const int degree = 6;
  const int trials = args.trials.value_or(args.full ? 10 : 3);
  const std::vector<std::int64_t> sizes =
      args.full
          ? std::vector<std::int64_t>{10000, 100000, 1000000}
          : std::vector<std::int64_t>{10000, 100000};

  std::cout << "Scalable builders at Table-I sizes (radius / lower bound; "
               "out-degree " << degree << ")\n\n";
  TextTable table({"Nodes", "PolarGrid", "NearestKd", "Layered", "Delaunay",
                   "PG sec", "NearestKd sec"});
  auto csv = openCsv(args, {"n", "polar", "nearest_kd", "layered", "delaunay",
                            "pg_sec", "kd_sec"});

  for (const std::int64_t n : sizes) {
    if (args.maxN && n > *args.maxN) continue;
    RunningStats polar, nearestKd, layered, delaunay, pgSec, kdSec;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(1700, static_cast<std::uint64_t>(n + trial)));
      const auto points = sampleDiskWithCenterSource(rng, n, 2);
      const double lower = radiusLowerBound(points, 0);

      Stopwatch pgWatch;
      const auto pg = buildPolarGridTree(points, 0, {.maxOutDegree = degree});
      pgSec.add(pgWatch.seconds());
      polar.add(computeMetrics(pg.tree, points).maxDelay / lower);

      Stopwatch kdWatch;
      const auto kd = buildNearestParentTreeFast(points, 0, degree);
      kdSec.add(kdWatch.seconds());
      nearestKd.add(computeMetrics(kd, points).maxDelay / lower);

      layered.add(
          computeMetrics(buildLayeredTree(points, 0, degree), points)
              .maxDelay /
          lower);
      if (n <= 30000) {
        delaunay.add(computeMetrics(buildDelaunayCompassTree(points, 0),
                                    points)
                         .maxDelay /
                     lower);
      }
    }
    table.addRow({TextTable::count(n), TextTable::num(polar.mean(), 3),
                  TextTable::num(nearestKd.mean(), 3),
                  TextTable::num(layered.mean(), 3),
                  delaunay.count() > 0 ? TextTable::num(delaunay.mean(), 3)
                                       : std::string("-"),
                  TextTable::num(pgSec.mean(), 3),
                  TextTable::num(kdSec.mean(), 3)});
    if (csv) {
      csv->writeRow(
          {std::to_string(n), std::to_string(polar.mean()),
           std::to_string(nearestKd.mean()), std::to_string(layered.mean()),
           delaunay.count() > 0 ? std::to_string(delaunay.mean()) : "-",
           std::to_string(pgSec.mean()), std::to_string(kdSec.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: PolarGrid converges toward 1 with n; the "
               "locality heuristics plateau well above it; both scale to "
               "millions.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
