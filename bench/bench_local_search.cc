// Extension bench: Polar_Grid followed by critical-path local search —
// how much of the gap to the O(n^2) greedy ceiling does a cheap polish
// recover? Shape to check: the polish recovers a large share of the gap
// (especially at out-degree 2, whose construction pays doubled arc terms),
// at a cost far below greedy's quadratic build.
#include "common.h"
#include "omt/baselines/baselines.h"
#include "omt/core/local_search.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const int trials = args.trials.value_or(args.full ? 10 : 3);
  const std::vector<std::int64_t> sizes =
      args.full ? std::vector<std::int64_t>{1000, 10000, 100000}
                : std::vector<std::int64_t>{1000, 10000};

  std::cout << "Polar_Grid + local-search polish vs the greedy ceiling "
               "(radius / lower bound)\n\n";
  for (const int degree : {6, 2}) {
    TextTable table({"Nodes", "Polar", "Polar+LS", "Greedy", "Moves",
                     "LS sec", "Greedy sec"});
    for (const std::int64_t n : sizes) {
      if (args.maxN && n > *args.maxN) continue;
      RunningStats polar, polished, greedy, moves, lsSec, greedySec;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(1600 + static_cast<std::uint64_t>(degree),
                           static_cast<std::uint64_t>(n + trial)));
        const auto points = sampleDiskWithCenterSource(rng, n, 2);
        const double lower = radiusLowerBound(points, 0);
        const PolarGridResult built =
            buildPolarGridTree(points, 0, {.maxOutDegree = degree});
        polar.add(computeMetrics(built.tree, points).maxDelay / lower);

        Stopwatch lsWatch;
        const LocalSearchResult refined = improveMaxDelay(
            built.tree, points,
            {.maxOutDegree = degree, .maxMoves = 4000});
        lsSec.add(lsWatch.seconds());
        polished.add(refined.finalMaxDelay / lower);
        moves.add(static_cast<double>(refined.movesApplied));

        if (n <= 10000) {  // greedy is O(n^2)
          Stopwatch gWatch;
          const MulticastTree g =
              buildGreedyInsertionTree(points, 0, degree);
          greedySec.add(gWatch.seconds());
          greedy.add(computeMetrics(g, points).maxDelay / lower);
        }
      }
      table.addRow({TextTable::count(n), TextTable::num(polar.mean(), 3),
                    TextTable::num(polished.mean(), 3),
                    greedy.count() > 0 ? TextTable::num(greedy.mean(), 3)
                                       : std::string("-"),
                    TextTable::num(moves.mean(), 0),
                    TextTable::num(lsSec.mean(), 3),
                    greedySec.count() > 0
                        ? TextTable::num(greedySec.mean(), 3)
                        : std::string("-")});
    }
    std::cout << "out-degree cap " << degree << ":\n" << table.str() << "\n";
  }
  std::cout << "Shape check: Polar+LS sits between Polar and Greedy, "
               "recovering much of the gap at a fraction of greedy's "
               "quadratic cost.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
