// Reproduces Figure 6: the average number of rings k chosen by the grid
// versus n, log-scale in n. The points follow a straight line — k is a
// logarithmic function of n, as implied by equation (5) (k >= log2(n)/2).
// Only the grid-selection stage runs here (the tree is not needed), so
// this bench is cheap even at paper scale.
#include <cmath>

#include "common.h"
#include "omt/core/lemmas.h"
#include "omt/grid/assignment.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);

  std::cout << "Figure 6: average rings k vs n (expect a straight line in "
               "log2 n)\n\n";
  TextTable table({"Nodes", "Rings", "Predicted", "log2(n)",
                   "Rings/log2(n)", "k - log2(n)/2"});
  auto csv = openCsv(args, {"n", "rings", "predicted", "log2n", "ratio",
                            "slack"});

  for (const RowSpec& spec : tableOneSizes(args)) {
    RunningStats rings;
    for (int trial = 0; trial < spec.trials; ++trial) {
      Rng rng(deriveSeed(100, static_cast<std::uint64_t>(trial)));
      const auto points = sampleDiskWithCenterSource(rng, spec.n, 2);
      rings.add(static_cast<double>(assignToGrid(points, 0).grid.rings()));
    }
    const double log2n = std::log2(static_cast<double>(spec.n));
    table.addRow({TextTable::count(spec.n), TextTable::num(rings.mean(), 2),
                  std::to_string(predictedRings(spec.n)),
                  TextTable::num(log2n, 2),
                  TextTable::num(rings.mean() / log2n, 3),
                  TextTable::num(rings.mean() - log2n / 2.0, 2)});
    if (csv) {
      csv->writeRow({std::to_string(spec.n), std::to_string(rings.mean()),
                     std::to_string(predictedRings(spec.n)),
                     std::to_string(log2n),
                     std::to_string(rings.mean() / log2n),
                     std::to_string(rings.mean() - log2n / 2.0)});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: Rings grows ~linearly in log2(n) and stays "
               ">= log2(n)/2 (equation 5). Paper: 3.61 @ 100, 8.97 @ 10k, "
               "15.00 @ 1M, 17.00 @ 5M.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
