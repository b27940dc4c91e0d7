// Reproduces Figure 8: average max delay in the three-dimensional unit
// sphere, for the straightforward extension (out-degree 10: 8 bisection
// links + 2 next-ring links) and the out-degree-2 variant. Shape to check:
// both converge to the lower bound of 1; 3D delays are higher than 2D at
// the same n; the degree-2/degree-10 gap narrows as n grows.
#include "common.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);

  std::cout << "Figure 8: max delay in the 3D unit sphere (out-degree 10 "
               "vs 2)\n\n";
  TextTable table({"Nodes", "Delay10", "Dev10", "Delay2", "Dev2", "Rings",
                   "Gap2-10"});
  auto csv =
      openCsv(args, {"n", "delay10", "dev10", "delay2", "dev2", "rings",
                     "gap"});

  auto trialsCsv = openTrialsCsv(args);
  for (const RowSpec& spec : tableOneSizes(args)) {
    const RowStats deg10 = runRow(spec.n, spec.trials, 10, 3, 300, args.threads);
    const RowStats deg2 = runRow(spec.n, spec.trials, 2, 3, 400, args.threads);
    appendTrialRows(trialsCsv.get(), deg10);
    appendTrialRows(trialsCsv.get(), deg2);
    table.addRow({TextTable::count(spec.n),
                  TextTable::num(deg10.delay.mean(), 3),
                  TextTable::num(deg10.delay.populationStddev(), 2),
                  TextTable::num(deg2.delay.mean(), 3),
                  TextTable::num(deg2.delay.populationStddev(), 2),
                  TextTable::num(deg10.rings.mean(), 2),
                  TextTable::num(deg2.delay.mean() - deg10.delay.mean(), 3)});
    if (csv) {
      csv->writeRow({std::to_string(spec.n),
                     std::to_string(deg10.delay.mean()),
                     std::to_string(deg10.delay.populationStddev()),
                     std::to_string(deg2.delay.mean()),
                     std::to_string(deg2.delay.populationStddev()),
                     std::to_string(deg10.rings.mean()),
                     std::to_string(deg2.delay.mean() - deg10.delay.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: both columns fall toward 1 (slower than 2D "
               "-- angular cell extents shrink as 2^(-k/3)); the degree-2 "
               "vs degree-10 gap narrows with n (paper Figure 8).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
