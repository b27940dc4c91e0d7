// Reproduces Table I: for each problem size, average ring count, core
// delay, max delay, its deviation, the eq. (7) bound at j = 0 and the
// build time, for out-degree 6 and out-degree 2 trees on the unit disk.
//
// Paper reference values (200 trials, Pentium II 400 MHz):
//   n=1,000:   deg6 delay 1.302, bound 4.09;  deg2 delay 1.622, bound 5.66
//   n=100,000: deg6 delay 1.034, bound 1.43;  deg2 delay 1.067, bound 1.63
//   n=5,000,000: deg6 delay 1.005, bound 1.08; deg2 delay 1.009, bound 1.11
// Absolute CPU seconds differ (different hardware); the shape to check is
// delay -> 1, bound tightening, and near-linear runtime.
#include "common.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const auto rows = tableOneSizes(args);

  std::cout << "Table I: overlay multicast trees on the unit disk "
               "(averages over per-row trials)\n\n";
  TextTable table({"Nodes", "Trials", "Rings", "Core6", "Delay6", "Dev6",
                   "Bound6", "Sec6", "Core2", "Delay2", "Dev2", "Bound2",
                   "Sec2"});
  auto csv = openCsv(args, {"n", "trials", "rings", "core6", "delay6", "dev6",
                            "bound6", "sec6", "core2", "delay2", "dev2",
                            "bound2", "sec2"});

  auto trialsCsv = openTrialsCsv(args);
  for (const RowSpec& spec : rows) {
    const RowStats deg6 = runRow(spec.n, spec.trials, 6, 2, 100, args.threads);
    const RowStats deg2 = runRow(spec.n, spec.trials, 2, 2, 200, args.threads);
    appendTrialRows(trialsCsv.get(), deg6);
    appendTrialRows(trialsCsv.get(), deg2);
    table.addRow({TextTable::count(spec.n), TextTable::count(spec.trials),
                  TextTable::num(deg6.rings.mean(), 2),
                  TextTable::num(deg6.core.mean(), 2),
                  TextTable::num(deg6.delay.mean(), 3),
                  TextTable::num(deg6.delay.populationStddev(), 2),
                  TextTable::num(deg6.bound.mean(), 2),
                  TextTable::num(deg6.seconds.mean(), 4),
                  TextTable::num(deg2.core.mean(), 2),
                  TextTable::num(deg2.delay.mean(), 3),
                  TextTable::num(deg2.delay.populationStddev(), 2),
                  TextTable::num(deg2.bound.mean(), 2),
                  TextTable::num(deg2.seconds.mean(), 4)});
    if (csv) {
      csv->writeRow({std::to_string(spec.n), std::to_string(spec.trials),
                     std::to_string(deg6.rings.mean()),
                     std::to_string(deg6.core.mean()),
                     std::to_string(deg6.delay.mean()),
                     std::to_string(deg6.delay.populationStddev()),
                     std::to_string(deg6.bound.mean()),
                     std::to_string(deg6.seconds.mean()),
                     std::to_string(deg2.core.mean()),
                     std::to_string(deg2.delay.mean()),
                     std::to_string(deg2.delay.populationStddev()),
                     std::to_string(deg2.bound.mean()),
                     std::to_string(deg2.seconds.mean())});
    }
    // Stream rows as they complete (large sizes take a while).
    std::cout << "  completed n = " << TextTable::count(spec.n) << "\n";
  }
  std::cout << "\n" << table.str();
  std::cout << "\nPaper Table I (for comparison, deg6/deg2 delay): "
               "n=1k: 1.302/1.622, n=10k: 1.102/1.202, n=100k: 1.034/1.067, "
               "n=1M: 1.012/1.022, n=5M: 1.005/1.009\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
