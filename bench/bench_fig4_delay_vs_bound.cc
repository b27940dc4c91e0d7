// Reproduces Figure 4: average max delay vs the eq. (7) bound and the core
// delay for out-degree 6 trees, log-scale in n. The shape to check: the
// bound over-estimates heavily at small n and tightens as n grows; the gap
// between core and total delay persists (it depends on the outermost-ring
// cell size, which is constant in n).
#include "common.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);

  std::cout << "Figure 4: delay vs bound vs core delay (out-degree 6)\n\n";
  TextTable table({"Nodes", "CoreDelay", "MaxDelay", "Bound(7)",
                   "Bound/Delay", "Delay-Core"});
  auto csv = openCsv(args, {"n", "core", "delay", "bound", "bound_over_delay",
                            "delay_minus_core"});

  auto trialsCsv = openTrialsCsv(args);
  for (const RowSpec& spec : tableOneSizes(args)) {
    const RowStats row = runRow(spec.n, spec.trials, 6, 2, 100, args.threads);
    appendTrialRows(trialsCsv.get(), row);
    table.addRow({TextTable::count(spec.n),
                  TextTable::num(row.core.mean(), 3),
                  TextTable::num(row.delay.mean(), 3),
                  TextTable::num(row.bound.mean(), 3),
                  TextTable::num(row.bound.mean() / row.delay.mean(), 2),
                  TextTable::num(row.delay.mean() - row.core.mean(), 3)});
    if (csv) {
      csv->writeRow({std::to_string(spec.n), std::to_string(row.core.mean()),
                     std::to_string(row.delay.mean()),
                     std::to_string(row.bound.mean()),
                     std::to_string(row.bound.mean() / row.delay.mean()),
                     std::to_string(row.delay.mean() - row.core.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: Bound/Delay falls toward 1 as n grows; "
               "Delay-Core stays roughly constant (outermost-ring width).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
