// Reproduces Figure 5: average max delay of out-degree 2 vs out-degree 6
// trees. The paper's observation: the degree-2 overhead (delay - 1) is
// roughly twice the degree-6 overhead, and both curves converge to the
// optimal delay of 1 as n grows.
#include "common.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);

  std::cout << "Figure 5: max delay, out-degree 2 vs out-degree 6\n\n";
  TextTable table({"Nodes", "Delay6", "Delay2", "Overhead6", "Overhead2",
                   "Ovh2/Ovh6"});
  auto csv = openCsv(args, {"n", "delay6", "delay2", "overhead6", "overhead2",
                            "overhead_ratio"});

  auto trialsCsv = openTrialsCsv(args);
  for (const RowSpec& spec : tableOneSizes(args)) {
    const RowStats deg6 = runRow(spec.n, spec.trials, 6, 2, 100, args.threads);
    const RowStats deg2 = runRow(spec.n, spec.trials, 2, 2, 200, args.threads);
    appendTrialRows(trialsCsv.get(), deg6);
    appendTrialRows(trialsCsv.get(), deg2);
    const double overhead6 = deg6.delay.mean() - 1.0;
    const double overhead2 = deg2.delay.mean() - 1.0;
    table.addRow({TextTable::count(spec.n),
                  TextTable::num(deg6.delay.mean(), 3),
                  TextTable::num(deg2.delay.mean(), 3),
                  TextTable::num(overhead6, 3), TextTable::num(overhead2, 3),
                  TextTable::num(overhead2 / overhead6, 2)});
    if (csv) {
      csv->writeRow({std::to_string(spec.n), std::to_string(deg6.delay.mean()),
                     std::to_string(deg2.delay.mean()),
                     std::to_string(overhead6), std::to_string(overhead2),
                     std::to_string(overhead2 / overhead6)});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: both delays fall toward 1; the degree-2 "
               "overhead is ~2x the degree-6 overhead (paper Figure 5).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
