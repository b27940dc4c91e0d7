// Ablation: the generalised degree policy (Section IV-A extended to any
// cap D >= 2). Sweeps D and reports max delay and depth in 2D and 3D.
// Shape to check: delay decreases in D with diminishing returns once the
// bisection fan-out saturates at 2^d (D >= 2^d + 2); D = 2 pays roughly
// twice the overhead of the saturated policy (the doubled arc terms).
#include "common.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const std::int64_t n = args.maxN.value_or(args.full ? 200000 : 50000);
  const int trials = args.trials.value_or(args.full ? 20 : 5);

  std::cout << "Degree-policy ablation at n = " << TextTable::count(n)
            << " (" << trials << " trials)\n\n";
  auto csv = openCsv(args, {"dim", "degree", "delay", "overhead", "depth"});

  for (const int dim : {2, 3}) {
    TextTable table({"Degree", "FanOut", "Delay", "Overhead", "vs-D2",
                     "MaxDepth"});
    double overheadD2 = 0.0;
    for (const int degree : {2, 3, 4, 5, 6, 8, 10, 16}) {
      RunningStats delay;
      RunningStats depth;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(600 + static_cast<std::uint64_t>(dim),
                           static_cast<std::uint64_t>(trial)));
        const auto points = sampleDiskWithCenterSource(rng, n, dim);
        const auto result =
            buildPolarGridTree(points, 0, {.maxOutDegree = degree});
        const TreeMetrics m = computeMetrics(result.tree, points);
        delay.add(m.maxDelay);
        depth.add(static_cast<double>(m.maxDepth));
      }
      const double overhead = delay.mean() - 1.0;
      if (degree == 2) overheadD2 = overhead;
      table.addRow({std::to_string(degree),
                    std::to_string(cellBisectionFanOut(dim, degree)),
                    TextTable::num(delay.mean(), 3),
                    TextTable::num(overhead, 3),
                    TextTable::num(overhead / overheadD2, 2),
                    TextTable::num(depth.mean(), 1)});
      if (csv) {
        csv->writeRow({std::to_string(dim), std::to_string(degree),
                       std::to_string(delay.mean()), std::to_string(overhead),
                       std::to_string(depth.mean())});
      }
    }
    std::cout << "dimension " << dim << ":\n" << table.str() << "\n";
  }
  std::cout << "Shape check: overhead shrinks as D grows and saturates at "
               "D = 2^d + 2 (fan-out column stops growing); D = 2 pays "
               "about twice the saturated overhead.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
