// Ablation for the minimum-diameter variant (Section VI): rooting the
// Polar_Grid tree at the host nearest the enclosing-sphere center versus
// rooting at an arbitrary (rim) host. Shape to check: the centered root
// approaches the certified pairwise-distance lower bound (factor -> 1 for
// uniform sphere points), while a rim root pays up to 2x; the diameter
// never exceeds twice the radius.
#include "common.h"
#include "omt/core/min_diameter.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const int trials = args.trials.value_or(args.full ? 20 : 5);
  const std::vector<std::int64_t> sizes =
      args.full ? std::vector<std::int64_t>{1000, 10000, 100000, 1000000}
                : std::vector<std::int64_t>{1000, 10000, 100000};

  std::cout << "Minimum-diameter variant (unit disk, out-degree 6)\n\n";
  TextTable table({"Nodes", "Diam(center)", "Diam(rim)", "LB", "center/LB",
                   "rim/LB", "Diam/2R"});
  auto csv = openCsv(args, {"n", "diam_center", "diam_rim", "lb",
                            "center_ratio", "rim_ratio", "diam_over_2r"});

  for (const std::int64_t n : sizes) {
    if (args.maxN && n > *args.maxN) continue;
    RunningStats center, rim, lb, diamOver2R;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(1100, static_cast<std::uint64_t>(n + trial)));
      const auto points = sampleDiskWithCenterSource(rng, n, 2);
      const MinDiameterResult centered = buildMinDiameterTree(points);
      center.add(centered.diameter);
      lb.add(centered.lowerBound);
      diamOver2R.add(centered.diameter / (2.0 * centered.radius));

      // Rim root: the farthest host from the disk center.
      NodeId rimHost = 0;
      double best = -1.0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (norm(points[i]) > best) {
          best = norm(points[i]);
          rimHost = static_cast<NodeId>(i);
        }
      }
      const PolarGridResult cornered = buildPolarGridTree(points, rimHost);
      rim.add(diameter(cornered.tree, points));
    }
    table.addRow({TextTable::count(n), TextTable::num(center.mean(), 3),
                  TextTable::num(rim.mean(), 3), TextTable::num(lb.mean(), 3),
                  TextTable::num(center.mean() / lb.mean(), 3),
                  TextTable::num(rim.mean() / lb.mean(), 3),
                  TextTable::num(diamOver2R.mean(), 3)});
    if (csv) {
      csv->writeRow({std::to_string(n), std::to_string(center.mean()),
                     std::to_string(rim.mean()), std::to_string(lb.mean()),
                     std::to_string(center.mean() / lb.mean()),
                     std::to_string(rim.mean() / lb.mean()),
                     std::to_string(diamOver2R.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: center/LB falls toward 1 with n; a rim root "
               "pays a ~3x factor; Diam/2R <= 1 always.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
