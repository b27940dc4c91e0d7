// Ablation: the robustness side of the degree trade-off. The degree cap
// buys bounded fan-out (bandwidth) at the price of depth, and depth is
// fragility: a receiver is cut off when any forwarder above it dies.
// Exact analysis (P(reachable) = q^depth) across degree caps and failure
// probabilities. Shape to check: reachable fraction increases with the
// degree cap (shallower trees); the chain collapses at any failure rate;
// the degree-unconstrained star marks the 1 - p ceiling.
#include "common.h"
#include "omt/baselines/baselines.h"
#include "omt/sim/reliability.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const std::int64_t n = args.maxN.value_or(args.full ? 100000 : 20000);
  const int trials = args.trials.value_or(args.full ? 10 : 3);

  std::cout << "Reliability under independent node failures at n = "
            << TextTable::count(n) << "\n\n";
  TextTable table({"Tree", "Depth", "E[reach] p=1%", "p=5%", "p=20%",
                   "MeanSubtree"});
  auto csv = openCsv(args, {"tree", "depth", "reach_1", "reach_5",
                            "reach_20", "mean_subtree"});

  struct Config {
    std::string name;
    int degree;  // 0 = star, 1 = chain, else Polar_Grid with this cap
  };
  const Config configs[] = {{"star (unbounded)", 0}, {"polar D=16", 16},
                            {"polar D=6", 6},        {"polar D=3", 3},
                            {"polar D=2", 2},        {"chain", 1}};

  for (const Config& config : configs) {
    RunningStats depth, r1, r5, r20, subtree;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(1500, static_cast<std::uint64_t>(trial)));
      const auto points = sampleDiskWithCenterSource(rng, n, 2);
      const MulticastTree tree =
          config.degree == 0 ? buildStarTree(points, 0)
          : config.degree == 1
              ? buildChainTree(points, 0)
              : buildPolarGridTree(points, 0,
                                   {.maxOutDegree = config.degree})
                    .tree;
      const TreeMetrics m = computeMetrics(tree, points);
      depth.add(static_cast<double>(m.maxDepth));
      r1.add(analyzeReliability(tree, 0.01).expectedReachableFraction);
      const ReliabilityReport at5 = analyzeReliability(tree, 0.05);
      r5.add(at5.expectedReachableFraction);
      r20.add(analyzeReliability(tree, 0.20).expectedReachableFraction);
      subtree.add(at5.meanSubtreeSize);
    }
    table.addRow({config.name, TextTable::num(depth.mean(), 1),
                  TextTable::num(r1.mean(), 3), TextTable::num(r5.mean(), 3),
                  TextTable::num(r20.mean(), 3),
                  TextTable::num(subtree.mean(), 1)});
    if (csv) {
      csv->writeRow({config.name, std::to_string(depth.mean()),
                     std::to_string(r1.mean()), std::to_string(r5.mean()),
                     std::to_string(r20.mean()),
                     std::to_string(subtree.mean())});
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: reachability rises with the degree cap "
               "(shallower trees), far above the chain and below the "
               "star's 1 - p ceiling.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
