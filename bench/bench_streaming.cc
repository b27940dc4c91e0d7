// Motivation bench: continuous-stream sustainability across degree caps.
// With a fixed uplink (transmission slot s per child per message), a tree
// of max out-degree D sustains message intervals >= D * s; the star needs
// (n-1) * s. Shape to check: the sustainable rate is exactly 1/(D * s);
// below it, steady-state delay is flat (the single-shot serialized delay);
// above it, backlog grows linearly — the bandwidth constraint the paper
// encodes as the degree cap.
#include "common.h"
#include "omt/baselines/baselines.h"
#include "omt/sim/streaming.h"

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);
  const std::int64_t n = args.maxN.value_or(args.full ? 20000 : 5000);
  const double slot = 0.02;  // uplink time per child per message

  Rng rng(deriveSeed(1900, 0));
  const auto points = sampleDiskWithCenterSource(rng, n, 2);

  std::cout << "Streaming sustainability at n = " << TextTable::count(n)
            << ", uplink slot " << slot << " per child-send\n\n";
  TextTable table({"Tree", "Bottleneck", "Interval", "Sustainable",
                   "FirstMsgDelay", "LastMsgDelay", "Backlog/msg"});
  auto csv = openCsv(args, {"tree", "bottleneck", "interval", "sustainable",
                            "first", "last", "growth"});

  struct Config {
    std::string name;
    int degree;  // 0 = star
  };
  const Config configs[] = {
      {"star", 0}, {"polar D=16", 16}, {"polar D=6", 6}, {"polar D=2", 2}};

  for (const Config& config : configs) {
    const MulticastTree tree =
        config.degree == 0
            ? buildStarTree(points, 0)
            : buildPolarGridTree(points, 0, {.maxOutDegree = config.degree})
                  .tree;
    // Probe two rates: comfortably below and above D * slot.
    for (const double factor : {1.5, 0.75}) {
      std::int32_t maxDegree = 0;
      for (NodeId v = 0; v < tree.size(); ++v)
        maxDegree = std::max(maxDegree, tree.outDegree(v));
      StreamOptions options;
      options.transmissionTime = slot;
      options.messageInterval = factor * maxDegree * slot;
      options.messageCount = 40;
      const StreamResult result = simulateStream(tree, points, options);
      table.addRow({config.name, TextTable::num(result.bottleneckLoad, 2),
                    TextTable::num(options.messageInterval, 3),
                    result.sustainable ? "yes" : "NO",
                    TextTable::num(result.firstMessageMaxDelay, 3),
                    TextTable::num(result.lastMessageMaxDelay, 3),
                    TextTable::num(result.backlogGrowthPerMessage, 3)});
      if (csv) {
        csv->writeRow({config.name, std::to_string(result.bottleneckLoad),
                       std::to_string(options.messageInterval),
                       result.sustainable ? "yes" : "no",
                       std::to_string(result.firstMessageMaxDelay),
                       std::to_string(result.lastMessageMaxDelay),
                       std::to_string(result.backlogGrowthPerMessage)});
      }
    }
  }
  std::cout << table.str();
  std::cout << "\nShape check: Backlog/msg ~ 0 whenever Interval >= "
               "Bottleneck and positive otherwise; bounded-degree trees "
               "sustain intervals the star cannot, at far lower "
               "first-message delay than the chain would give.\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
