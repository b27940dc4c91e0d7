// Packet data-plane bench: goodput and tail latency under loss.
//
// Two parts, both on Polar_Grid trees over unit-disk hosts:
//
// Part A (loss sweep): one fixed tree, one session per loss point — i.i.d.
// rates {0, 0.1%, 1%, 5%, 10%} plus one Gilbert–Elliott bursty row at the
// same mean loss as the 1% point. Reports delivery goodput
// (exactly-once deliveries per engine wall-second), delivery-latency
// p50/p95/p99, and the recovery overhead (retransmits and NACKs per
// delivery). This is the goodput/p99-vs-loss curve the data-plane PR is
// judged on.
//
// Part B (zero-loss rate row): an n = 10,000 tree with a short propagation
// factor (keeps few packets in flight on each link), zero loss,
// recovery idle. The engine must push at least 1M packets/sec of deliveries
// through the event loop; --min-goodput makes the floor enforcing (CI
// passes a conservative floor so only a real regression trips it).
//
// Always writes BENCH_dataplane.json:
//   {"bench": "dataplane",
//    "rows": [{"label": ..., "loss": ..., "goodput_pps": ...,
//              "p50_ms": ..., "p99_ms": ..., "retx_per_delivery": ...}...],
//    "zero_loss_goodput_pps": ..., "zero_loss_hosts": ...}
// Deterministic for a fixed seed (wall-clock fields excepted).
#include "common.h"
#include "omt/sim/dataplane/engine.h"

namespace {

using omt::dataplane::DataplaneOptions;
using omt::dataplane::DataplaneResult;

struct SweepRow {
  std::string label;
  double loss = 0.0;
  bool bursty = false;
};

DataplaneResult runSession(const omt::PolarGridResult& built,
                           const std::vector<omt::Point>& points,
                           const DataplaneOptions& options) {
  return runDataplane(built.tree, points, options);
}

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);

  BenchJsonWriter json(benchOutputPath("BENCH_dataplane.json"), "dataplane");

  // ---- Part A: goodput / p99 vs loss on one fixed tree.
  const std::int64_t sweepHosts = args.full ? 2000 : 1000;
  const std::int64_t sweepPackets =
      args.packets > 0 ? args.packets : (args.full ? 800 : 400);
  Rng rng(deriveSeed(args.seed, 0xDA7A));
  const std::vector<Point> points =
      sampleDiskWithCenterSource(rng, sweepHosts, 2);
  const PolarGridResult built =
      buildPolarGridTree(points, 0, {.maxOutDegree = 6});

  const std::vector<SweepRow> rows = {
      {"loss_0", 0.0, false},        {"loss_0.1%", 0.001, false},
      {"loss_1%", 0.01, false},      {"loss_5%", 0.05, false},
      {"loss_10%", 0.10, false},     {"burst_1%", 0.0, true},
  };

  TextTable table({"Row", "Loss", "Goodput/s", "p50 ms", "p95 ms", "p99 ms",
                   "Retx/delivery", "NACKs", "Completed"});
  for (const SweepRow& row : rows) {
    DataplaneOptions options;
    options.seed = deriveSeed(args.seed, 0xDA7A01);
    options.packetCount = sweepPackets;
    options.maxOutDegree = 6;
    options.controlLoss = 0.005;
    if (row.bursty) {
      // Mean loss matched to the 1% i.i.d. row: 5% of time in a bad state
      // dropping 20%, stationary loss = 0.95 * 0 + 0.05 * 0.2 = 1%.
      options.burst.burstStartProbability = 0.01;
      options.burst.burstStopProbability = 0.19;
      options.burst.burstLossProbability = 0.2;
    } else {
      options.lossProbability = row.loss;
    }
    const double meanLoss =
        row.bursty
            ? options.burst.stationaryLossProbability(options.lossProbability)
            : row.loss;
    const DataplaneResult result = runSession(built, points, options);
    const double goodput =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.deliveries) / result.wallSeconds
            : 0.0;
    const double retxPerDelivery =
        result.deliveries > 0
            ? static_cast<double>(result.retransmits) /
                  static_cast<double>(result.deliveries)
            : 0.0;
    table.addRow({row.label, TextTable::num(100.0 * meanLoss, 2) + "%",
                  TextTable::count(static_cast<long long>(goodput)),
                  TextTable::num(result.deliveryLatency.p50() * 1e3, 2),
                  TextTable::num(result.deliveryLatency.p95() * 1e3, 2),
                  TextTable::num(result.deliveryLatency.p99() * 1e3, 2),
                  TextTable::num(retxPerDelivery, 4),
                  TextTable::count(result.nacksSent),
                  result.completed ? "yes" : "NO"});
    json.beginRow();
    json.field("label", row.label);
    json.field("loss", meanLoss);
    json.field("bursty", static_cast<std::int64_t>(row.bursty ? 1 : 0));
    json.field("hosts", sweepHosts);
    json.field("packets", sweepPackets);
    json.field("goodput_pps", goodput);
    json.field("p50_ms", result.deliveryLatency.p50() * 1e3);
    json.field("p95_ms", result.deliveryLatency.p95() * 1e3);
    json.field("p99_ms", result.deliveryLatency.p99() * 1e3);
    json.field("retx_per_delivery", retxPerDelivery);
    json.field("nacks", result.nacksSent);
    json.field("queue_drops", result.queueDrops);
    json.field("link_losses", result.linkLosses);
    json.field("completed", static_cast<std::int64_t>(result.completed));
    json.endRow();
  }
  std::cout << table.str() << "\n";

  // ---- Part B: the zero-loss event-loop rate row (n = 10k).
  const std::int64_t rateHosts = args.hosts > 0 ? args.hosts : 10000;
  const std::int64_t ratePackets = args.packets > 0 ? args.packets : 500;
  Rng rateRng(deriveSeed(args.seed, 0xDA7A02));
  const std::vector<Point> ratePoints =
      sampleDiskWithCenterSource(rateRng, rateHosts, 2);
  const PolarGridResult rateTree =
      buildPolarGridTree(ratePoints, 0, {.maxOutDegree = 6});

  DataplaneOptions rate;
  rate.seed = deriveSeed(args.seed, 0xDA7A03);
  rate.packetCount = ratePackets;
  rate.packetInterval = 1e-3;
  // Short propagation keeps the in-flight event population (arrival rate
  // times flight time) bounded, so the heap stays small and the run
  // measures event-loop rate, not allocator churn.
  rate.propagationFactor = 0.01;
  rate.maxOutDegree = 6;
  const DataplaneResult rateRun = runSession(rateTree, ratePoints, rate);
  const double zeroLossGoodput =
      rateRun.wallSeconds > 0.0
          ? static_cast<double>(rateRun.deliveries) / rateRun.wallSeconds
          : 0.0;

  std::cout << "zero-loss rate row: " << rateHosts << " hosts, "
            << ratePackets << " packets\n"
            << "  deliveries      " << rateRun.deliveries << "\n"
            << "  events          " << rateRun.eventsProcessed << "\n"
            << "  wall seconds    " << TextTable::num(rateRun.wallSeconds, 3)
            << "\n"
            << "  goodput         "
            << TextTable::count(static_cast<long long>(zeroLossGoodput))
            << " packets/s\n"
            << "  completed       " << (rateRun.completed ? "yes" : "NO")
            << "\n";

  json.topLevel("zero_loss_goodput_pps", zeroLossGoodput);
  json.topLevel("zero_loss_hosts", static_cast<double>(rateHosts));
  json.topLevel("zero_loss_packets", static_cast<double>(ratePackets));
  json.topLevel("zero_loss_completed", rateRun.completed ? 1.0 : 0.0);
  json.close();
  maybeWriteMetricsSnapshot(benchOutputPath("BENCH_dataplane_metrics.json"));
  std::cout << "(wrote " << benchOutputPath("BENCH_dataplane.json") << ")\n";

  bool pass = rateRun.completed;
  if (!pass)
    std::cerr << "FAIL: zero-loss session did not complete ("
              << rateRun.undelivered << " undelivered)\n";
  if (args.minGoodput > 0.0 && zeroLossGoodput < args.minGoodput) {
    std::cerr << "FAIL: zero-loss goodput " << zeroLossGoodput
              << " packets/s below the required " << args.minGoodput << "\n";
    pass = false;
  }
  return pass ? 0 : 1;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
