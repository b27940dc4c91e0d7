// Extension bench: the multi-group tree service.
//
// Generates deterministic multi-group membership scripts over a shared
// host population and replays them through GroupManager:
//   direct       uniform group sizes, direct session calls
//   direct-skew  Zipf-skewed group sizes (--skew, default 1.0)
//   rpc          uniform sizes through the reliable RPC layer with
//                disruption windows
// measuring sustained event throughput and the wall-clock event-to-route
// latency (batch ingress to the owning group's snapshot swap). A final
// section measures the publish cost per epoch against group size for the
// delta path vs the full rebuild (the delta-publication win: sublinear in
// group size). Emits BENCH_service.json with one row per mode plus the
// publish-cost curve, and prints the same as tables.
//
// Exits non-zero when a replay fails to converge, when direct-mode
// throughput (uniform OR skewed) falls below --min-events-per-sec (the CI
// perf floor; 0 disables), or when the skewed workload's throughput falls
// below the uniform workload's / 1.5 (skewed group sizes must not starve
// the workers that claim the groups).
#include "common.h"
#include "omt/service/replay.h"

namespace {

using namespace omt;
using namespace omt::bench;

double percentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct ModeResult {
  std::string mode;
  ReplayResult replay;
  double eventsPerSec = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::int64_t deltaPublishes = 0;
};

ModeResult runMode(const std::string& mode,
                   const std::vector<MembershipEvent>& events,
                   const Args& args, std::int64_t batch) {
  ServiceOptions service;
  service.shards = args.shards.value_or(0);
  service.seed = args.seed;
  service.measureLatency = true;
  if (mode == "rpc") {
    service.useRpc = true;
    service.injectDisruption = true;
  }
  GroupManager manager(service);

  ReplayOptions replay;
  replay.batchSize = batch;
  ModeResult result;
  result.mode = mode;
  result.replay = replayScript(manager, events, replay);
  result.eventsPerSec =
      result.replay.applySeconds > 0.0
          ? static_cast<double>(result.replay.events) /
                result.replay.applySeconds
          : 0.0;
  std::vector<double> latencies = result.replay.eventLatencies;
  std::sort(latencies.begin(), latencies.end());
  result.p50 = percentileOf(latencies, 0.50);
  result.p95 = percentileOf(latencies, 0.95);
  result.p99 = percentileOf(latencies, 0.99);
  result.deltaPublishes = manager.stats().deltaPublishes;
  return result;
}

/// Seconds per publish for one group of `size` members under small
/// (8-event) churn batches, via the delta path or the full rebuild.
double publishCost(std::int64_t size, bool delta, std::uint64_t seed) {
  ServiceOptions service;
  service.shards = 1;
  service.deltaPublish = delta;
  GroupManager manager(service);
  Rng rng(seed);
  std::vector<MembershipEvent> seedBatch;
  for (std::int64_t h = 0; h < size; ++h)
    seedBatch.push_back({0.0, 0, ServiceEventKind::kJoin, h,
                         sampleUnitBall(rng, 2)});
  manager.apply(seedBatch);

  // Steady-state: each batch leaves then re-joins a 4-host tail slice, so
  // every batch publishes one epoch with a bounded dirty set.
  const int rounds = 200;
  std::vector<MembershipEvent> leave4;
  std::vector<MembershipEvent> join4;
  for (std::int64_t h = size - 4; h < size; ++h) {
    leave4.push_back({0.0, 0, ServiceEventKind::kLeave, h, Point()});
    join4.push_back({0.0, 0, ServiceEventKind::kJoin, h,
                     sampleUnitBall(rng, 2)});
  }
  Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    manager.apply(leave4);
    manager.apply(join4);
  }
  const double seconds = watch.seconds();
  return seconds / (2.0 * rounds);
}

int runBench(const Args& args) {
  ScriptOptions script;
  script.groups = args.groups > 0 ? args.groups : (args.full ? 1000 : 500);
  script.hosts = args.hosts > 0 ? args.hosts : (args.full ? 20000 : 10000);
  script.events =
      args.events > 0 ? args.events : (args.full ? 1000000 : 200000);
  script.seed = args.seed;
  const std::int64_t batch = 1024;
  const double skew = args.skew > 0.0 ? args.skew : 1.0;

  std::cout << "Multi-group service replay: " << script.events << " events, "
            << script.groups << " groups, " << script.hosts
            << " hosts, batch " << batch << ", skew row at " << skew << "\n\n";
  const std::vector<MembershipEvent> events =
      generateMembershipScript(script);
  ScriptOptions skewedScript = script;
  skewedScript.sizeSkew = skew;
  const std::vector<MembershipEvent> skewedEvents =
      generateMembershipScript(skewedScript);

  BenchJsonWriter json(benchOutputPath("BENCH_service.json"), "service");
  TextTable table({"mode", "events/s", "groups", "publishes", "delta",
                   "degraded", "p50 ms", "p99 ms"});
  bool converged = true;
  double directRate = 0.0;
  double skewRate = 0.0;
  for (const std::string mode : {"direct", "direct-skew", "rpc"}) {
    const bool skewed = mode == "direct-skew";
    const ModeResult r =
        runMode(skewed ? "direct" : mode, skewed ? skewedEvents : events,
                args, batch);
    converged = converged && r.replay.converged();
    if (mode == "direct") {
      directRate = r.eventsPerSec;
    } else if (skewed) {
      skewRate = r.eventsPerSec;
    }
    if (!r.replay.converged()) {
      std::cerr << "FAIL (" << mode << "): " << r.replay.degradedGroups
                << " degraded / " << r.replay.inconsistentGroups
                << " inconsistent group(s)";
      if (!r.replay.firstInconsistency.empty())
        std::cerr << " — " << r.replay.firstInconsistency;
      std::cerr << "\n";
    }
    table.addRow({mode,
                  TextTable::count(static_cast<long long>(r.eventsPerSec)),
                  TextTable::count(r.replay.groups),
                  TextTable::count(r.replay.publishes),
                  TextTable::count(r.deltaPublishes),
                  TextTable::count(r.replay.degradedGroups),
                  TextTable::num(r.p50 * 1e3, 3),
                  TextTable::num(r.p99 * 1e3, 3)});
    json.beginRow();
    json.field("mode", mode);
    json.field("events", r.replay.events);
    json.field("groups", r.replay.groups);
    json.field("publishes", r.replay.publishes);
    json.field("delta_publishes", r.deltaPublishes);
    json.field("degraded_groups", r.replay.degradedGroups);
    json.field("inconsistent_groups", r.replay.inconsistentGroups);
    json.field("apply_seconds", r.replay.applySeconds);
    json.field("events_per_second", r.eventsPerSec);
    json.field("p50_latency_ms", r.p50 * 1e3);
    json.field("p95_latency_ms", r.p95 * 1e3);
    json.field("p99_latency_ms", r.p99 * 1e3);
    json.endRow();
  }
  std::cout << table.str();

  // Publish-cost curve: seconds per published epoch for one group of n
  // members under bounded churn — the delta path must grow sublinearly
  // where the full rebuild pays its DFS + sort every time.
  TextTable curve({"group size", "delta us/publish", "full us/publish",
                   "speedup"});
  for (const std::int64_t size : {256, 1024, 4096}) {
    const double deltaCost = publishCost(size, true, args.seed);
    const double fullCost = publishCost(size, false, args.seed);
    curve.addRow({TextTable::count(size),
                  TextTable::num(deltaCost * 1e6, 2),
                  TextTable::num(fullCost * 1e6, 2),
                  TextTable::num(fullCost / std::max(1e-12, deltaCost), 2)});
    json.beginRow();
    json.field("mode", std::string("publish-cost"));
    json.field("group_size", size);
    json.field("delta_seconds_per_publish", deltaCost);
    json.field("full_seconds_per_publish", fullCost);
    json.endRow();
  }
  std::cout << "\npublish cost (8-event churn batches, one group):\n"
            << curve.str();

  json.topLevel("events", static_cast<double>(script.events));
  json.topLevel("groups", static_cast<double>(script.groups));
  json.topLevel("hosts", static_cast<double>(script.hosts));
  json.topLevel("batch", static_cast<double>(batch));
  json.topLevel("skew", skew);
  json.topLevel("direct_events_per_second", directRate);
  json.topLevel("skew_events_per_second", skewRate);
  json.topLevel("converged", converged ? 1.0 : 0.0);
  json.close();
  maybeWriteMetricsSnapshot(benchOutputPath("BENCH_service_metrics.json"));

  bool pass = converged;
  if (args.minEventsPerSec > 0.0) {
    if (directRate < args.minEventsPerSec) {
      std::cerr << "FAIL: direct-mode " << directRate
                << " events/s below the required " << args.minEventsPerSec
                << "\n";
      pass = false;
    }
    if (skewRate < args.minEventsPerSec) {
      std::cerr << "FAIL: skewed direct-mode " << skewRate
                << " events/s below the required " << args.minEventsPerSec
                << "\n";
      pass = false;
    }
  }
  // Skewed group sizes put most of a batch's work in a few groups; the
  // workers claiming them must still keep within 1.5x of the uniform
  // workload's throughput.
  if (skewRate * 1.5 < directRate) {
    std::cerr << "FAIL: skewed direct-mode " << skewRate
              << " events/s below the uniform " << directRate
              << " events/s / 1.5\n";
    pass = false;
  }
  if (pass) std::cout << "\nSERVICE OK: all modes converged\n";
  return pass ? 0 : 1;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    return runBench(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
