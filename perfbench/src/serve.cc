// serve-skew: the multi-group route service (GroupManager, direct
// transport) replaying a Zipf-skewed membership script in 1024-event
// apply() batches — a closed-loop writer — while one reader thread resolves
// routes open-loop at a fixed rate from a pre-generated schedule. Skew puts
// hot groups (delta vs full publish, ring splits, shard migration) and tiny
// groups into one stream; the reader makes a write-path change that costs
// readers visible.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "harness.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/random/rng.h"
#include "omt/service/group_manager.h"
#include "omt/service/script.h"

namespace omtbench {
namespace {

constexpr std::int64_t kGroups = 1000;
constexpr std::int64_t kHosts = 20000;
constexpr std::int64_t kEvents = 600000;
constexpr std::int64_t kBatch = 1024;
constexpr double kSizeSkew = 1.0;
constexpr double kLookupsPerSecond = 50000.0;
/// One traced lookup in this many records spans; a span per lookup would
/// make the lookups most of the trace.
constexpr std::int64_t kLookupSpanStride = 64;

struct Lookup {
  omt::GroupId group = 0;
  std::uint64_t pick = 0;  ///< member index = pick % table size
};

/// Everything the seed determines: the script, the hosts' positions, and
/// the reader's schedule (groups drawn with the script's Zipf weights).
struct Inputs {
  std::vector<omt::MembershipEvent> events;
  std::vector<omt::Point> positions;  ///< by HostId
  std::vector<Lookup> schedule;
};

Inputs makeInputs(const Config& config) {
  Inputs in;
  omt::ScriptOptions script;
  script.groups = kGroups;
  script.hosts = kHosts;
  script.events = kEvents;
  script.sizeSkew = kSizeSkew;
  script.seed = omt::deriveSeed(config.seed, 0x5E);
  in.events = omt::generateMembershipScript(script);
  in.positions.assign(static_cast<std::size_t>(kHosts), omt::Point(2));
  for (const omt::MembershipEvent& e : in.events)
    if (e.kind == omt::ServiceEventKind::kJoin)
      in.positions[static_cast<std::size_t>(e.host)] = e.position;

  std::vector<double> cumulative;
  double total = 0.0;
  for (omt::GroupId g = 0; g < kGroups; ++g) {
    total += std::pow(static_cast<double>(g + 1), -kSizeSkew);
    cumulative.push_back(total);
  }
  omt::Rng rng(omt::deriveSeed(config.seed, 0x100C));
  // The writer finishes its last replay after `seconds`; the slack covers
  // it, and the reader wraps around should it ever run out.
  const auto count =
      static_cast<std::size_t>(kLookupsPerSecond * (config.seconds + 10.0));
  in.schedule.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform() * total;
    const auto g = std::min<std::int64_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin(),
        kGroups - 1);
    in.schedule.push_back({g, rng.nextU64()});
  }
  return in;
}

/// Tree radius of a published table over the script's positions, from the
/// group origin (the coordinate origin), divided by the lower bound: the
/// farthest member's straight-line distance.
double radiusRatio(const omt::RouteTable& table,
                   const std::vector<omt::Point>& positions) {
  const auto at = [&](omt::HostId h) -> const omt::Point& {
    return positions[static_cast<std::size_t>(h)];
  };
  std::vector<std::pair<omt::HostId, double>> stack;
  for (const omt::HostId h : table.originChildren())
    stack.emplace_back(h, omt::norm(at(h)));
  double radius = 0.0;
  double bound = 0.0;
  while (!stack.empty()) {
    const auto [host, delay] = stack.back();
    stack.pop_back();
    radius = std::max(radius, delay);
    bound = std::max(bound, omt::norm(at(host)));
    for (const omt::HostId child : table.childrenOf(host))
      stack.emplace_back(child, delay + omt::distance(at(host), at(child)));
  }
  return bound > 0.0 ? radius / bound : 1.0;
}

/// Write-side figures summed over replays.
struct WriterTally {
  std::vector<double> applyMs;  ///< one per batch
  std::int64_t batches = 0;
  std::int64_t publishes = 0;
  std::int64_t groupsTouched = 0;
  std::int64_t deltaPublishes = 0;
  std::int64_t migrations = 0;
  double imbalanceSum = 0.0;  ///< of per-batch max/mean shard load
  std::int64_t imbalanceBatches = 0;
  std::vector<double> nsPerEvent;  ///< one per replay
};

/// Replays the whole script into a fresh `manager`, then quiesces and audits
/// every final table. Returns the first problem found (empty when the
/// replay converged and every table passed its kFull audit); `ratio` gets
/// the mean radius ratio over non-empty tables.
std::string replay(omt::GroupManager& manager, const Inputs& inputs,
                   WriterTally& tally, OpTally* ops, double& ratio) {
  const std::span<const omt::MembershipEvent> events(inputs.events);
  std::vector<std::int64_t> loadsBefore;
  std::int64_t applyNs = 0;
  std::int64_t batches = 0;
  if (ops) ops->begin();
  for (std::size_t at = 0; at < events.size(); at += kBatch) {
    const auto batch = events.subspan(
        at, std::min<std::size_t>(kBatch, events.size() - at));
    const std::int64_t migrations = manager.stats().migrations;
    loadsBefore.assign(manager.shardLoads().begin(), manager.shardLoads().end());
    omt::obs::TraceSpan span("bench.apply", "bench");
    const std::int64_t t0 = nowNs();
    const omt::ApplyReport report = manager.apply(batch);
    const std::int64_t dt = nowNs() - t0;
    span.end();
    applyNs += dt;
    ++batches;
    tally.applyMs.push_back(static_cast<double>(dt) / 1e6);
    tally.publishes += report.publishes;
    tally.groupsTouched += report.groupsTouched;
    tally.deltaPublishes += report.deltaPublishes;
    tally.migrations += manager.stats().migrations - migrations;
    const auto loads = manager.shardLoads();
    double maxLoad = 0.0;
    double sumLoad = 0.0;
    for (std::size_t s = 0; s < loads.size(); ++s) {
      const auto load = static_cast<double>(loads[s] - loadsBefore[s]);
      maxLoad = std::max(maxLoad, load);
      sumLoad += load;
    }
    if (sumLoad > 0.0) {
      tally.imbalanceSum += maxLoad * static_cast<double>(loads.size()) / sumLoad;
      ++tally.imbalanceBatches;
    }
  }
  if (ops) ops->end(batches);
  tally.batches += batches;

  const std::int64_t t0 = nowNs();
  const std::int64_t degraded = manager.quiesce(events.back().time);
  applyNs += nowNs() - t0;
  tally.nsPerEvent.push_back(static_cast<double>(applyNs) /
                             static_cast<double>(events.size()));
  if (degraded != 0)
    return std::to_string(degraded) + " group(s) still degraded after quiesce";

  const int cap = manager.options().session.maxOutDegree;
  double ratioSum = 0.0;
  std::int64_t live = 0;
  for (const omt::GroupId group : manager.createdGroups()) {
    const auto table = manager.routes(group);
    if (!table) continue;
    const auto audit =
        table->checkConsistency(cap, omt::RouteTable::AuditMode::kFull);
    if (!audit.ok)
      return "group " + std::to_string(group) + ": " + audit.message;
    if (table->empty()) continue;
    ratioSum += radiusRatio(*table, inputs.positions);
    ++live;
  }
  ratio = live > 0 ? ratioSum / static_cast<double>(live) : 0.0;
  return {};
}

/// The manager the reader resolves against. The writer installs a fresh
/// manager per replay under the mutex and destroys the old one after
/// releasing it; the reader holds the mutex across one lookup, so it never
/// touches a destroyed manager and never waits on a replay.
struct ManagerBox {
  std::mutex mutex;
  std::unique_ptr<omt::GroupManager> current;
};

struct ReaderTally {
  std::vector<double> latencyNs;  ///< lookup end - due time
  std::int64_t lookups = 0;
  std::int64_t failed = 0;
  std::string firstFailure;
  double lateSumNs = 0.0;  ///< how late the generator ran: start - due time
  double lateMaxNs = 0.0;
  // Traced lookups only.
  std::int64_t traced = 0;
  double routesNs = 0.0;  ///< routes(): snapshot pointer load
  double walkNs = 0.0;    ///< parentOf chain up to the origin
  double hops = 0.0;
  double lateNs = 0.0;    ///< lookup start - due time
};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Open loop: lookup i is due at start + i / rate whatever the writer does;
/// a reader that falls behind issues the overdue lookups back to back, and
/// each one's latency counts from its due time.
void readLoop(ManagerBox& box, const std::vector<Lookup>& schedule,
              std::int64_t startNs, const std::atomic<bool>& stop,
              const std::atomic<bool>& traced, ReaderTally& out) {
  const double periodNs = 1e9 / kLookupsPerSecond;
  for (std::int64_t i = 0;; ++i) {
    const auto dueNs =
        startNs + static_cast<std::int64_t>(static_cast<double>(i) * periodNs);
    std::int64_t t0 = nowNs();
    while (t0 < dueNs && !stop.load(std::memory_order_relaxed)) {
      cpuRelax();
      t0 = nowNs();
    }
    if (stop.load(std::memory_order_relaxed)) return;
    const Lookup& lookup = schedule[static_cast<std::size_t>(i) % schedule.size()];
    const bool trace = traced.load(std::memory_order_relaxed);
    std::optional<omt::obs::TraceSpan> span;
    if (trace && i % kLookupSpanStride == 0) span.emplace("bench.lookup", "bench");
    std::int64_t tMid = 0;
    std::int64_t hops = 0;
    bool ok = true;
    {
      const std::lock_guard<std::mutex> lock(box.mutex);
      std::optional<omt::obs::TraceSpan> routesSpan;
      if (span) routesSpan.emplace("bench.routes", "bench", span->id());
      const std::shared_ptr<const omt::RouteTable> table =
          box.current->routes(lookup.group);
      routesSpan.reset();
      if (trace) tMid = nowNs();
      if (table && !table->empty()) {
        std::optional<omt::obs::TraceSpan> walkSpan;
        if (span) walkSpan.emplace("bench.walk", "bench", span->id());
        const std::int64_t size = table->size();
        omt::HostId host =
            table->hosts()[static_cast<std::size_t>(lookup.pick % static_cast<std::uint64_t>(size))];
        for (;;) {
          const omt::HostId parent = table->parentOf(host);
          if (parent == omt::kNoHost) break;
          if (parent == omt::kNotMember || ++hops > size) {
            ok = false;
            break;
          }
          host = parent;
        }
      }
    }
    span.reset();
    const std::int64_t t1 = nowNs();
    out.latencyNs.push_back(static_cast<double>(t1 - dueNs));
    ++out.lookups;
    const auto late = static_cast<double>(t0 - dueNs);
    out.lateSumNs += late;
    out.lateMaxNs = std::max(out.lateMaxNs, late);
    if (!ok) {
      ++out.failed;
      if (out.firstFailure.empty())
        out.firstFailure = "lookup in group " + std::to_string(lookup.group) +
                           " did not reach the origin";
    }
    if (trace) {
      ++out.traced;
      out.routesNs += static_cast<double>(tMid - t0);
      out.walkNs += static_cast<double>(t1 - tMid);
      out.hops += static_cast<double>(hops);
      out.lateNs += late;
    }
  }
}

/// Deterministic protocol counters (recorded only while tracing is on).
struct ProtocolCounts {
  double splits = 0.0, merges = 0.0, scopedRebuilds = 0.0, regrids = 0.0;
  static ProtocolCounts now() {
    auto& r = omt::obs::MetricsRegistry::global();
    return {static_cast<double>(r.counter("omt_protocol_splits_total").value()),
            static_cast<double>(r.counter("omt_protocol_merges_total").value()),
            static_cast<double>(r.counter("omt_protocol_scoped_rebuilds_total").value()),
            static_cast<double>(r.counter("omt_protocol_regrids_total").value())};
  }
};

}  // namespace

Outcome runServe(const Config& config) {
  omt::ServiceOptions options;
  options.shards = kWorkers;
  options.seed = omt::deriveSeed(config.seed, 0x5E4D);

  Inputs inputs;
  const double setupSeconds = medianSetupSeconds([&] {
    inputs = makeInputs(config);
    // Untimed warm-up replay: the first replay in a process is ~30% slower.
    omt::GroupManager warm(options);
    WriterTally ignored;
    double ratio = 0.0;
    const std::string problem = replay(warm, inputs, ignored, nullptr, ratio);
    if (!problem.empty()) throw std::runtime_error("warm-up replay: " + problem);
  });

  Outcome out;
  WriterTally untraced;
  WriterTally traced;
  OpTally ops;
  ProtocolCounts protocol;
  std::int64_t tracedReplays = 0;
  std::vector<double> ratios;
  ReaderTally reader;
  reader.latencyNs.reserve(inputs.schedule.size());

  ManagerBox box;
  box.current = std::make_unique<omt::GroupManager>(options);
  std::atomic<bool> stop{false};
  std::atomic<bool> readerTraced{false};
  const std::int64_t start = nowNs();
  {
    std::thread readerThread([&] {
      readLoop(box, inputs.schedule, start, stop, readerTraced, reader);
    });
    struct Join {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~Join() {
        stop.store(true);
        thread.join();
      }
    } join{stop, readerThread};

    for (int r = 0; keepRunning(start, config.seconds, r, 1); ++r) {
      if (r > 0) {
        auto fresh = std::make_unique<omt::GroupManager>(options);
        {
          const std::lock_guard<std::mutex> lock(box.mutex);
          std::swap(box.current, fresh);
        }
        // `fresh` now owns the finished manager and destroys it here.
      }
      const bool isTraced = config.trace && r % 2 == 1;
      readerTraced.store(isTraced);
      const TracedScope scope(isTraced);
      const ProtocolCounts before = ProtocolCounts::now();
      double ratio = 0.0;
      const std::int64_t batches0 = (isTraced ? traced : untraced).batches;
      const std::string problem =
          replay(*box.current, inputs, isTraced ? traced : untraced,
                 isTraced ? &ops : nullptr, ratio);
      const std::int64_t batches = (isTraced ? traced : untraced).batches - batches0;
      out.attempted += batches;
      if (isTraced) {
        const ProtocolCounts after = ProtocolCounts::now();
        protocol.splits += after.splits - before.splits;
        protocol.merges += after.merges - before.merges;
        protocol.scopedRebuilds += after.scopedRebuilds - before.scopedRebuilds;
        protocol.regrids += after.regrids - before.regrids;
        ++tracedReplays;
      }
      std::string failure = problem;
      if (failure.empty() && !ratios.empty() && ratio != ratios.front())
        failure = "replaying the same script changed the radius ratio";
      if (!failure.empty()) {
        out.failed += batches;
        out.notes.push_back("replay " + std::to_string(r) + ": " + failure);
        continue;
      }
      ratios.push_back(ratio);
    }
    readerTraced.store(false);
  }
  out.attempted += reader.lookups;
  out.failed += reader.failed;
  if (!reader.firstFailure.empty()) out.notes.push_back(reader.firstFailure);

  const double windowSeconds = secondsSince(start);
  const auto replays = static_cast<std::int64_t>(untraced.nsPerEvent.size());
  const double nsPerEvent = median(untraced.nsPerEvent);
  const double lookupP50 = quantile(reader.latencyNs, 0.50);
  const double lookupP99 = quantile(reader.latencyNs, 0.99);
  const auto applied = static_cast<std::int64_t>(untraced.applyMs.size());
  out.endToEnd["setup_s"] = {setupSeconds, "s", kSetups};
  out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB", 1};
  out.endToEnd["ns_per_item"] = {nsPerEvent, "ns", replays};
  out.endToEnd["op_p50_ms"] = {quantile(untraced.applyMs, 0.50), "ms", applied};
  out.endToEnd["op_tail_ms"] = {quantile(untraced.applyMs, 0.99), "ms", applied};
  out.endToEnd["radius_ratio"] = {ratios.empty() ? 0.0 : ratios.front(), "ratio",
                                  static_cast<std::int64_t>(ratios.size())};
  out.detail["events_per_s"] = {nsPerEvent > 0.0 ? 1e9 / nsPerEvent : 0.0,
                                "1/s", replays};
  out.detail["apply_p50_ms"] = {quantile(untraced.applyMs, 0.50), "ms", applied};
  out.detail["apply_p99_ms"] = {quantile(untraced.applyMs, 0.99), "ms", applied};
  out.detail["lookup_p50_us"] = {lookupP50 / 1e3, "us", reader.lookups};
  out.detail["lookup_p99_us"] = {lookupP99 / 1e3, "us", reader.lookups};
  out.detail["generator_late_mean_us"] = {
      reader.lateSumNs / static_cast<double>(std::max<std::int64_t>(reader.lookups, 1)) / 1e3,
      "us", reader.lookups};
  out.detail["generator_late_max_us"] = {reader.lateMaxNs / 1e3, "us", reader.lookups};
  out.detail["lookups_per_s"] = {static_cast<double>(reader.lookups) / windowSeconds,
                                 "1/s", reader.lookups};

  if (config.trace) {
    const double batches = static_cast<double>(std::max<std::int64_t>(traced.batches, 1));
    const double replaysTraced = static_cast<double>(std::max<std::int64_t>(tracedReplays, 1));
    const double lookups = static_cast<double>(std::max<std::int64_t>(reader.traced, 1));
    const auto n = traced.batches;
    out.perLayer["service.publishes_per_batch"] = {
        static_cast<double>(traced.publishes) / batches, "count/op", n};
    out.perLayer["service.groups_touched_per_batch"] = {
        static_cast<double>(traced.groupsTouched) / batches, "count/op", n};
    out.perLayer["service.delta_share"] = {
        traced.publishes > 0 ? static_cast<double>(traced.deltaPublishes) /
                                   static_cast<double>(traced.publishes)
                             : 0.0,
        "frac", traced.publishes};
    out.perLayer["service.migrations_per_batch"] = {
        static_cast<double>(traced.migrations) / batches, "count/op", n};
    out.perLayer["service.shard_imbalance"] = {
        traced.imbalanceBatches > 0
            ? traced.imbalanceSum / static_cast<double>(traced.imbalanceBatches)
            : 0.0,
        "ratio", traced.imbalanceBatches};
    out.perLayer["protocol.splits"] = {protocol.splits / replaysTraced, "count", tracedReplays};
    out.perLayer["protocol.merges"] = {protocol.merges / replaysTraced, "count", tracedReplays};
    out.perLayer["protocol.scoped_rebuilds"] = {protocol.scopedRebuilds / replaysTraced,
                                                "count", tracedReplays};
    out.perLayer["protocol.regrids"] = {protocol.regrids / replaysTraced, "count", tracedReplays};
    out.perLayer["service.routes_ns"] = {reader.routesNs / lookups, "ns", reader.traced};
    out.perLayer["route_table.walk_ns"] = {reader.walkNs / lookups, "ns", reader.traced};
    out.perLayer["route_table.walk_hops"] = {reader.hops / lookups, "count", reader.traced};
    out.perLayer["reader.late_us"] = {reader.lateNs / lookups / 1e3, "us", reader.traced};
    out.perLayer["reader.lookup_p50_us"] = {lookupP50 / 1e3, "us", reader.lookups};
    out.perLayer["reader.lookup_p99_us"] = {lookupP99 / 1e3, "us", reader.lookups};
    ops.report(out.perLayer);
    out.perLayer["trace.overhead_frac"] = {
        median(traced.nsPerEvent) / nsPerEvent - 1.0, "frac",
        static_cast<std::int64_t>(traced.nsPerEvent.size())};
    out.notes.push_back("chrome trace: " + writeChromeTrace(config));
  }
  return out;
}

}  // namespace omtbench
