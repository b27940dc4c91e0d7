// dataplane-lossy: packet-level sessions (runDataplane) with distinct
// derived seeds over 2,000-host Polar_Grid trees built in set-up, under
// Gilbert–Elliott bursty loss at a 1% stationary mean plus 0.5% control
// loss. Recovery and the uplink queues do real work here (about one
// retransmit and one queue drop per four deliveries), while the clean
// forwarding that carries most of the traffic guards the fast path.
#include <algorithm>
#include <optional>
#include <vector>

#include "harness.h"
#include "omt/core/bounds.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/obs/trace.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"
#include "omt/sim/dataplane/engine.h"
#include "omt/tree/metrics.h"
#include "omt/tree/validation.h"

namespace omtbench {
namespace {

namespace dp = omt::dataplane;

constexpr std::int64_t kHosts = 2000;
constexpr std::int64_t kPackets = 2000;
constexpr int kDegree = 6;
/// Trees (point sets) the sessions cycle through. Delivery latency depends
/// mostly on the tree, so one tree per seed would make the sim-time
/// figures swing with the seed.
constexpr int kTrees = 4;
/// The sim-time figures come from this fixed prefix of sessions, so they
/// are identical across runs at one seed.
constexpr int kReportedSessions = 3 * kTrees;

struct Overlay {
  std::vector<omt::Point> points;
  omt::MulticastTree tree;
  double ratio = 0.0;  ///< tree radius over the lower bound
};

dp::DataplaneOptions sessionOptions(std::uint64_t seed) {
  dp::DataplaneOptions o;
  o.packetCount = kPackets;
  o.packetInterval = 1e-3;
  o.propagationFactor = 0.1;  // a 100 ms disk radius
  // bench_dataplane's burst_1% row: 5% of the time in a bad state that
  // drops 20%, stationary loss 1%.
  o.burst.burstStartProbability = 0.01;
  o.burst.burstStopProbability = 0.19;
  o.burst.burstLossProbability = 0.2;
  o.controlLoss = 0.005;
  o.maxOutDegree = kDegree;
  o.seed = seed;
  return o;
}

/// Deliveries of a complete session: the engine counts the source's own
/// emission as a delivery, so every host delivers every packet once.
constexpr std::int64_t kExpectedDeliveries = kHosts * kPackets;

std::string check(const dp::DataplaneResult& r) {
  const std::int64_t expected = kExpectedDeliveries;
  if (!r.completed) return "session did not complete";
  if (r.undelivered != 0)
    return std::to_string(r.undelivered) + " packet(s) undelivered";
  if (r.deliveries != expected)
    return std::to_string(r.deliveries) + " deliveries, expected " +
           std::to_string(expected);
  return {};
}

double perDelivery(std::int64_t count, const dp::DataplaneResult& r) {
  return static_cast<double>(count) /
         static_cast<double>(std::max<std::int64_t>(r.deliveries, 1));
}

}  // namespace

Outcome runDataplane(const Config& config) {
  std::vector<Overlay> overlays;
  const double setupSeconds = medianSetupSeconds([&] {
    overlays.clear();
    omt::PolarGridOptions options;
    options.maxOutDegree = kDegree;
    options.workers = kWorkers;
    for (int t = 0; t < kTrees; ++t) {
      omt::Rng rng(omt::deriveSeed(config.seed, 0xDA7A + t));
      std::vector<omt::Point> points = omt::sampleDiskWithCenterSource(rng, kHosts, 2);
      omt::PolarGridResult built = omt::buildPolarGridTree(points, 0, options);
      if (!omt::validate(built.tree, {.maxOutDegree = kDegree}))
        throw std::runtime_error("set-up built an invalid tree");
      const std::vector<double> delays = omt::computeDelays(built.tree, points);
      const double ratio = *std::max_element(delays.begin(), delays.end()) /
                           omt::radiusLowerBound(points, 0);
      overlays.push_back({std::move(points), std::move(built.tree), ratio});
    }
    // Untimed warm-up session.
    const std::string problem =
        check(dp::runDataplane(overlays[0].tree, overlays[0].points,
                               sessionOptions(omt::deriveSeed(config.seed, 0xDA7A0))));
    if (!problem.empty()) throw std::runtime_error("warm-up session: " + problem);
  });
  std::vector<double> treeRatios;
  for (const Overlay& o : overlays) treeRatios.push_back(o.ratio);

  Outcome out;
  std::vector<double> untracedNs;  // wall ns per delivery, one per session
  std::vector<double> tracedNs;
  std::vector<double> p50Ms;
  std::vector<double> p99Ms;
  std::vector<double> retx;
  struct Layer {
    std::vector<double> nsPerEvent, eventsPerDelivery, queueDrops, peakQueue,
        nacks, syncs, usefulRetx, peakReorder, retx;
  } layer;
  OpTally tally;
  const std::int64_t start = nowNs();
  for (int s = 0; keepRunning(start, config.seconds, s, kReportedSessions); ++s) {
    const dp::DataplaneOptions options =
        sessionOptions(omt::deriveSeed(omt::deriveSeed(config.seed, 0x5E55), s));
    const Overlay& overlay = overlays[static_cast<std::size_t>(s % kTrees)];
    // Sessions are traced in alternate blocks of one per tree, so traced and
    // untraced sessions cover the same trees.
    const bool traced = config.trace && (s / kTrees) % 2 == 1;
    std::optional<dp::DataplaneResult> result;
    double wallNs = 0.0;
    {
      const TracedScope scope(traced);
      if (traced) tally.begin();
      omt::obs::TraceSpan span("bench.session", "bench");
      const std::int64_t t0 = nowNs();
      result.emplace(dp::runDataplane(overlay.tree, overlay.points, options));
      wallNs = static_cast<double>(nowNs() - t0);
      span.end();
      if (traced) tally.end();
    }
    const dp::DataplaneResult& r = *result;
    const std::int64_t expected = kExpectedDeliveries;
    out.attempted += expected;
    if (const std::string problem = check(r); !problem.empty()) {
      out.failed += std::max<std::int64_t>(expected - r.deliveries, 1);
      out.notes.push_back("session " + std::to_string(s) + ": " + problem);
      continue;
    }
    (traced ? tracedNs : untracedNs).push_back(wallNs / static_cast<double>(r.deliveries));
    if (s < kReportedSessions) {
      p50Ms.push_back(r.deliveryLatency.p50() * 1e3);
      p99Ms.push_back(r.deliveryLatency.p99() * 1e3);
      retx.push_back(perDelivery(r.retransmits, r));
    }
    if (traced) {
      layer.nsPerEvent.push_back(wallNs / static_cast<double>(r.eventsProcessed));
      layer.eventsPerDelivery.push_back(perDelivery(r.eventsProcessed, r));
      layer.queueDrops.push_back(perDelivery(r.queueDrops, r));
      layer.peakQueue.push_back(static_cast<double>(r.peakQueueDepth));
      layer.nacks.push_back(perDelivery(r.nacksSent, r));
      layer.syncs.push_back(perDelivery(r.syncsSent, r));
      // A retransmission that arrives as a suppressed duplicate was wasted.
      layer.usefulRetx.push_back(
          r.retransmits > 0
              ? std::clamp(1.0 - static_cast<double>(r.duplicatesSuppressed) /
                                     static_cast<double>(r.retransmits),
                           0.0, 1.0)
              : 1.0);
      layer.peakReorder.push_back(static_cast<double>(r.peakReorderBuffered));
      layer.retx.push_back(perDelivery(r.retransmits, r));
    }
  }

  const auto sessions = static_cast<std::int64_t>(untracedNs.size());
  const auto reported = static_cast<std::int64_t>(p50Ms.size());
  const double nsPerDelivery = median(untracedNs);
  out.endToEnd["setup_s"] = {setupSeconds, "s", kSetups};
  out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB", 1};
  out.endToEnd["ns_per_item"] = {nsPerDelivery, "ns", sessions};
  // Sim-time figures are deterministic per session; the mean over the
  // reported sessions weighs every tree equally.
  out.endToEnd["op_p50_ms"] = {mean(p50Ms), "ms", reported};
  out.endToEnd["op_tail_ms"] = {mean(p99Ms), "ms", reported};
  out.endToEnd["radius_ratio"] = {mean(treeRatios), "ratio", kTrees};
  out.detail["deliveries_per_s"] = {nsPerDelivery > 0.0 ? 1e9 / nsPerDelivery : 0.0,
                                    "1/s", sessions};
  out.detail["delivery_p50_ms"] = {mean(p50Ms), "ms", reported};
  out.detail["delivery_p99_ms"] = {mean(p99Ms), "ms", reported};
  out.detail["retx_per_delivery"] = {mean(retx), "count", reported};

  if (config.trace) {
    const auto n = static_cast<std::int64_t>(layer.nsPerEvent.size());
    out.perLayer["dataplane.ns_per_event"] = {median(layer.nsPerEvent), "ns", n};
    out.perLayer["dataplane.events_per_delivery"] = {median(layer.eventsPerDelivery), "count", n};
    out.perLayer["link.queue_drops_per_delivery"] = {median(layer.queueDrops), "count", n};
    out.perLayer["link.peak_queue_depth"] = {median(layer.peakQueue), "count", n};
    out.perLayer["recovery.nacks_per_delivery"] = {median(layer.nacks), "count", n};
    out.perLayer["recovery.syncs_per_delivery"] = {median(layer.syncs), "count", n};
    out.perLayer["recovery.useful_retx_frac"] = {median(layer.usefulRetx), "frac", n};
    out.perLayer["recovery.peak_reorder_buffered"] = {median(layer.peakReorder), "count", n};
    out.perLayer["recovery.retx_per_delivery"] = {median(layer.retx), "count", n};
    tally.report(out.perLayer);
    out.perLayer["trace.overhead_frac"] = {median(tracedNs) / nsPerDelivery - 1.0,
                                           "frac", n};
    out.notes.push_back("chrome trace: " + writeChromeTrace(config));
  }
  return out;
}

}  // namespace omtbench
