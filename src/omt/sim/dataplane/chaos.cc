#include "omt/sim/dataplane/chaos.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "omt/common/error.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"

namespace omt::dataplane {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Decorrelate the driver's sampling streams from the engine seed.
constexpr std::uint64_t kCrashStream = 0xD47AC8A5;
constexpr std::uint64_t kPointStream = 0xD47A0101;

}  // namespace

DataplaneOptions defaultChaosEngineOptions() {
  DataplaneOptions engine;
  engine.packetCount = 400;
  engine.lossProbability = 0.02;
  engine.burst.burstLossProbability = 0.4;
  engine.burst.burstStartProbability = 0.01;
  engine.burst.burstStopProbability = 0.2;
  engine.controlLoss = 0.01;
  return engine;
}

DisruptionOptions defaultChaosDisruption() {
  DisruptionOptions disruption;
  disruption.partitionRate = 0.0;  // no packet-level analogue
  disruption.lossBurstRate = 0.5;
  disruption.lossBurstBoost = 0.3;
  disruption.lossBurstMeanLength = 0.5;
  return disruption;
}

std::vector<CrashEvent> sampleCrashSchedule(std::uint64_t seed,
                                            const MulticastTree& tree,
                                            double fraction, double window) {
  OMT_CHECK(fraction >= 0.0 && fraction <= 1.0,
            "crash fraction outside [0, 1]");
  OMT_CHECK(window >= 0.0, "negative crash window");
  std::vector<NodeId> candidates;
  candidates.reserve(static_cast<std::size_t>(tree.size()));
  for (NodeId v = 0; v < tree.size(); ++v)
    if (v != tree.root()) candidates.push_back(v);
  const auto victims = static_cast<std::size_t>(std::llround(
      fraction * static_cast<double>(candidates.size())));
  Rng rng(deriveSeed(seed, kCrashStream));
  std::vector<CrashEvent> crashes;
  crashes.reserve(victims);
  // Partial Fisher-Yates: the first `victims` slots become the victim set.
  for (std::size_t i = 0; i < victims && i < candidates.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniformInt(
                static_cast<std::uint64_t>(candidates.size() - i)));
    std::swap(candidates[i], candidates[j]);
    crashes.push_back({candidates[i], rng.uniform(0.0, window)});
  }
  std::sort(crashes.begin(), crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.node < b.node;
            });
  return crashes;
}

std::vector<LossBurstWindow> lossBurstsFromDisruption(
    const std::vector<DisruptionWindow>& windows) {
  std::vector<LossBurstWindow> bursts;
  for (const DisruptionWindow& w : windows) {
    if (w.lossBoost <= 0.0) continue;
    bursts.push_back({w.start, w.end, w.lossBoost});
  }
  return bursts;
}

std::uint64_t expectedLogHash(std::uint32_t firstSequence,
                              std::int64_t count) {
  std::uint64_t hash = kFnvOffset;
  std::uint64_t seq = firstSequence;
  for (std::int64_t i = 0; i < count; ++i, ++seq)
    hash = (hash ^ seq) * kFnvPrime;
  return hash;
}

DataplaneChaosResult runDataplaneChaos(const DataplaneChaosOptions& options) {
  OMT_CHECK(options.hostCount >= 1, "need at least one host");

  Rng pointRng(deriveSeed(options.seed, kPointStream));
  const std::vector<Point> points =
      sampleDiskWithCenterSource(pointRng, options.hostCount, options.dim);

  PolarGridOptions gridOptions;
  gridOptions.maxOutDegree = options.maxOutDegree;
  PolarGridResult built = buildPolarGridTree(points, 0, gridOptions);

  DataplaneOptions engine = options.engine;
  engine.seed = options.seed;
  engine.maxOutDegree = options.maxOutDegree;
  const double span = static_cast<double>(engine.packetCount) *
                      engine.packetInterval;
  engine.crashes = sampleCrashSchedule(options.seed, built.tree,
                                       options.crashFraction,
                                       options.crashWindowFraction * span);
  if (options.injectDisruption) {
    DisruptionOptions disruption = options.disruption;
    disruption.seed = deriveSeed(options.seed, 0xD47AB0);
    disruption.duration = span + 1.0;
    engine.lossBursts = lossBurstsFromDisruption(
        generateDisruption(disruption, options.dim));
  }
  if (options.heterogeneousBuffers && engine.retransmitBufferPerNode.empty()) {
    static constexpr std::int64_t kRingSizes[] = {64, 256, 1024};
    Rng ringRng(deriveSeed(options.seed, 0xD47AB2));
    engine.retransmitBufferPerNode.resize(
        static_cast<std::size_t>(built.tree.size()));
    for (auto& capacity : engine.retransmitBufferPerNode)
      capacity = kRingSizes[ringRng.uniformInt(3)];
    engine.retransmitBufferPerNode[static_cast<std::size_t>(
        built.tree.root())] = std::max<std::int64_t>(4096, engine.packetCount);
  }

  DataplaneChaosResult result;
  result.crashesScheduled = static_cast<std::int64_t>(engine.crashes.size());
  result.burstWindows = static_cast<std::int64_t>(engine.lossBursts.size());
  result.run = runDataplane(built.tree, points, engine);

  const DataplaneResult& run = result.run;
  auto fail = [&result](const std::string& what) {
    if (result.ok) {
      result.ok = false;
      result.failure = what;
    }
  };

  // Exactly-once, in-order delivery at every live receiver.
  const std::uint64_t fullHash =
      expectedLogHash(engine.firstSequence, engine.packetCount);
  const std::uint64_t streamEnd =
      static_cast<std::uint64_t>(engine.firstSequence) +
      static_cast<std::uint64_t>(engine.packetCount);
  for (NodeId v = 0; v < built.tree.size(); ++v) {
    const NodeReport& node = run.nodes[static_cast<std::size_t>(v)];
    if (node.crashed) {
      if (node.delivered > engine.packetCount) {
        std::ostringstream out;
        out << "crashed node " << v << " over-delivered: " << node.delivered;
        fail(out.str());
      }
      continue;
    }
    if (node.delivered != engine.packetCount ||
        node.nextExpected != streamEnd || node.logHash != fullHash) {
      std::ostringstream out;
      out << "node " << v << " broke exactly-once in-order delivery: "
          << node.delivered << "/" << engine.packetCount
          << " delivered, head " << node.nextExpected << " (want "
          << streamEnd << "), log hash "
          << (node.logHash == fullHash ? "ok" : "MISMATCH");
      fail(out.str());
    }
  }
  if (!run.completed) {
    std::ostringstream out;
    out << "run did not complete: " << run.undelivered
        << " undelivered packets" << (run.stalled ? " (stalled)" : "");
    fail(out.str());
  }

  // Bounded buffers: peaks must respect the configured capacities.
  const std::int64_t reorderCap = (engine.reorderWindow + 63) & ~63;
  if (run.peakReorderBuffered > reorderCap) {
    std::ostringstream out;
    out << "reorder window overflowed: peak " << run.peakReorderBuffered
        << " > capacity " << reorderCap;
    fail(out.str());
  }
  std::int64_t maxRing = engine.retransmitBuffer;
  for (const std::int64_t capacity : engine.retransmitBufferPerNode)
    maxRing = std::max(maxRing, capacity);
  if (run.peakRetransmitHeld > maxRing) {
    std::ostringstream out;
    out << "retransmit ring overflowed: peak " << run.peakRetransmitHeld
        << " > capacity " << maxRing;
    fail(out.str());
  }
  if (run.peakQueueDepth > engine.queueCapacity) {
    std::ostringstream out;
    out << "uplink queue overflowed: peak " << run.peakQueueDepth
        << " > capacity " << engine.queueCapacity;
    fail(out.str());
  }

  // Deterministic replay: identical inputs, identical outcome.
  if (options.verifyDeterminism) {
    const DataplaneResult replay = runDataplane(built.tree, points, engine);
    result.deterministic =
        replay.deliveryLogHash == run.deliveryLogHash &&
        replay.eventsProcessed == run.eventsProcessed &&
        replay.packetsSent == run.packetsSent &&
        replay.deliveries == run.deliveries &&
        replay.simEndTime == run.simEndTime;
    if (!result.deterministic) fail("replay diverged from the first run");
  }

  return result;
}

}  // namespace omt::dataplane
