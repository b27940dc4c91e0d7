#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "omt/common/error.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/samplers.h"
#include "omt/sim/dataplane/chaos.h"
#include "omt/sim/dataplane/engine.h"
#include "omt/sim/dataplane/link.h"
#include "omt/sim/dataplane/recovery.h"
#include "omt/tree/metrics.h"

namespace omt::dataplane {
namespace {

std::vector<Point> workload(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return sampleDiskWithCenterSource(rng, n, 2);
}

// ---------------------------------------------------------------- recovery

TEST(DataplaneRecoveryTest, UnwrapSeqPicksNearestCandidate) {
  EXPECT_EQ(unwrapSeq(0, 0), 0u);
  EXPECT_EQ(unwrapSeq(41, 40), 41u);
  EXPECT_EQ(unwrapSeq(7, 4'000'000'000u), kSeqSpace + 7);
  EXPECT_EQ(unwrapSeq(4'000'000'000u, kSeqSpace + 7), 4'000'000'000u);
  // Exactly at the wrap boundary: the previous sequence wins over the one
  // 2^32 away.
  EXPECT_EQ(unwrapSeq(0xFFFFFFFFu, kSeqSpace), kSeqSpace - 1);
  // Many epochs in: the reference's epoch carries over.
  const std::uint64_t ref = 5 * kSeqSpace + 123;
  EXPECT_EQ(unwrapSeq(124, ref), 5 * kSeqSpace + 124);
  EXPECT_EQ(unwrapSeq(wireSeq(ref + 1), ref), ref + 1);
}

TEST(DataplaneRecoveryTest, ReorderWindowRoundsCapacityAndIndexesModulo) {
  ReorderWindow window(100);
  EXPECT_EQ(window.capacity(), 128);  // rounded up to a multiple of 64

  window.set(5);
  window.set(130);
  EXPECT_TRUE(window.test(5));
  EXPECT_TRUE(window.test(130));
  // 130 and 2 collide modulo 128 — the engine never parks two sequences a
  // full window apart, but the bitmap itself is just modular.
  EXPECT_TRUE(window.test(2));
  window.clear(130);
  EXPECT_FALSE(window.test(2));
  EXPECT_TRUE(window.test(5));
}

TEST(DataplaneRecoveryTest, NackBackoffAdvancesToCapAndResets) {
  NackBackoff backoff(1e-3, 2.0, 8e-3);
  EXPECT_DOUBLE_EQ(backoff.current(), 1e-3);
  backoff.advance();
  backoff.advance();
  EXPECT_DOUBLE_EQ(backoff.current(), 4e-3);
  backoff.advance();
  EXPECT_DOUBLE_EQ(backoff.current(), 8e-3);
  EXPECT_TRUE(backoff.atCap());
  backoff.advance();  // capped: stays put
  EXPECT_DOUBLE_EQ(backoff.current(), 8e-3);
  backoff.reset();
  EXPECT_DOUBLE_EQ(backoff.current(), 1e-3);
  EXPECT_FALSE(backoff.atCap());
}

TEST(DataplaneRecoveryTest, RetransmitWindowEvictsOldestAndCounts) {
  RetransmitWindow ring(4, 100);
  EXPECT_FALSE(ring.holds(100));
  for (int i = 0; i < 6; ++i) ring.insert();  // delivered 100..105
  EXPECT_EQ(ring.head(), 106u);
  EXPECT_EQ(ring.occupancy(), 4);
  EXPECT_EQ(ring.evictions(), 2);
  EXPECT_FALSE(ring.holds(100));
  EXPECT_FALSE(ring.holds(101));
  EXPECT_TRUE(ring.holds(102));
  EXPECT_TRUE(ring.holds(105));
  EXPECT_FALSE(ring.holds(106));  // not delivered yet
}

// ---------------------------------------------------------------- link

TEST(DataplaneLinkTest, DisabledChainMatchesPlainIidDraws) {
  GilbertElliottOptions off;
  GilbertElliottChain chain;
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(chain.roll(a, off, 0.3), b.uniform() < 0.3);
  }
  // Same raw stream position afterwards: exactly one draw per roll.
  EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(DataplaneLinkTest, DisabledChainDrawsNothingAtZeroLoss) {
  GilbertElliottOptions off;
  GilbertElliottChain chain;
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(chain.roll(a, off, 0.0));
  EXPECT_EQ(a.nextU64(), b.nextU64());  // zero draws consumed
}

TEST(DataplaneLinkTest, ChainConvergesToStationaryLoss) {
  GilbertElliottOptions burst;
  burst.burstLossProbability = 0.5;
  burst.burstStartProbability = 0.02;
  burst.burstStopProbability = 0.1;
  ASSERT_TRUE(burst.enabled());
  EXPECT_NEAR(burst.stationaryBadProbability(), 0.02 / 0.12, 1e-12);

  GilbertElliottChain chain;
  Rng rng(3);
  const int trials = 200000;
  int losses = 0;
  for (int i = 0; i < trials; ++i)
    if (chain.roll(rng, burst, 0.01)) ++losses;
  const double observed = static_cast<double>(losses) / trials;
  const double expected = burst.stationaryLossProbability(0.01);
  EXPECT_NEAR(observed, expected, 0.01);
}

TEST(DataplaneLinkTest, UplinkQueueSerializesAndTailDrops) {
  UplinkQueue queue(3);
  // Three instant enqueues: departures pipeline behind one another.
  EXPECT_DOUBLE_EQ(queue.enqueue(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(queue.enqueue(0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(queue.enqueue(0.0, 1.0), 3.0);
  // Full: the fourth is tail-dropped.
  EXPECT_LT(queue.enqueue(0.0, 1.0), 0.0);
  EXPECT_EQ(queue.drops(), 1);
  EXPECT_EQ(queue.occupancy(0.5), 3);
  // After the first departure a slot frees up.
  EXPECT_EQ(queue.occupancy(1.0), 2);
  EXPECT_DOUBLE_EQ(queue.enqueue(1.0, 1.0), 4.0);
  EXPECT_EQ(queue.peakOccupancy(), 3);
}

TEST(DataplaneLinkTest, LossBurstWindowsCombine) {
  std::vector<LossBurstWindow> windows{{1.0, 2.0, 0.5}, {1.5, 3.0, 0.5}};
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 1.2), 0.5);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 1.7), 0.75);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(lossBurstBoostAt(windows, 3.0), 0.0);
}

// ---------------------------------------------------------------- engine

TEST(DataplaneEngineTest, ZeroLossDeliversEverythingInOrder) {
  const auto points = workload(300, 11);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 200;
  options.recordDeliveries = true;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(result.undelivered, 0);
  EXPECT_EQ(result.deliveries, 300 * 200);
  EXPECT_EQ(result.packetsSent, 299 * 200);  // every non-root link once
  EXPECT_EQ(result.linkLosses, 0);
  EXPECT_EQ(result.queueDrops, 0);
  EXPECT_EQ(result.duplicatesSuppressed, 0);
  EXPECT_EQ(result.nacksSent, 0);
  EXPECT_EQ(result.retransmits, 0);

  const std::uint64_t want = expectedLogHash(0, 200);
  for (const NodeReport& node : result.nodes) {
    EXPECT_EQ(node.delivered, 200);
    EXPECT_EQ(node.nextExpected, 200u);
    EXPECT_EQ(node.logHash, want);
  }
  // The recorded log really is the identity sequence.
  const auto& log = result.deliveryLog[7];
  ASSERT_EQ(log.size(), 200u);
  for (std::size_t i = 0; i < log.size(); ++i) EXPECT_EQ(log[i], i);
}

TEST(DataplaneEngineTest, SingleNodeTreeDelivers) {
  MulticastTree tree(1, 0);
  tree.finalize();
  const std::vector<Point> points{Point{0.0, 0.0}};
  DataplaneOptions options;
  options.packetCount = 50;
  const DataplaneResult result = runDataplane(tree, points, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.deliveries, 50);
  EXPECT_EQ(result.packetsSent, 0);
}

TEST(DataplaneEngineTest, LossyRunRecoversExactlyOnce) {
  const auto points = workload(250, 12);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 300;
  options.lossProbability = 0.05;
  options.burst.burstStartProbability = 0.01;
  options.burst.burstLossProbability = 0.5;
  options.burst.burstStopProbability = 0.2;
  options.seed = 99;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_GT(result.linkLosses, 0);
  EXPECT_GT(result.nacksSent, 0);
  EXPECT_GT(result.retransmits, 0);
  const std::uint64_t want = expectedLogHash(0, 300);
  for (const NodeReport& node : result.nodes) {
    EXPECT_EQ(node.delivered, 300);
    EXPECT_EQ(node.logHash, want);
  }
  EXPECT_GT(result.deliveryLatency.p99(), 0.0);
  EXPECT_GE(result.deliveryLatency.p99(), result.deliveryLatency.p50());
}

TEST(DataplaneEngineTest, SequenceNumbersWrapAround) {
  const auto points = workload(120, 13);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 500;
  options.firstSequence = 0xFFFFFFFFu - 199;  // wraps after 200 packets
  options.lossProbability = 0.03;
  options.seed = 5;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed);
  const std::uint64_t first = 0xFFFFFFFFu - 199;
  const std::uint64_t want = expectedLogHash(wireSeq(first), 500);
  for (const NodeReport& node : result.nodes) {
    EXPECT_EQ(node.delivered, 500);
    EXPECT_EQ(node.nextExpected, first + 500);  // crossed into epoch 1
    EXPECT_EQ(node.logHash, want);
  }
  EXPECT_GT(result.retransmits, 0);  // recovery worked across the wrap
}

TEST(DataplaneEngineTest, CrashRehomingResumesTheStream) {
  const auto points = workload(400, 14);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  // Crash an internal node (one with children) mid-stream.
  NodeId victim = kNoNode;
  for (NodeId v = 1; v < built.tree.size(); ++v) {
    if (built.tree.childrenOf(v).size() >= 2) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  const auto orphanCount =
      static_cast<std::int64_t>(built.tree.childrenOf(victim).size());

  DataplaneOptions options;
  options.packetCount = 600;
  options.crashes = {{victim, 0.02}};  // 200 packets in
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_EQ(result.crashedNodes, 1);
  EXPECT_EQ(result.rehomedChildren, orphanCount);
  const std::uint64_t want = expectedLogHash(0, 600);
  for (NodeId v = 0; v < built.tree.size(); ++v) {
    const NodeReport& node = result.nodes[static_cast<std::size_t>(v)];
    if (v == victim) {
      EXPECT_TRUE(node.crashed);
      EXPECT_LT(node.delivered, 600);
      continue;
    }
    EXPECT_EQ(node.delivered, 600);
    EXPECT_EQ(node.logHash, want);
  }
}

TEST(DataplaneEngineTest, EvictionMissRefetchesFromGrandparent) {
  // A 3-node chain root -> mid -> leaf where mid's retransmit ring is tiny.
  // A hard mid-stream loss burst opens a large gap; by the time the leaf's
  // NACKs reach mid, the early sequences are evicted there and must be
  // refetched from the root.
  MulticastTree tree(3, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  tree.attach(2, 1, EdgeKind::kCore);
  tree.finalize();
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.3, 0.0},
                                  Point{0.6, 0.0}};
  DataplaneOptions options;
  options.packetCount = 3000;
  options.retransmitBufferPerNode = {4096, 64, 64};  // mid evicts eagerly
  options.propagationFactor = 0.01;  // fast links: many recovery rounds
  options.lossBursts = {{0.05, 0.1, 0.95}};
  options.seed = 21;
  const DataplaneResult result = runDataplane(tree, points, options);

  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
  EXPECT_GT(result.evictionMisses, 0);
  EXPECT_GT(result.refetches, 0);
  EXPECT_GT(result.retransmitEvictions, 0);
  const std::uint64_t want = expectedLogHash(0, 3000);
  EXPECT_EQ(result.nodes[2].logHash, want);
}

TEST(DataplaneEngineTest, UnrecoverableEvictionStallsDeterministically) {
  // root -> leaf with a root ring smaller than the gap a brutal loss burst
  // opens. The root has no parent to refetch from, so the stream can never
  // complete; the stall detector must end the run instead of hanging.
  MulticastTree tree(2, 0);
  tree.attach(1, 0, EdgeKind::kCore);
  tree.finalize();
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.5, 0.0}};
  DataplaneOptions options;
  options.packetCount = 400;
  options.retransmitBuffer = 8;
  options.reorderWindow = 64;
  options.propagationFactor = 0.001;
  options.lossBursts = {{0.0, 0.015, 0.999}};  // first ~150 packets lost
  options.stallTimeout = 1.0;
  options.seed = 33;
  const DataplaneResult result = runDataplane(tree, points, options);

  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.stalled);
  EXPECT_GT(result.undelivered, 0);
  EXPECT_GT(result.evictionMisses, 0);
  // NACK-storm suppression: one NACK per gap per firing under a capped
  // backoff. Over the 1s stall window that is at most
  // ceil(1 / 64e-3) + the ~7 ramp-up firings, per gap — far below the
  // hundreds an unsuppressed sender would emit.
  EXPECT_LE(result.nacksSent, 60);
  EXPECT_GT(result.nacksSent, 3);
}

TEST(DataplaneEngineTest, BoundedBuffersStayBounded) {
  const auto points = workload(200, 15);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 500;
  options.lossProbability = 0.05;
  options.reorderWindow = 128;
  options.queueCapacity = 64;
  options.propagationFactor = 0.01;  // keep the rings ahead of the BDP
  // Interior rings much smaller than the stream; the source retains the
  // whole session so every eviction miss is ultimately refetchable.
  options.retransmitBufferPerNode.assign(
      static_cast<std::size_t>(built.tree.size()), 256);
  options.retransmitBufferPerNode[0] = 4096;
  options.seed = 8;
  const DataplaneResult result = runDataplane(built.tree, points, options);

  EXPECT_LE(result.peakReorderBuffered, 128);
  EXPECT_LE(result.peakRetransmitHeld, 500);  // the source holds the stream
  EXPECT_LE(result.peakQueueDepth, 64);
  EXPECT_TRUE(result.completed) << result.undelivered << " undelivered";
}

TEST(DataplaneEngineTest, DeterministicReplay) {
  const auto points = workload(180, 16);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  DataplaneOptions options;
  options.packetCount = 250;
  options.lossProbability = 0.04;
  options.burst.burstStartProbability = 0.02;
  options.controlLoss = 0.02;
  options.crashes = {{5, 0.01}};
  options.seed = 77;

  const DataplaneResult a = runDataplane(built.tree, points, options);
  const DataplaneResult b = runDataplane(built.tree, points, options);
  EXPECT_EQ(a.deliveryLogHash, b.deliveryLogHash);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.packetsSent, b.packetsSent);
  EXPECT_EQ(a.nacksSent, b.nacksSent);
  EXPECT_EQ(a.simEndTime, b.simEndTime);

  // A different seed produces a different loss pattern.
  options.seed = 78;
  const DataplaneResult c = runDataplane(built.tree, points, options);
  EXPECT_NE(a.linkLosses, c.linkLosses);
}

TEST(DataplaneEngineTest, ValidationRejectsBadOptions) {
  const std::vector<Point> points{Point{0.0, 0.0}, Point{0.5, 0.0}};
  MulticastTree tree(2, 0);
  tree.attach(1, 0, EdgeKind::kLocal);
  tree.finalize();

  DataplaneOptions options;
  options.packetCount = 0;
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.lossProbability = 1.0;
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.crashes = {{0, 0.1}};  // the root must not crash
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.crashes = {{17, 0.1}};  // unknown node
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.nackBackoffCap = 1e-6;  // below the initial delay
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  options = {};
  options.retransmitBufferPerNode = {16};  // tree has two nodes
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);

  // Windows whose round-up to whole 64-bit words would overflow an int.
  options = {};
  options.reorderWindow = std::numeric_limits<int>::max();
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);
  options.reorderWindow = kMaxReorderWindow + 1;
  EXPECT_THROW(runDataplane(tree, points, options), InvalidArgument);
  EXPECT_THROW(ReorderWindow(std::numeric_limits<int>::max()),
               InvalidArgument);
  EXPECT_THROW(ReorderWindow(kMaxReorderWindow + 1), InvalidArgument);
}

TEST(DataplaneChaosHelpersTest, SampleCrashScheduleIsDeterministic) {
  const auto points = workload(100, 17);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  const auto a = sampleCrashSchedule(9, built.tree, 0.1, 1.0);
  const auto b = sampleCrashSchedule(9, built.tree, 0.1, 1.0);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_NE(a[i].node, built.tree.root());
    EXPECT_GE(a[i].time, 0.0);
    EXPECT_LT(a[i].time, 1.0);
  }
  // Distinct victims.
  std::vector<NodeId> nodes;
  for (const CrashEvent& c : a) nodes.push_back(c.node);
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

TEST(DataplaneChaosHelpersTest, LossBurstsDropNonLossWindows) {
  std::vector<DisruptionWindow> windows(3);
  windows[0].start = 1.0;
  windows[0].end = 2.0;
  windows[0].lossBoost = 0.4;
  windows[1].partition = true;  // no loss boost: dropped
  windows[2].start = 5.0;
  windows[2].end = 6.0;
  windows[2].extraDelay = 0.1;  // delay only: dropped
  const auto bursts = lossBurstsFromDisruption(windows);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(bursts[0].start, 1.0);
  EXPECT_DOUBLE_EQ(bursts[0].extraLoss, 0.4);
}

// ---------------------------------------------------------------- golden
//
// The engine's whole output pinned on six fixed configurations. The chaos
// gate and DeterministicReplay only compare a binary with itself, and every
// complete in-order run has the same per-node log hash, so neither would
// notice a change to the order in which events are processed. These lines
// would: the RNG is consumed in event order, so any reordering moves the
// loss pattern, the counters, the latency sum, or the end time. If the
// engine's behaviour is changed on purpose, update the strings and say so
// in the change description.

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every counter, peak and outcome of `r` on one line: floating-point
/// fields as bit patterns, the per-node reports folded into one FNV-1a
/// hash.
std::string goldenLine(const DataplaneResult& r) {
  std::uint64_t nodes = 14695981039346656037ULL;
  const auto mix = [&nodes](std::uint64_t v) {
    nodes = (nodes ^ v) * 1099511628211ULL;
  };
  for (const NodeReport& n : r.nodes) {
    mix(static_cast<std::uint64_t>(n.delivered));
    mix(n.nextExpected);
    mix(n.logHash);
    mix(n.crashed ? 1 : 0);
    mix(bitsOf(n.crashTime));
  }
  std::ostringstream out;
  out << "sent=" << r.packetsSent << " deliveries=" << r.deliveries
      << " dups=" << r.duplicatesSuppressed << " reorderDrops="
      << r.reorderDrops << " queueDrops=" << r.queueDrops
      << " linkLosses=" << r.linkLosses << " crashAborts=" << r.crashAborts
      << " nacks=" << r.nacksSent << " controlLost=" << r.nacksLost
      << " retx=" << r.retransmits << " evictions=" << r.retransmitEvictions
      << " misses=" << r.evictionMisses << " refetches=" << r.refetches
      << " syncs=" << r.syncsSent << " rehomed=" << r.rehomedChildren
      << " overCap=" << r.rehomesOverCap << " crashed=" << r.crashedNodes
      << " peakReorder=" << r.peakReorderBuffered
      << " peakRetx=" << r.peakRetransmitHeld
      << " peakQueue=" << r.peakQueueDepth
      << " peakServes=" << r.peakPendingServes
      << " events=" << r.eventsProcessed << " undelivered=" << r.undelivered
      << " completed=" << r.completed << " stalled=" << r.stalled
      << " latencyCount=" << r.deliveryLatency.count() << std::hex
      << " end=" << bitsOf(r.simEndTime)
      << " p50=" << bitsOf(r.deliveryLatency.p50())
      << " p99=" << bitsOf(r.deliveryLatency.p99())
      << " sum=" << bitsOf(r.deliveryLatency.sum())
      << " log=" << r.deliveryLogHash << " nodes=" << nodes;
  return out.str();
}

struct GoldenOverlay {
  std::vector<Point> points;
  MulticastTree tree;
};

GoldenOverlay goldenOverlay(std::int64_t n, std::uint64_t seed) {
  std::vector<Point> points = workload(n, seed);
  MulticastTree tree = buildPolarGridTree(points, 0).tree;
  return {std::move(points), std::move(tree)};
}

TEST(DataplaneGoldenTest, Clean) {
  const GoldenOverlay g = goldenOverlay(200, 41);
  DataplaneOptions options;
  options.packetCount = 300;
  const DataplaneResult r = runDataplane(g.tree, g.points, options);
  EXPECT_EQ(goldenLine(r),
            "sent=59700 deliveries=60000 dups=0 reorderDrops=0 queueDrops=0 "
            "linkLosses=0 crashAborts=0 nacks=0 controlLost=0 retx=0 "
            "evictions=0 misses=0 refetches=0 syncs=5833 rehomed=0 overCap=0 "
            "crashed=0 peakReorder=0 peakRetx=300 peakQueue=6 peakServes=0 "
            "events=76885 undelivered=0 completed=1 stalled=0 "
            "latencyCount=59700 end=401138b22f8021ea p50=3fefa6232e7e840e "
            "p99=3ffbbe9209aca831 sum=40ebe2125d6cb510 log=d51f75eb2c4d2f3d "
            "nodes=5da24152c73af10d");
}

TEST(DataplaneGoldenTest, IidDataAndControlLoss) {
  const GoldenOverlay g = goldenOverlay(200, 42);
  DataplaneOptions options;
  options.packetCount = 300;
  options.lossProbability = 0.05;
  options.controlLoss = 0.05;
  options.seed = 4201;
  const DataplaneResult r = runDataplane(g.tree, g.points, options);
  EXPECT_EQ(goldenLine(r),
            "sent=62882 deliveries=60000 dups=0 reorderDrops=0 "
            "queueDrops=17526 linkLosses=3182 crashAborts=0 nacks=3734 "
            "controlLost=8765 retx=19098 evictions=0 misses=0 refetches=0 "
            "syncs=164885 rehomed=0 overCap=0 crashed=0 peakReorder=295 "
            "peakRetx=300 peakQueue=128 peakServes=0 events=294582 "
            "undelivered=0 completed=1 stalled=0 latencyCount=59700 "
            "end=403c2e5822608577 p50=402738660aa954bc p99=4037728ba6689efa "
            "sum=4124c8361a15c908 log=d51f75eb2c4d2f3d "
            "nodes=5da24152c73af10d");
}

TEST(DataplaneGoldenTest, BurstsWithCrashesInFlight) {
  // Hops of up to half a second and a 0.3 s stream: a relay that crashes
  // mid-stream still has packets in flight to its children when they
  // re-home 50 ms later, so the old parent's link drains beside the new.
  const GoldenOverlay g = goldenOverlay(300, 43);
  DataplaneOptions options;
  options.packetCount = 300;
  options.packetInterval = 1e-3;
  options.propagationFactor = 0.5;
  options.burst.burstStartProbability = 0.005;
  options.burst.burstStopProbability = 0.3;
  options.burst.burstLossProbability = 0.3;
  options.controlLoss = 0.01;
  // Every third relay crashes halfway through the stream it forwards.
  const std::vector<double> delays = computeDelays(g.tree, g.points);
  int relays = 0;
  for (NodeId v = 1; v < g.tree.size(); ++v) {
    if (g.tree.childrenOf(v).size() < 2 || relays++ % 3 != 0) continue;
    options.crashes.push_back(
        {v, options.propagationFactor * delays[static_cast<std::size_t>(v)] +
                0.15});
  }
  std::sort(options.crashes.begin(), options.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.time < b.time;
            });
  options.seed = 4302;
  const DataplaneResult r = runDataplane(g.tree, g.points, options);
  EXPECT_GT(r.rehomedChildren, 0);
  EXPECT_EQ(goldenLine(r),
            "sent=85297 deliveries=84037 dups=689 reorderDrops=0 "
            "queueDrops=15068 linkLosses=502 crashAborts=0 nacks=827 "
            "controlLost=619 retx=16237 evictions=0 misses=0 refetches=0 "
            "syncs=57044 rehomed=85 overCap=0 crashed=24 peakReorder=277 "
            "peakRetx=300 peakQueue=128 peakServes=0 events=170318 "
            "undelivered=0 completed=1 stalled=0 latencyCount=83737 "
            "end=4020d5b15e0dbdb1 p50=40034eaaf6493d39 p99=4015cbc0abd1c062 "
            "sum=4107ac779e72bb4a log=86937c938f275eab "
            "nodes=ac18ae59a8a75c58");
}

TEST(DataplaneGoldenTest, ZeroSerializationTiesAndWraparound) {
  // Free serialization: a flushed run departs at one instant, so its
  // arrivals tie on time and are ordered by creation id alone.
  const GoldenOverlay g = goldenOverlay(200, 44);
  DataplaneOptions options;
  options.packetCount = 400;
  options.serializationTime = 0.0;
  options.firstSequence = 0xFFFFFFFFu - 150;
  options.lossProbability = 0.03;
  options.seed = 4401;
  const DataplaneResult r = runDataplane(g.tree, g.points, options);
  EXPECT_GT(r.retransmits, 0);
  EXPECT_EQ(goldenLine(r),
            "sent=81972 deliveries=80000 dups=0 reorderDrops=0 queueDrops=0 "
            "linkLosses=2372 crashAborts=0 nacks=2309 controlLost=0 "
            "retx=2372 evictions=0 misses=0 refetches=0 syncs=56772 "
            "rehomed=0 overCap=0 crashed=0 peakReorder=386 peakRetx=400 "
            "peakQueue=1 peakServes=0 events=169405 undelivered=0 "
            "completed=1 stalled=0 latencyCount=79600 end=402a9dfddca83f08 "
            "p50=401274309012a62e p99=4023e11ab96ec9e7 sum=41161f0162ce7a7e "
            "log=ae1d001d28ad15dd nodes=dd575272839b2965");
}

TEST(DataplaneGoldenTest, LossBurstsEvictionAndRefetch) {
  const GoldenOverlay g = goldenOverlay(250, 45);
  DataplaneOptions options;
  options.packetCount = 600;
  options.propagationFactor = 0.05;
  options.queueCapacity = 8;
  options.lossBursts = {{0.01, 0.03, 0.9}, {0.06, 0.07, 0.95}};
  options.retransmitBufferPerNode.resize(
      static_cast<std::size_t>(g.tree.size()));
  for (std::size_t v = 0; v < options.retransmitBufferPerNode.size(); ++v)
    options.retransmitBufferPerNode[v] =
        16 + static_cast<std::int64_t>(v % 4) * 48;
  options.retransmitBufferPerNode[0] = 4096;  // the source holds the stream
  options.seed = 4501;
  const DataplaneResult r = runDataplane(g.tree, g.points, options);
  EXPECT_GT(r.evictionMisses, 0);
  EXPECT_GT(r.refetches, 0);
  EXPECT_GT(r.queueDrops, 0);
  EXPECT_EQ(goldenLine(r),
            "sent=168116 deliveries=150000 dups=15892 reorderDrops=0 "
            "queueDrops=211096 linkLosses=2824 crashAborts=0 nacks=22856 "
            "controlLost=215 retx=70607 evictions=127512 misses=438954 "
            "refetches=97543 syncs=109816 rehomed=0 overCap=0 crashed=0 "
            "peakReorder=323 peakRetx=600 peakQueue=8 peakServes=481 "
            "events=455235 undelivered=0 completed=1 stalled=0 "
            "latencyCount=149400 end=4026ed2b5442e3a4 p50=4013a517aee8723f "
            "p99=402956be1f3d6138 sum=4126bf4fc8c2bf7f log=96aa7974f40a5610 "
            "nodes=4e58e175c5cf85b7");
}

TEST(DataplaneGoldenTest, NarrowReorderWindowCappedRehomes) {
  const GoldenOverlay g = goldenOverlay(250, 46);
  DataplaneOptions options;
  options.packetCount = 500;
  options.reorderWindow = 64;
  options.maxOutDegree = 3;
  options.lossProbability = 0.03;
  options.crashes = sampleCrashSchedule(4601, g.tree, 0.05, 0.5);
  options.seed = 4602;
  const DataplaneResult r = runDataplane(g.tree, g.points, options);
  EXPECT_GT(r.reorderDrops, 0);
  EXPECT_GT(r.rehomedChildren, 0);
  EXPECT_EQ(goldenLine(r),
            "sent=132801 deliveries=119000 dups=0 reorderDrops=10134 "
            "queueDrops=16998 linkLosses=4066 crashAborts=0 nacks=4818 "
            "controlLost=0 retx=31199 evictions=0 misses=0 refetches=0 "
            "syncs=217426 rehomed=8 overCap=0 crashed=12 peakReorder=63 "
            "peakRetx=500 peakQueue=128 peakServes=0 events=444095 "
            "undelivered=0 completed=1 stalled=0 latencyCount=118500 "
            "end=403f8ab5c3d830d9 p50=402219db11f0fac1 p99=4038e3ce3e6fd017 "
            "sum=41318158e7852902 log=648d7fbce7d4ad28 nodes=b3d479c8bad1204");
}

}  // namespace
}  // namespace omt::dataplane
