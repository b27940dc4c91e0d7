// Deterministic discrete-event packet data plane over a built MulticastTree.
//
// The analytic simulators in omt/sim charge every edge its geometric length
// and fold loss into closed-form retry shifts; this engine actually pushes
// packets. The source emits `packetCount` sequenced packets at
// `packetInterval`; every node forwards each in-order delivery to its
// children over a serialized uplink (finite bandwidth, bounded FIFO,
// tail-drop), each transmission crosses a lossy link (i.i.d. plus
// Gilbert–Elliott bursts plus scheduled loss-burst windows) and arrives
// after propagation delay = geometric distance. Receivers run the recovery
// machinery in recovery.h: 32-bit wire sequences with explicit wraparound,
// a bounded reorder/dup-suppression window, gap-detection NACKs under
// capped exponential backoff, and parent-side bounded retransmit rings with
// eviction accounting. Idle parents advertise their delivery head with
// periodic SYNC probes (Trickle-style), which closes the tail-loss hole and
// resynchronizes re-homed children.
//
// Crash composition: a crash schedule (node, time) silences a node
// mid-stream; after `rehomeDelay` each orphaned child re-homes to its
// nearest live ancestor with spare degree (the PR 1 backup-parent walk,
// falling back to a global nearest-feasible scan), resynchronizes from the
// new parent's retransmit ring, and the stream continues. A NACK for a
// sequence the parent has already evicted is an *eviction miss*: the parent
// refetches it from its own parent (recursive repair, paced by the same
// NACK timer), so bounded buffers stay bounded and recovery still converges
// whenever the fault schedule leaves a feasible path.
//
// Determinism contract: the engine is strictly single-threaded and all
// randomness flows from one seeded RNG consumed in event order; events are
// totally ordered by (time, creation id). Given (seed, tree, schedule) the
// event order, every counter, and every per-node delivery log are
// bit-identical on every run and for any OMT_THREADS value — the chaos gate
// asserts this by replaying runs and comparing delivery-log hashes, and the
// golden tests pin the whole result.
//
// The order comes from merging per-link FIFOs. A data packet in flight
// waits in the FIFO of its link (one per child's current parent edge; a
// re-home opens a new link and the old one drains), and a heap keyed by
// (time, id) holds only the head of each non-empty link plus every timer
// and control message. Within one link the arrivals are already sorted:
// the sender's uplink departures never decrease, the link adds the same
// delay to each, and ids grow with creation. Merging sorted runs through a
// (time, id) heap pops exactly the sequence one heap over all events
// would, while the heap holds about one key per busy link instead of one
// per packet in flight. Every append re-checks the premise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "omt/geometry/point.h"
#include "omt/sim/dataplane/link.h"
#include "omt/sim/dataplane/recovery.h"
#include "omt/tree/multicast_tree.h"

namespace omt::dataplane {

/// One scheduled silent crash: `node` goes dark at `time` (stops
/// forwarding, acking, and receiving). The root must not crash.
struct CrashEvent {
  NodeId node = kNoNode;
  double time = 0.0;
};

struct DataplaneOptions {
  // Traffic.
  std::int64_t packetCount = 1000;  ///< sequenced packets the source emits
  double packetInterval = 1e-4;     ///< time between emissions
  /// Wire sequence of the first packet. Defaults to 0; set near 2^32 to
  /// exercise wraparound (sequences are 32-bit on the wire and unwrapped
  /// per receiver).
  std::uint32_t firstSequence = 0;

  // Link model.
  double serializationTime = 1e-6;  ///< uplink busy time per packet per child
  double perHopOverhead = 0.0;      ///< fixed forwarding latency per hop
  double propagationFactor = 1.0;   ///< propagation delay = factor * distance
  int queueCapacity = 128;          ///< per-uplink FIFO bound (tail-drop)
  double lossProbability = 0.0;     ///< i.i.d. per-transmission loss
  GilbertElliottOptions burst;      ///< bursty-loss chain (off by default)
  std::vector<LossBurstWindow> lossBursts;  ///< scheduled extra loss

  // Recovery.
  /// Out-of-order/dup window (packets), in [1, kMaxReorderWindow].
  int reorderWindow = 1024;
  std::int64_t retransmitBuffer = 4096;  ///< per-node resendable ring
  /// Optional per-node retransmit ring capacities (size must equal the
  /// tree size); empty = `retransmitBuffer` everywhere. Heterogeneous
  /// rings are what makes the recursive eviction-miss refetch path
  /// load-bearing: a small ring's misses are refetched from
  /// better-provisioned ancestors (the root should hold the whole stream).
  std::vector<std::int64_t> retransmitBufferPerNode;
  /// Floor on the gap -> first-NACK wait. The effective initial spacing is
  /// max(nackDelay, one parent round trip), re-derived when a node
  /// re-homes — re-NACKing the same gap faster than the repair can
  /// possibly arrive is exactly the storm the backoff exists to prevent.
  double nackDelay = 1e-3;
  double nackBackoffFactor = 2.0;   ///< NACK spacing multiplier
  /// Ceiling on the NACK spacing (raised to one backoff step above the
  /// effective initial spacing if that is larger).
  double nackBackoffCap = 64e-3;
  double syncInterval = 20e-3;      ///< head-advertisement period
  /// Loss probability for control messages (NACK/SYNC/COMPLETE); loss-burst
  /// windows apply on top. Control messages skip the data queue (they are
  /// tiny) but pay propagation delay.
  double controlLoss = 0.0;

  // Faults.
  std::vector<CrashEvent> crashes;  ///< time-ordered silent crashes
  double rehomeDelay = 50e-3;       ///< crash -> orphans re-homed
  /// Degree cap honoured when re-homing orphans; 0 = the tree's max
  /// out-degree. Re-homing prefers live ancestors, then the nearest live
  /// feasible node; if every candidate is full the cap is exceeded (counted
  /// in rehomesOverCap) rather than stranding the orphan.
  int maxOutDegree = 0;

  // Engine.
  std::uint64_t seed = 1;
  /// Hard stop when no packet has been delivered anywhere for this long —
  /// the deterministic stall detector that bounds pathological runs (e.g.
  /// an unrecoverable eviction under a too-small retransmit ring).
  double stallTimeout = 10.0;
  double maxSimTime = 1e9;          ///< absolute event-time ceiling
  /// Keep the full per-node delivery logs (sequence per delivery) instead
  /// of just their hashes. O(n * packetCount) memory — tests only.
  bool recordDeliveries = false;
};

/// Fixed-bucket latency histogram (geometric bounds, non-atomic — the
/// engine is single-threaded). Quantiles interpolate inside the winning
/// bucket, like obs::Histogram.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void observe(double value);
  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> buckets_;  ///< bounds_.size() + 1 cells
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

/// Per-node outcome.
struct NodeReport {
  std::int64_t delivered = 0;     ///< exactly-once in-order deliveries
  std::uint64_t nextExpected = 0; ///< unwrapped delivery head
  std::uint64_t logHash = 0;      ///< FNV-1a over the delivery sequence
  bool crashed = false;
  double crashTime = 0.0;
};

struct DataplaneResult {
  // Traffic totals.
  std::int64_t packetsSent = 0;       ///< data transmissions that departed
  std::int64_t deliveries = 0;        ///< exactly-once deliveries (all nodes)
  std::int64_t duplicatesSuppressed = 0;
  std::int64_t reorderDrops = 0;      ///< arrivals beyond the reorder window
  std::int64_t queueDrops = 0;        ///< uplink tail-drops
  std::int64_t linkLosses = 0;        ///< in-flight data losses
  std::int64_t crashAborts = 0;       ///< sends killed by the sender crashing

  // Recovery totals.
  std::int64_t nacksSent = 0;
  std::int64_t nacksLost = 0;         ///< control losses (NACK/SYNC/COMPLETE)
  std::int64_t retransmits = 0;
  std::int64_t retransmitEvictions = 0;  ///< ring slots overwritten
  std::int64_t evictionMisses = 0;    ///< NACKed seqs already evicted
  std::int64_t refetches = 0;         ///< upward repair requests
  std::int64_t syncsSent = 0;
  std::int64_t rehomedChildren = 0;
  std::int64_t rehomesOverCap = 0;    ///< re-homes that had to exceed the cap
  std::int64_t crashedNodes = 0;

  // Bounded-memory accounting.
  std::int64_t peakReorderBuffered = 0;   ///< max parked out-of-order packets
  std::int64_t peakRetransmitHeld = 0;    ///< max ring occupancy (<= capacity)
  std::int64_t peakQueueDepth = 0;        ///< max uplink FIFO depth
  std::int64_t peakPendingServes = 0;     ///< max outstanding refetch entries

  // Outcome.
  std::int64_t eventsProcessed = 0;
  double simEndTime = 0.0;
  double wallSeconds = 0.0;           ///< engine wall-clock (for goodput)
  std::int64_t undelivered = 0;       ///< packets live receivers still miss
  bool completed = false;             ///< every live receiver got everything
  bool stalled = false;               ///< stall detector fired
  LatencyHistogram deliveryLatency;   ///< per-delivery emit -> deliver time
  std::uint64_t deliveryLogHash = 0;  ///< order-sensitive over all nodes
  std::vector<NodeReport> nodes;
  /// Per-node delivered sequences, only when options.recordDeliveries.
  std::vector<std::vector<std::uint64_t>> deliveryLog;
};

/// Run one data-plane session over `tree` (finalized, one point per node).
/// Deterministic in (options, tree, points). Throws omt::InvalidArgument on
/// out-of-range options, a crash scheduled for the root, or an unknown
/// crash node.
DataplaneResult runDataplane(const MulticastTree& tree,
                             std::span<const Point> points,
                             const DataplaneOptions& options);

}  // namespace omt::dataplane
