#include "omt/sim/dataplane/engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

#include "omt/common/error.h"
#include "omt/obs/metrics.h"
#include "omt/obs/obs.h"
#include "omt/random/rng.h"
#include "omt/report/stopwatch.h"

namespace omt::dataplane {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

/// omt_dataplane_* instruments, registered once (PR 4 obs layer). All are
/// deterministic: the engine is single-threaded and seeded.
struct Metrics {
  obs::Counter& sent;
  obs::Counter& delivered;
  obs::Counter& duplicates;
  obs::Counter& queueDrops;
  obs::Counter& linkLosses;
  obs::Counter& reorderDrops;
  obs::Counter& nacks;
  obs::Counter& retransmits;
  obs::Counter& evictions;
  obs::Counter& evictionMisses;
  obs::Counter& refetches;
  obs::Counter& syncs;
  obs::Counter& rehomes;
  obs::Counter& crashes;
  obs::Histogram& latency;

  static Metrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static Metrics m{
        reg.counter("omt_dataplane_packets_sent_total"),
        reg.counter("omt_dataplane_delivered_total"),
        reg.counter("omt_dataplane_duplicates_suppressed_total"),
        reg.counter("omt_dataplane_queue_drops_total"),
        reg.counter("omt_dataplane_link_losses_total"),
        reg.counter("omt_dataplane_reorder_drops_total"),
        reg.counter("omt_dataplane_nacks_total"),
        reg.counter("omt_dataplane_retransmits_total"),
        reg.counter("omt_dataplane_retransmit_evictions_total"),
        reg.counter("omt_dataplane_eviction_misses_total"),
        reg.counter("omt_dataplane_refetches_total"),
        reg.counter("omt_dataplane_syncs_total"),
        reg.counter("omt_dataplane_rehomes_total"),
        reg.counter("omt_dataplane_crashes_total"),
        reg.histogram("omt_dataplane_delivery_latency_seconds"),
    };
    return m;
  }
};

constexpr std::uint32_t kNil = 0xFFFFFFFFu;

/// One pending event. Every event lives in the EventQueue's slab; a data
/// packet in flight also waits in the FIFO of the link it crosses.
struct Event {
  enum Kind : std::uint8_t {
    kEmit,       ///< source emits the next packet
    kData,       ///< data packet arrives at `node` from `peer`
    kNackTimer,  ///< `node`'s gap/refetch timer fires
    kNack,       ///< NACK for [seq, seq+count) arrives at `node` from `peer`
    kSyncTimer,  ///< `node`'s head-advertisement timer fires
    kSync,       ///< SYNC (head = seq) arrives at `node` from `peer`
    kComplete,   ///< subtree-complete notice arrives at `node` from `peer`
    kCrash,      ///< `node` goes dark
    kRehome,     ///< orphaned `node` re-attaches to a live parent
  };

  double time = 0.0;
  std::uint64_t id = 0;  ///< creation order: the deterministic tie-break
  double aux = 0.0;  ///< kData: serialization-complete time at the sender
  NodeId node = kNoNode;
  NodeId peer = kNoNode;
  std::uint32_t seq = 0;
  std::uint32_t count = 0;
  /// Slab slot of the next packet on the same link (kData), or of the next
  /// free slot once the event is released.
  std::uint32_t next = kNil;
  Kind kind = kEmit;
};

/// The pending events, popped in (time, id) order by merging the per-link
/// FIFOs of in-flight data packets through a heap of compact keys that also
/// holds every timer and control event (see the determinism paragraph in
/// engine.h). All events share one slab recycled through an intrusive free
/// list, so memory follows the in-flight peak.
class EventQueue {
 public:
  /// Open an empty link; returns its index.
  std::uint32_t openLink() {
    OMT_CHECK(links_.size() < kLinkRef, "too many links");
    links_.push_back(Link{});
    return static_cast<std::uint32_t>(links_.size() - 1);
  }

  /// Queue a timer or control event; assigns its id.
  void push(Event ev) {
    ev.id = nextId_++;
    heapPush({ev.time, ev.id, store(ev)});
  }

  /// Queue a data packet at the tail of `link`; assigns its id.
  void pushData(std::uint32_t link, Event ev) {
    ev.id = nextId_++;
    const std::uint32_t slot = store(ev);
    Link& l = links_[link];
    if (l.head == kNil) {
      l.head = l.tail = slot;
      heapPush({ev.time, ev.id, link | kLinkRef});
      return;
    }
    Event& tail = slab_[l.tail];
    OMT_CHECK(ev.time >= tail.time, "link arrivals out of (time, id) order");
    tail.next = slot;
    l.tail = slot;
  }

  bool empty() const { return heap_.empty(); }
  double nextTime() const { return heap_.front().time; }

  /// Remove and return the earliest event.
  Event pop() {
    std::uint32_t slot = heap_.front().ref;
    if (slot & kLinkRef) {
      Link& l = links_[slot & ~kLinkRef];
      const std::uint32_t linkRef = slot;
      slot = l.head;
      l.head = slab_[slot].next;
      if (l.head == kNil) {
        l.tail = kNil;
        popTop();
      } else {
        const Event& head = slab_[l.head];
        siftDown({head.time, head.id, linkRef});  // replaces the top key
      }
    } else {
      popTop();
    }
    Event ev = slab_[slot];
    slab_[slot].next = free_;
    free_ = slot;
    return ev;
  }

 private:
  /// Tags a heap key's `ref` as a link index rather than a slab slot.
  static constexpr std::uint32_t kLinkRef = 0x80000000u;

  struct Key {
    double time = 0.0;
    std::uint64_t id = 0;
    std::uint32_t ref = 0;  ///< slab slot, or link index | kLinkRef
  };
  struct Link {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static bool before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }

  std::uint32_t store(const Event& ev) {
    std::uint32_t slot = free_;
    if (slot == kNil) {
      OMT_CHECK(slab_.size() < kLinkRef, "too many pending events");
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(ev);
    } else {
      free_ = slab_[slot].next;
      slab_[slot] = ev;
    }
    return slot;
  }

  void heapPush(const Key& key) {
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(key, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  void popTop() {
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(last);
  }

  /// Put `key` into the hole at the root and restore the heap order.
  void siftDown(const Key& key) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], key)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = key;
  }

  std::vector<Key> heap_;
  std::vector<Event> slab_;
  std::vector<Link> links_;
  std::uint32_t free_ = kNil;
  std::uint64_t nextId_ = 0;
};

struct NodeState {
  NodeId parent = kNoNode;
  std::uint32_t link = kNil;  ///< inbound link from the current parent
  double linkDelay = 0.0;  ///< propagation delay of that link
  std::vector<NodeId> children;
  std::vector<std::uint8_t> childDone;  ///< parallel to children
  bool crashed = false;
  double crashTime = 0.0;

  UplinkQueue queue;
  GilbertElliottChain chain;

  std::uint64_t nextExpected = 0;
  std::uint64_t highestSeen = 0;
  std::uint64_t wantUpTo = 0;  ///< one past the highest seq known to exist
  ReorderWindow window;
  std::int64_t buffered = 0;
  NackBackoff nack;
  bool nackArmed = false;
  double lastArrival = -1.0;  ///< time of the latest data arrival
  double nackArmTime = -1.0;  ///< when the NACK timer was last armed
  bool syncArmed = false;
  bool localComplete = false;

  RetransmitWindow ring;
  /// Sequences children asked for after eviction, awaiting an upward
  /// refetch; served (and erased) the moment the packet passes through
  /// again. Ordered map: iteration order must be deterministic.
  std::map<std::uint64_t, std::vector<NodeId>> pendingServes;

  std::int64_t delivered = 0;
  std::uint64_t logHash = kFnvOffset;
};

class Engine {
 public:
  Engine(const MulticastTree& tree, std::span<const Point> points,
         const DataplaneOptions& options)
      : tree_(tree), points_(points), o_(options), rng_(options.seed),
        base_(options.firstSequence) {}

  DataplaneResult run();

 private:
  // -- event plumbing --------------------------------------------------
  void schedule(double time, Event::Kind kind, NodeId node,
                NodeId peer = kNoNode, std::uint32_t seq = 0,
                std::uint32_t count = 0) {
    queue_.push({.time = time, .node = node, .peer = peer, .seq = seq,
                 .count = count, .kind = kind});
  }

  double propagationDelay(NodeId from, NodeId to) const {
    return o_.propagationFactor *
           distance(points_[static_cast<std::size_t>(from)],
                    points_[static_cast<std::size_t>(to)]);
  }

  double controlDelay(NodeId from, NodeId to) const {
    return o_.perHopOverhead + propagationDelay(from, to);
  }

  /// One lossy control transmission (NACK/SYNC/COMPLETE): returns false and
  /// counts the loss if the channel dropped it.
  bool sendControl(NodeId from, NodeId to, Event::Kind kind, double now,
                   std::uint32_t seq = 0, std::uint32_t count = 0) {
    const double boost = lossBurstBoostAt(o_.lossBursts, now);
    const double p = 1.0 - (1.0 - o_.controlLoss) * (1.0 - boost);
    if (p > 0.0 && rng_.uniform() < p) {
      ++result_.nacksLost;
      return false;
    }
    schedule(now + controlDelay(from, to), kind, to, from, seq, count);
    return true;
  }

  // -- data path -------------------------------------------------------
  void enqueueData(NodeId sender, NodeId child, std::uint64_t seq, double now,
                   bool isRetransmit) {
    NodeState& s = nodes_[static_cast<std::size_t>(sender)];
    if (s.crashed) return;
    const double depart = s.queue.enqueue(now, o_.serializationTime);
    if (depart < 0.0) return;  // tail-dropped; aggregated from the queue
    ++result_.packetsSent;
    if (isRetransmit) ++result_.retransmits;
    if (s.chain.roll(rng_, o_.burst, o_.lossProbability,
                     lossBurstBoostAt(o_.lossBursts, depart))) {
      ++result_.linkLosses;
      return;
    }
    const NodeState& c = nodes_[static_cast<std::size_t>(child)];
    const double arrive = depart + o_.perHopOverhead + c.linkDelay;
    queue_.pushData(c.link,
                    {.time = arrive, .aux = depart, .node = child,
                     .peer = sender, .seq = wireSeq(seq),
                     .kind = Event::kData});
  }

  /// Serve any pending child refetch requests for `seq` as it passes
  /// through `v` (fresh delivery or suppressed duplicate alike).
  void servePending(NodeId v, std::uint64_t seq, double now) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    if (n.pendingServes.empty()) return;
    const auto it = n.pendingServes.find(seq);
    if (it == n.pendingServes.end()) return;
    for (const NodeId child : it->second) {
      if (nodes_[static_cast<std::size_t>(child)].crashed) continue;
      if (!isChildOf(v, child)) continue;  // re-homed away meanwhile
      enqueueData(v, child, seq, now, /*isRetransmit=*/true);
    }
    n.pendingServes.erase(it);
  }

  bool isChildOf(NodeId parent, NodeId child) const {
    const NodeState& p = nodes_[static_cast<std::size_t>(parent)];
    return std::find(p.children.begin(), p.children.end(), child) !=
           p.children.end();
  }

  bool subtreeDone(const NodeState& n) const {
    if (!n.localComplete) return false;
    for (std::size_t i = 0; i < n.children.size(); ++i)
      if (!n.childDone[i]) return false;
    return true;
  }

  void maybeComplete(NodeId v, double now) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    if (n.parent == kNoNode || !subtreeDone(n)) return;
    if (nodes_[static_cast<std::size_t>(n.parent)].crashed) return;
    sendControl(v, n.parent, Event::kComplete, now);
  }

  /// (Re-)derive the node's NACK pacing from its current parent: the
  /// initial spacing is at least one parent round trip, so a gap is never
  /// re-NACKed before the repair could possibly have arrived.
  void resetNackPacing(NodeId v) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    double rtt = 0.0;
    if (n.parent != kNoNode)
      rtt = 2.0 * controlDelay(v, n.parent) + o_.serializationTime;
    const double initial = std::max(o_.nackDelay, rtt);
    const double cap =
        std::max(o_.nackBackoffCap, o_.nackBackoffFactor * initial);
    n.nack = NackBackoff(initial, o_.nackBackoffFactor, cap);
  }

  void armNack(NodeId v, double now) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    if (n.nackArmed || n.crashed) return;
    n.nackArmed = true;
    n.nackArmTime = now;
    schedule(now + n.nack.current(), Event::kNackTimer, v);
  }

  void armSync(NodeId v, double now) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    if (n.syncArmed || n.crashed || n.children.empty()) return;
    n.syncArmed = true;
    schedule(now + o_.syncInterval, Event::kSyncTimer, v);
  }

  /// Exactly-once, in-order delivery of `seq` at `v` (seq == nextExpected).
  void deliver(NodeId v, std::uint64_t seq, double now) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    n.nextExpected = seq + 1;
    n.highestSeen = std::max(n.highestSeen, seq);
    n.wantUpTo = std::max(n.wantUpTo, seq + 1);
    ++n.delivered;
    ++result_.deliveries;
    n.logHash = fnvMix(n.logHash, seq);
    n.nack.reset();  // progress: restart the gap backoff ladder
    n.ring.insert();
    lastProgress_ = now;
    if (v != tree_.root()) {
      const double latency =
          now - static_cast<double>(seq - base_) * o_.packetInterval;
      result_.deliveryLatency.observe(latency);
      if (obsOn_) Metrics::get().latency.observe(latency);
    }
    if (o_.recordDeliveries)
      result_.deliveryLog[static_cast<std::size_t>(v)].push_back(seq);
    servePending(v, seq, now);
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (n.childDone[i]) continue;
      const NodeId child = n.children[i];
      if (nodes_[static_cast<std::size_t>(child)].crashed) continue;
      enqueueData(v, child, seq, now, /*isRetransmit=*/false);
    }
    if (n.delivered == o_.packetCount) {
      n.localComplete = true;
      maybeComplete(v, now);
    }
    armSync(v, now);
  }

  // -- event handlers --------------------------------------------------
  void onEmit(const Event& ev) {
    const std::uint64_t seq = base_ + static_cast<std::uint64_t>(emitted_);
    ++emitted_;
    deliver(tree_.root(), seq, ev.time);
    if (emitted_ < o_.packetCount)
      schedule(ev.time + o_.packetInterval, Event::kEmit, tree_.root());
  }

  void onData(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    if (n.crashed) return;
    const NodeState& s = nodes_[static_cast<std::size_t>(ev.peer)];
    if (s.crashed && s.crashTime < ev.aux) {
      // The sender died before this packet finished serializing.
      ++result_.crashAborts;
      return;
    }
    const std::uint64_t u =
        unwrapSeq(ev.seq, std::max(n.highestSeen, n.nextExpected));
    // Only new ground counts as "the stream is still flowing": a duplicate
    // or late retransmit below the high-water mark says nothing about
    // whether undelivered originals are still en route, and letting it
    // refresh the flow clock would suppress the tail-loss probe forever
    // under steady refetch chatter.
    if (u > n.highestSeen) n.lastArrival = ev.time;
    n.wantUpTo = std::max(n.wantUpTo, u + 1);
    if (u < n.nextExpected) {
      ++result_.duplicatesSuppressed;
      servePending(ev.node, u, ev.time);  // refetched copy: relay onward
      return;
    }
    if (u >= n.nextExpected +
                 static_cast<std::uint64_t>(n.window.capacity())) {
      // Beyond the bounded reorder window: drop now, NACK-recover later.
      ++result_.reorderDrops;
      armNack(ev.node, ev.time);
      return;
    }
    n.highestSeen = std::max(n.highestSeen, u);
    if (u == n.nextExpected) {
      deliver(ev.node, u, ev.time);
      // Flush the contiguous run the gap was blocking.
      while (n.window.test(n.nextExpected)) {
        n.window.clear(n.nextExpected);
        --n.buffered;
        deliver(ev.node, n.nextExpected, ev.time);
      }
      if (n.wantUpTo > n.nextExpected) armNack(ev.node, ev.time);
      return;
    }
    if (n.window.test(u)) {
      ++result_.duplicatesSuppressed;
      return;
    }
    n.window.set(u);
    ++n.buffered;
    result_.peakReorderBuffered =
        std::max(result_.peakReorderBuffered, n.buffered);
    armNack(ev.node, ev.time);
  }

  void onNackTimer(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    n.nackArmed = false;
    if (n.crashed) return;
    const bool parentLive =
        n.parent != kNoNode &&
        !nodes_[static_cast<std::size_t>(n.parent)].crashed;
    // Gap scan: one NACK per contiguous missing range in the window.
    // While new data is still flowing (an arrival advanced the high-water
    // mark since the timer was armed), only holes below the highest
    // arrival are evidence of loss — originals traverse the link in order,
    // so anything older than the newest first-time arrival cannot still be
    // en route. The SYNC-advertised head (wantUpTo) outruns the
    // serialization queue; chasing it while originals keep landing would
    // NACK packets that are merely in flight. Once no new ground has been
    // covered since the timer was armed, the advertised head becomes the
    // evidence — that is the tail-loss probe.
    bool outstanding = false;
    const bool flowing = n.lastArrival > n.nackArmTime;
    const std::uint64_t evidence =
        flowing ? std::min(n.wantUpTo, n.highestSeen + 1) : n.wantUpTo;
    const std::uint64_t scanEnd =
        std::min(std::max(evidence, n.nextExpected),
                 n.nextExpected + static_cast<std::uint64_t>(
                                      n.window.capacity()));
    std::uint64_t seq = n.nextExpected;
    while (seq < scanEnd) {
      if (n.window.test(seq)) {
        ++seq;
        continue;
      }
      std::uint64_t hi = seq + 1;
      while (hi < scanEnd && !n.window.test(hi)) ++hi;
      outstanding = true;
      if (parentLive) {
        ++result_.nacksSent;
        sendControl(ev.node, n.parent, Event::kNack, ev.time, wireSeq(seq),
                    static_cast<std::uint32_t>(hi - seq));
      }
      seq = hi;
    }
    // Upward refetches for sequences children want but we evicted.
    for (const auto& [missing, requesters] : n.pendingServes) {
      (void)requesters;
      outstanding = true;
      if (parentLive) {
        ++result_.refetches;
        sendControl(ev.node, n.parent, Event::kNack, ev.time,
                    wireSeq(missing), 1);
      }
    }
    if (!outstanding) {
      n.nack.reset();
      return;  // nothing missing: the timer goes quiet until a new gap
    }
    n.nack.advance();
    armNack(ev.node, ev.time);
  }

  void onNack(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    if (n.crashed) return;
    if (!isChildOf(ev.node, ev.peer)) return;  // stale (re-homed) request
    const std::uint64_t lo =
        unwrapSeq(ev.seq, std::max(n.highestSeen, n.nextExpected));
    const std::uint64_t hi =
        lo + std::min<std::uint64_t>(ev.count,
                                     static_cast<std::uint64_t>(
                                         o_.reorderWindow));
    bool registered = false;
    for (std::uint64_t u = lo; u < hi; ++u) {
      if (u >= n.nextExpected) break;  // not delivered here yet: will flow
      if (n.ring.holds(u)) {
        enqueueData(ev.node, ev.peer, u, ev.time, /*isRetransmit=*/true);
        continue;
      }
      ++result_.evictionMisses;
      auto& requesters = n.pendingServes[u];
      const bool fresh = requesters.empty();
      if (std::find(requesters.begin(), requesters.end(), ev.peer) ==
          requesters.end())
        requesters.push_back(ev.peer);
      result_.peakPendingServes = std::max(
          result_.peakPendingServes,
          static_cast<std::int64_t>(n.pendingServes.size()));
      registered = true;
      // Fire the first upward refetch immediately — waiting out a backoff
      // spacing at every level of the chain compounds into seconds of
      // repair latency. The NACK timer only carries the retries.
      if (fresh && n.parent != kNoNode &&
          !nodes_[static_cast<std::size_t>(n.parent)].crashed) {
        ++result_.refetches;
        sendControl(ev.node, n.parent, Event::kNack, ev.time, wireSeq(u), 1);
      }
    }
    if (registered) armNack(ev.node, ev.time);  // pace the refetch retries
  }

  void onSyncTimer(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    n.syncArmed = false;
    if (n.crashed) return;
    bool needed = false;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (n.childDone[i]) continue;
      const NodeId child = n.children[i];
      if (nodes_[static_cast<std::size_t>(child)].crashed) continue;
      needed = true;
      ++result_.syncsSent;
      sendControl(ev.node, child, Event::kSync, ev.time,
                  wireSeq(n.nextExpected));
    }
    if (needed) armSync(ev.node, ev.time);
  }

  void onSync(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    if (n.crashed) return;
    if (ev.peer != n.parent) return;  // stale advertisement after re-homing
    const std::uint64_t head =
        unwrapSeq(ev.seq, std::max(n.highestSeen, n.nextExpected));
    n.wantUpTo = std::max(n.wantUpTo, head);
    if (n.wantUpTo > n.nextExpected) armNack(ev.node, ev.time);
    // Re-offer a possibly-lost COMPLETE whenever the parent still probes.
    if (subtreeDone(n)) sendControl(ev.node, n.parent, Event::kComplete,
                                    ev.time);
  }

  void onComplete(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    if (n.crashed) return;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (n.children[i] == ev.peer) {
        n.childDone[i] = 1;
        break;
      }
    }
    maybeComplete(ev.node, ev.time);
  }

  void onCrash(const Event& ev) {
    NodeState& n = nodes_[static_cast<std::size_t>(ev.node)];
    if (n.crashed) return;
    n.crashed = true;
    n.crashTime = ev.time;
    ++result_.crashedNodes;
    n.pendingServes.clear();
    // The live parent stops forwarding to (and probing) the dead child —
    // modelled as the PR 1 failure detector confirming the crash.
    if (n.parent != kNoNode) {
      NodeState& p = nodes_[static_cast<std::size_t>(n.parent)];
      if (!p.crashed) {
        for (std::size_t i = 0; i < p.children.size(); ++i) {
          if (p.children[i] == ev.node) {
            p.children.erase(p.children.begin() +
                             static_cast<std::ptrdiff_t>(i));
            p.childDone.erase(p.childDone.begin() +
                              static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        maybeComplete(n.parent, ev.time);
      }
    }
    // Orphans re-home after the detection delay.
    for (const NodeId child : n.children) {
      if (!nodes_[static_cast<std::size_t>(child)].crashed)
        schedule(ev.time + o_.rehomeDelay, Event::kRehome, child, ev.node);
    }
    n.children.clear();
    n.childDone.clear();
  }

  bool isDescendantOf(NodeId node, NodeId ancestor) const {
    for (NodeId a = node; a != kNoNode;
         a = nodes_[static_cast<std::size_t>(a)].parent) {
      if (a == ancestor) return true;
    }
    return false;
  }

  void onRehome(const Event& ev) {
    NodeState& c = nodes_[static_cast<std::size_t>(ev.node)];
    if (c.crashed) return;
    if (c.parent != kNoNode &&
        !nodes_[static_cast<std::size_t>(c.parent)].crashed)
      return;  // already re-homed
    // Backup-parent walk: nearest live ancestor with spare degree.
    NodeId chosen = kNoNode;
    NodeId firstLiveAncestor = kNoNode;
    for (NodeId a = c.parent; a != kNoNode;
         a = nodes_[static_cast<std::size_t>(a)].parent) {
      const NodeState& cand = nodes_[static_cast<std::size_t>(a)];
      if (cand.crashed) continue;
      if (firstLiveAncestor == kNoNode) firstLiveAncestor = a;
      if (static_cast<int>(cand.children.size()) < degreeCap_) {
        chosen = a;
        break;
      }
    }
    if (chosen == kNoNode) {
      // Global fallback: nearest live feasible node outside c's subtree.
      double bestDist = kInf;
      for (NodeId v = 0; v < tree_.size(); ++v) {
        const NodeState& cand = nodes_[static_cast<std::size_t>(v)];
        if (cand.crashed || v == ev.node) continue;
        if (static_cast<int>(cand.children.size()) >= degreeCap_) continue;
        if (isDescendantOf(v, ev.node)) continue;
        const double d =
            distance(points_[static_cast<std::size_t>(v)],
                     points_[static_cast<std::size_t>(ev.node)]);
        if (d < bestDist) {
          bestDist = d;
          chosen = v;
        }
      }
    }
    if (chosen == kNoNode) {
      // Every feasible candidate is full: exceed the cap at the nearest
      // live ancestor rather than strand a live subtree.
      chosen = firstLiveAncestor;
      OMT_CHECK(chosen != kNoNode, "re-home found no live ancestor");
      ++result_.rehomesOverCap;
    }
    NodeState& np = nodes_[static_cast<std::size_t>(chosen)];
    c.parent = chosen;
    c.link = queue_.openLink();  // the old parent's link drains on its own
    c.linkDelay = propagationDelay(chosen, ev.node);
    np.children.push_back(ev.node);
    np.childDone.push_back(0);
    ++result_.rehomedChildren;
    resetNackPacing(ev.node);  // fresh parent: re-derive the repair pacing
    if (c.wantUpTo > c.nextExpected) armNack(ev.node, ev.time);
    // The new parent advertises its head right away (lossy; its sync timer
    // covers retries) so the child can resynchronize from the ring.
    sendControl(chosen, ev.node, Event::kSync, ev.time,
                wireSeq(np.nextExpected));
    armSync(chosen, ev.time);
  }

  // -- run -------------------------------------------------------------
  void validate() const;
  void finish(double endTime);

  const MulticastTree& tree_;
  std::span<const Point> points_;
  const DataplaneOptions& o_;
  Rng rng_;
  std::uint64_t base_;
  int degreeCap_ = 0;
  bool obsOn_ = false;

  std::vector<NodeState> nodes_;
  EventQueue queue_;
  std::int64_t emitted_ = 0;
  double lastProgress_ = 0.0;
  DataplaneResult result_;
};

void Engine::validate() const {
  OMT_CHECK(tree_.finalized(), "tree must be finalized");
  OMT_CHECK(points_.size() == static_cast<std::size_t>(tree_.size()),
            "one point per tree node required");
  OMT_CHECK(o_.packetCount >= 1, "need at least one packet");
  OMT_CHECK(o_.packetInterval > 0.0, "packet interval must be positive");
  OMT_CHECK(o_.serializationTime >= 0.0, "negative serialization time");
  OMT_CHECK(o_.perHopOverhead >= 0.0, "negative overhead");
  OMT_CHECK(o_.propagationFactor >= 0.0, "negative propagation factor");
  OMT_CHECK(o_.queueCapacity >= 1, "queue capacity must be positive");
  OMT_CHECK(o_.lossProbability >= 0.0 && o_.lossProbability < 1.0,
            "loss probability outside [0, 1)");
  validateGilbertElliott(o_.burst);
  OMT_CHECK(o_.controlLoss >= 0.0 && o_.controlLoss < 1.0,
            "control loss outside [0, 1)");
  for (const LossBurstWindow& w : o_.lossBursts)
    OMT_CHECK(w.extraLoss >= 0.0 && w.extraLoss < 1.0 && w.end >= w.start,
              "malformed loss-burst window");
  OMT_CHECK(o_.reorderWindow >= 1 && o_.reorderWindow <= kMaxReorderWindow,
            "reorder window outside [1, kMaxReorderWindow]");
  OMT_CHECK(o_.retransmitBuffer >= 1, "retransmit buffer must be positive");
  OMT_CHECK(o_.retransmitBufferPerNode.empty() ||
                o_.retransmitBufferPerNode.size() ==
                    static_cast<std::size_t>(tree_.size()),
            "per-node retransmit buffers must cover every node");
  for (const std::int64_t capacity : o_.retransmitBufferPerNode)
    OMT_CHECK(capacity >= 1, "retransmit buffer must be positive");
  OMT_CHECK(o_.nackDelay > 0.0, "NACK delay must be positive");
  OMT_CHECK(o_.nackBackoffFactor >= 1.0, "NACK backoff factor below 1");
  OMT_CHECK(o_.nackBackoffCap >= o_.nackDelay,
            "NACK backoff cap below the initial delay");
  OMT_CHECK(o_.syncInterval > 0.0, "sync interval must be positive");
  OMT_CHECK(o_.rehomeDelay >= 0.0, "negative re-home delay");
  OMT_CHECK(o_.stallTimeout > 0.0, "stall timeout must be positive");
  OMT_CHECK(o_.maxOutDegree >= 0, "negative degree cap");
  for (const CrashEvent& c : o_.crashes) {
    OMT_CHECK(c.node >= 0 && c.node < tree_.size(),
              "crash event for unknown node");
    OMT_CHECK(c.node != tree_.root(), "the source must not crash");
    OMT_CHECK(c.time >= 0.0, "negative crash time");
  }
}

void Engine::finish(double endTime) {
  result_.simEndTime = endTime;
  result_.nodes.resize(static_cast<std::size_t>(tree_.size()));
  std::uint64_t totalHash = kFnvOffset;
  for (NodeId v = 0; v < tree_.size(); ++v) {
    const NodeState& n = nodes_[static_cast<std::size_t>(v)];
    NodeReport& report = result_.nodes[static_cast<std::size_t>(v)];
    report.delivered = n.delivered;
    report.nextExpected = n.nextExpected;
    report.logHash = n.logHash;
    report.crashed = n.crashed;
    report.crashTime = n.crashTime;
    if (!n.crashed) result_.undelivered += o_.packetCount - n.delivered;
    totalHash = fnvMix(totalHash, static_cast<std::uint64_t>(v));
    totalHash = fnvMix(totalHash, n.logHash);
    result_.queueDrops += n.queue.drops();
    result_.peakQueueDepth = std::max(
        result_.peakQueueDepth,
        static_cast<std::int64_t>(n.queue.peakOccupancy()));
    result_.retransmitEvictions += n.ring.evictions();
    result_.peakRetransmitHeld =
        std::max(result_.peakRetransmitHeld, n.ring.occupancy());
  }
  result_.deliveryLogHash = totalHash;
  result_.completed = result_.undelivered == 0;
  result_.stalled = !result_.completed;

  Metrics& m = Metrics::get();
  m.sent.add(result_.packetsSent);
  m.delivered.add(result_.deliveries);
  m.duplicates.add(result_.duplicatesSuppressed);
  m.queueDrops.add(result_.queueDrops);
  m.linkLosses.add(result_.linkLosses);
  m.reorderDrops.add(result_.reorderDrops);
  m.nacks.add(result_.nacksSent);
  m.retransmits.add(result_.retransmits);
  m.evictions.add(result_.retransmitEvictions);
  m.evictionMisses.add(result_.evictionMisses);
  m.refetches.add(result_.refetches);
  m.syncs.add(result_.syncsSent);
  m.rehomes.add(result_.rehomedChildren);
  m.crashes.add(result_.crashedNodes);
}

DataplaneResult Engine::run() {
  validate();
  obsOn_ = obs::enabled();
  degreeCap_ = o_.maxOutDegree;
  if (degreeCap_ == 0) {
    for (NodeId v = 0; v < tree_.size(); ++v)
      degreeCap_ = std::max(degreeCap_, static_cast<int>(tree_.outDegree(v)));
    degreeCap_ = std::max(degreeCap_, 1);
  }

  nodes_.resize(static_cast<std::size_t>(tree_.size()));
  for (NodeId v = 0; v < tree_.size(); ++v) {
    NodeState& n = nodes_[static_cast<std::size_t>(v)];
    n.parent = v == tree_.root() ? kNoNode : tree_.parentOf(v);
    n.link = queue_.openLink();
    if (n.parent != kNoNode) n.linkDelay = propagationDelay(n.parent, v);
    const auto children = tree_.childrenOf(v);
    n.children.assign(children.begin(), children.end());
    n.childDone.assign(n.children.size(), 0);
    n.queue = UplinkQueue(o_.queueCapacity);
    n.nextExpected = base_;
    n.highestSeen = base_;
    n.wantUpTo = base_;
    n.window = ReorderWindow(o_.reorderWindow);
    resetNackPacing(v);
    const std::int64_t ringCapacity =
        o_.retransmitBufferPerNode.empty()
            ? o_.retransmitBuffer
            : o_.retransmitBufferPerNode[static_cast<std::size_t>(v)];
    n.ring = RetransmitWindow(ringCapacity, base_);
  }
  if (o_.recordDeliveries)
    result_.deliveryLog.resize(static_cast<std::size_t>(tree_.size()));

  for (const CrashEvent& c : o_.crashes)
    schedule(c.time, Event::kCrash, c.node);
  schedule(0.0, Event::kEmit, tree_.root());

  Stopwatch watch;
  double endTime = 0.0;
  while (!queue_.empty()) {
    endTime = queue_.nextTime();
    if (endTime > o_.maxSimTime || endTime > lastProgress_ + o_.stallTimeout)
      break;
    const Event ev = queue_.pop();
    ++result_.eventsProcessed;
    switch (ev.kind) {
      case Event::kEmit: onEmit(ev); break;
      case Event::kData: onData(ev); break;
      case Event::kNackTimer: onNackTimer(ev); break;
      case Event::kNack: onNack(ev); break;
      case Event::kSyncTimer: onSyncTimer(ev); break;
      case Event::kSync: onSync(ev); break;
      case Event::kComplete: onComplete(ev); break;
      case Event::kCrash: onCrash(ev); break;
      case Event::kRehome: onRehome(ev); break;
    }
  }
  result_.wallSeconds = watch.seconds();
  finish(endTime);
  return result_;
}

}  // namespace

LatencyHistogram::LatencyHistogram() {
  // Geometric bounds, 8 per decade from 1e-6 to 1e4 — enough resolution
  // for p99 interpolation at every scale the engine produces.
  const double ratio = std::pow(10.0, 1.0 / 8.0);
  for (double b = 1e-6; b <= 1e4 * (1.0 + 1e-12); b *= ratio)
    bounds_.push_back(b);
  buckets_.assign(bounds_.size() + 1, 0);
}

void LatencyHistogram::observe(double value) {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target && buckets_[i] > 0) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : bounds_.back();
      const double fraction =
          (target - cumulative) / static_cast<double>(buckets_[i]);
      return lower + fraction * (upper - lower);
    }
    cumulative = next;
  }
  return bounds_.back();
}

DataplaneResult runDataplane(const MulticastTree& tree,
                             std::span<const Point> points,
                             const DataplaneOptions& options) {
  Engine engine(tree, points, options);
  return engine.run();
}

}  // namespace omt::dataplane
