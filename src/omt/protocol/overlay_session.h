// An online (join/leave) overlay multicast session — the "decentralized
// version of the algorithm" the paper names as future work (Section VI).
//
// The session keeps the Polar_Grid structure incrementally instead of
// rebuilding from scratch:
//  * The grid frame is fixed by the source position; the ring count k
//    tracks the live membership (k ~ log2 n) and the outer radius grows
//    geometrically when a joiner lands outside. Both are handled by
//    cell-local moves — splitRings() / mergeRings() relabel cells in place
//    and extendRadius() appends outer shells without moving a single
//    host — and a full *regrid* survives only as the watchdog's
//    last-resort escalation (forceRegrid()) and for joiners beyond the
//    ring-slack memory guard.
//  * A joiner computes its own (ring, cell). If the cell is empty it
//    becomes the cell representative and attaches toward the representative
//    of the nearest occupied *ancestor* cell (parent cell c/2 in ring i-1,
//    grandparent c/4, ..., ring 0 = the source) — this generalises the
//    paper's child alignment to grids with holes, which an online session
//    cannot avoid. Otherwise it attaches to the member of its own cell
//    with spare capacity closest to it.
//  * A leaver's children re-attach through the same rule; a leaving
//    representative is replaced by the cell member closest to the cell's
//    inner-arc midpoint (the paper's representative rule).
//
// Every operation reports its *contact cost* — how many hosts the protocol
// had to talk to — so benches can measure control overhead, and the
// session can be snapshot at any time into a MulticastTree for validation
// and delay metrics. Degree caps are never violated at any point in time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "omt/common/prefetch.h"
#include "omt/common/types.h"
#include "omt/geometry/point.h"
#include "omt/grid/polar_grid.h"
#include "omt/tree/multicast_tree.h"

namespace omt {

struct SessionOptions {
  int maxOutDegree = 6;          ///< per-host fan-out budget, >= 2
  /// Initial outer radius of the grid frame; grows (by appending outer
  /// shells) when a joiner lands outside.
  double initialRadius = 1.0;
  /// Memory guard: heap ids address 2^(rings+1) cell slots, so an extend
  /// that would leave the ring count more than this many rings above the
  /// online target falls back to a full regrid.
  int maxRingSlack = 10;
};

struct SessionStats {
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t crashes = 0;
  std::int64_t regrids = 0;
  /// Incremental structural moves: ring splits (k -> k+1, cell-local
  /// relabel), merges (k -> k-1, sibling coalesce),
  /// radius extends (outer shells appended, no host moves), and
  /// watchdog-scoped rebuilds of individual violating cells.
  std::int64_t splits = 0;
  std::int64_t merges = 0;
  std::int64_t extends = 0;
  std::int64_t scopedRebuilds = 0;
  /// Newly-elected sibling representatives re-homed after a split (the
  /// optional re-optimisation shed under watchdog pressure).
  std::int64_t rehomedReps = 0;
  /// Hosts contacted by join/leave handling (protocol control cost),
  /// excluding regrids.
  std::int64_t contactCost = 0;
  /// Hosts touched by regrids (each regrid touches every live host).
  std::int64_t regridCost = 0;
  /// Hosts relabelled or re-placed by incremental maintenance (splits,
  /// merges, scoped rebuilds) — the incremental analogue of regridCost.
  std::int64_t maintenanceCost = 0;
  /// Orphans re-homed in O(1) contacts via their precomputed backup parent.
  std::int64_t backupHits = 0;
  /// Orphans whose backup was unusable (dead, saturated, or a cycle risk)
  /// and who fell back to the full placement path.
  std::int64_t backupFallbacks = 0;
};

/// Cost/quality report for one local repair operation (repairCrashed() or
/// migrate()): how many subtree roots moved, how they were re-homed, and
/// what the operation alone cost in contacts.
struct RepairReport {
  std::int64_t orphansReplaced = 0;
  std::int64_t backupHits = 0;
  std::int64_t fallbacks = 0;
  std::int64_t contacts = 0;
};

/// Snapshot of the live overlay as a standard MulticastTree plus the
/// session-id <-> tree-index mapping.
struct SessionSnapshot {
  MulticastTree tree;             ///< over live hosts, index space [0, m)
  std::vector<NodeId> sessionIds; ///< tree index -> session id
  std::vector<Point> positions;   ///< tree index -> host position
};

class OverlaySession {
 public:
  OverlaySession(const Point& sourcePosition, const SessionOptions& options);

  /// Add a host; returns its permanent session id. O(cell size + rings)
  /// contacts expected; may split rings or extend the radius (a regrid
  /// only past the ring-slack guard). Equivalent to admit()
  /// followed immediately by attachParked() — the atomic path used when no
  /// message loss can interrupt the handshake.
  NodeId join(const Point& position);

  // --- Decomposed (message-level) operations -------------------------------
  // The RPC driver (omt/rpc/reliable_session.h) splits each protocol
  // operation into individual fallible messages. Between messages the
  // session sits in an explicitly-modelled *degraded* state: a parked host
  // is live but unattached (it joined the membership, its attach never
  // completed), and structural invariants (degree caps, acyclicity) hold
  // throughout. Parked hosts are healed by attachParked(), a regrid (which
  // re-places every live host), or the detectAndRepair() sweep.

  /// Register a live host WITHOUT attaching it: the host exists, counts as
  /// live, but is parked outside the tree until attachParked() completes
  /// the join. Returns its permanent session id.
  NodeId admit(const Point& position);

  /// Complete a parked host's attachment: fresh admits go through the join
  /// placement path (and may split rings or extend the radius); re-parked
  /// orphans re-home backup-first like crash repair.
  void attachParked(NodeId node);

  /// Park a live, currently-attached non-source host: detach it (children
  /// are NOT moved; its subtree stays below it) — the state a host is left
  /// in when a re-attach handshake exhausts its retries mid-flight.
  void park(NodeId node);

  /// Purge ONE crashed host from the tree and its cell WITHOUT re-homing
  /// the orphans: the orphaned subtree roots are returned parked, each to
  /// be re-attached individually (attachParked) by its own fallible
  /// handshake. repairCrashed() == purgeCrashed() + attachParked() each +
  /// shrink check, when every handshake succeeds.
  std::vector<NodeId> purgeCrashed(NodeId dead);

  /// Remove a live non-source host that departed WITHOUT completing its
  /// goodbye handshake: children are left in place under it like a crash.
  /// (A lost leave is indistinguishable from a silent crash to everyone
  /// else.)
  void leaveSilently(NodeId node) { crash(node); }

  /// Remove a live non-source host; its children are re-attached. May
  /// merge rings when the membership shrinks enough.
  void leave(NodeId node);

  /// Crash a live non-source host SILENTLY: unlike leave(), nothing is
  /// repaired — the overlay still references the dead host until
  /// detectAndRepair() runs (modelling a host dying without notice).
  void crash(NodeId node);

  /// Heartbeat sweep: every live host probes its parent (one contact
  /// each); hosts whose parent crashed re-place their subtrees, and
  /// crashed hosts are purged from cells (representatives promoted).
  /// Returns the number of orphaned subtree roots re-placed. Snapshot()
  /// requires all crashes to have been repaired.
  ///
  /// This is the global-sweep baseline: orphans go through the full
  /// placement path (cell scan, ancestor chain, capacity walk). The local
  /// alternative driven by a failure detector is repairCrashed().
  std::int64_t detectAndRepair();

  /// Purge ONE crashed host (it must be a pending crash) and re-home its
  /// orphaned subtrees locally: each orphan first contacts its precomputed
  /// backup parent — O(1) contacts when the backup is live, has spare
  /// capacity, and lies outside the orphan's subtree — and degrades to the
  /// full placement path otherwise. The per-host dual of the global
  /// detectAndRepair() sweep, intended to be driven by a failure detector
  /// that confirmed this specific host dead.
  RepairReport repairCrashed(NodeId dead);

  /// Move a live non-source host away from its current parent and re-home
  /// it backup-first: what a host does after (rightly or wrongly) declaring
  /// its parent dead, or after being evicted by a parent that believes the
  /// host dead. Never violates structural invariants either way.
  RepairReport migrate(NodeId node);

  /// Number of crashed-but-not-yet-repaired hosts.
  std::int64_t undetectedCrashes() const { return undetectedCrashes_; }

  /// Number of live hosts currently parked (admitted or orphaned, waiting
  /// for an attach handshake to complete).
  std::int64_t parkedCount() const { return parkedCount_; }
  bool isParked(NodeId node) const {
    return node >= 0 && node < static_cast<NodeId>(hosts_.size()) &&
           hosts_[static_cast<std::size_t>(node)].parked;
  }

  /// Shrink check; exposed so a driver completing a decomposed repair can
  /// apply the same membership-halved rule as leave()/repairCrashed():
  /// merge rings, with a full-doubling hysteresis.
  void maybeShrinkRings();

  // --- Incremental grid maintenance ----------------------------------------
  // Cell-local structural moves replacing the full regrid. All three keep
  // every invariant (degree caps, acyclicity, cell-membership consistency)
  // at every intermediate step; none of them touches pending crashes or
  // parked hosts, so unlike regrid() they compose with the decomposed RPC
  // operations without healing state behind the driver's back.

  /// k -> k+1 over the same radius: O(live) cell relabel (each host gains
  /// one angular bit), then lazy representative re-selection — only the
  /// newly-created sibling cells elect (and, unless shedding, re-home) a
  /// representative. Returns false at kMaxRings.
  bool splitRings();

  /// k -> k-1 over the same radius: sibling cells coalesce; the surviving
  /// representative is kept as-is, so no host is re-homed at all. Returns
  /// false when fewer than two rings remain.
  bool mergeRings();

  /// Grow the outer radius to cover `needed` by appending outer shells
  /// (existing cells, heap ids, and attachments are untouched — the O(1)
  /// amortised answer to out-of-radius joiners). Returns false, leaving
  /// the session unchanged, when the ring count would exceed kMaxRings or
  /// the options_.maxRingSlack memory guard; the caller then regrids.
  bool extendRadius(double needed);

  /// Scoped rebuild — the watchdog's step-3 escalation. For each listed
  /// cell: purge its pending crashes (re-homing their orphans), re-elect
  /// the representative, and re-place the representative then every other
  /// attached member through the normal placement path. Hosts outside the
  /// listed cells are untouched. Returns the number of hosts re-placed.
  std::int64_t rebuildCells(std::span<const std::uint64_t> heapIds);

  /// Full regrid at the current radius — the watchdog's last-resort
  /// escalation (and the only way the grid coarsens its radius frame).
  void forceRegrid() { regrid(grid_.outerRadius()); }

  /// Shed optional re-optimisation (watchdog step-1 degradation): while
  /// set, splits skip re-homing newly-elected representatives — structure
  /// stays valid, quality recovery is deferred until pressure clears.
  void setShedOptionalWork(bool shed) { shedOptionalWork_ = shed; }
  bool shedOptionalWork() const { return shedOptionalWork_; }

  // --- Change journal (service delta publication) --------------------------
  // When enabled, the session records every node whose attachment, parent
  // link, or liveness/parked status changed since the last clearChanges().
  // A consumer that mirrors the session into a derived structure (the
  // service's RouteTable) can patch only the recorded nodes instead of
  // re-traversing everything. A regrid moves every host at once and
  // invalidates the journal — changeOverflow() flags it; the consumer must
  // then do a full pass before the journal is meaningful again.

  /// Start journalling (idempotent; off by default — marking is a branch
  /// plus a stamped push per first-touch, so sessions that never publish
  /// deltas pay nothing).
  void enableChangeJournal() { journalOn_ = true; }
  /// Nodes touched since the last clearChanges(), deduplicated, in
  /// first-touch order. Meaningless while changeOverflow() is set.
  std::span<const NodeId> changedNodes() const { return changedNodes_; }
  /// True after a structural escalation (regrid) re-placed every host.
  bool changeOverflow() const { return changeOverflow_; }
  void clearChanges();

  // --- Prefetch hints (the service's claim loop) ---------------------------
  // Hints only, like MulticastTree::prefetch: they read the session's own
  // vector headers and change no state. The service issues them for the
  // group a worker mutates next, so the next group's misses overlap the
  // current group's work. Every line they name is written by the event
  // that follows, so they prefetch for writing.

  /// The lines a membership event touches first: the append slots of the
  /// host table and the change journal, the source's host record, and the
  /// heads of the cell tables.
  void prefetch() const {
    constexpr auto kWrite = PrefetchFor::kWrite;
    const auto head = [](const auto& v) {
      prefetchRange(v.data(),
                    std::min(v.size() * sizeof(*v.data()),
                             2 * kCacheLineBytes),
                    kWrite);
    };
    const std::size_t next = hosts_.size();
    if (next < hosts_.capacity())
      prefetchRange(hosts_.data() + next, sizeof(Host), kWrite);
    if (next < changeStamp_.size())
      prefetchLine(changeStamp_.data() + next, kWrite);
    prefetchLine(changedNodes_.data() + changedNodes_.size(), kWrite);
    prefetchRange(hosts_.data(), sizeof(Host), kWrite);
    head(cellMembers_);
    head(cellRep_);
  }
  /// The host record of `node` and its journal stamp: a leave or a crash
  /// writes them first. Ids outside the host table are ignored.
  void prefetchHost(NodeId node) const {
    const auto i = static_cast<std::size_t>(node);
    if (node < 0 || i >= hosts_.size()) return;
    prefetchRange(hosts_.data() + i, sizeof(Host), PrefetchFor::kWrite);
    if (i < changeStamp_.size())
      prefetchLine(changeStamp_.data() + i, PrefetchFor::kWrite);
  }

  double outerRadius() const { return grid_.outerRadius(); }

  NodeId sourceId() const { return 0; }
  std::int64_t liveCount() const { return liveCount_; }
  const Point& positionOf(NodeId node) const;
  const SessionStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }
  int rings() const { return grid_.rings(); }
  // The membership/topology accessors are inline: the publication paths
  // (RouteTable::build/buildDelta) and the repair sweeps call them in
  // per-node loops, where an out-of-line call per probe dominates.
  bool isLive(NodeId node) const {
    return node >= 0 && node < static_cast<NodeId>(hosts_.size()) &&
           hosts_[static_cast<std::size_t>(node)].alive;
  }
  /// Whether `node` crashed and has not yet been purged by a repair.
  bool isPendingCrash(NodeId node) const {
    return node >= 0 && node < static_cast<NodeId>(hosts_.size()) &&
           hosts_[static_cast<std::size_t>(node)].pendingCrash;
  }

  // Read-only introspection for failure detectors and invariant checkers.
  // Ids cover every host ever admitted, live or not.
  std::int64_t hostCount() const {
    return static_cast<std::int64_t>(hosts_.size());
  }
  NodeId parentOf(NodeId node) const {
    OMT_CHECK(node >= 0 && node < hostCount(), "unknown host");
    return hosts_[static_cast<std::size_t>(node)].parent;
  }
  std::span<const NodeId> childrenOf(NodeId node) const {
    OMT_CHECK(node >= 0 && node < hostCount(), "unknown host");
    return hosts_[static_cast<std::size_t>(node)].children;
  }
  /// The host's precomputed fallback parent (kNoNode when none is known);
  /// a hint maintained on every attachment, revalidated at use time.
  NodeId backupParentOf(NodeId node) const;
  std::uint64_t heapIdOf(NodeId node) const;
  std::uint64_t cellCount() const { return grid_.heapIdCount(); }
  std::span<const NodeId> cellMembersOf(std::uint64_t heapId) const;
  NodeId cellRepresentativeOf(std::uint64_t heapId) const;

  /// Materialise the current overlay for validation/metrics.
  SessionSnapshot snapshot() const;

 private:
  struct Host {
    Point position;
    PolarCoords polar;
    std::uint64_t heapId = 0;  ///< cell under the current grid
    NodeId parent = kNoNode;
    NodeId backupParent = kNoNode;  ///< fallback parent hint (grandparent)
    std::vector<NodeId> children;
    bool alive = false;
    bool pendingCrash = false;  ///< crashed but not yet purged by a repair
    bool parked = false;  ///< live but unattached, awaiting an attach
  };

  int outDegreeOf(NodeId node) const {
    return static_cast<int>(hosts_[static_cast<std::size_t>(node)]
                                .children.size());
  }
  bool hasCapacity(NodeId node) const {
    return outDegreeOf(node) < options_.maxOutDegree;
  }

  void attach(NodeId child, NodeId parent);
  void detach(NodeId child);

  /// Whether `candidate` can become `node`'s parent: live (unless
  /// `requireAlive` is false), spare capacity, and not inside `node`'s own
  /// subtree (walking the parent chain counts one contact per hop).
  bool eligibleParent(NodeId node, NodeId candidate, bool requireAlive = true);

  /// Re-home one orphaned subtree root: O(1) attach to its precomputed
  /// backup parent when usable, full placement otherwise. Updates the
  /// backup-hit/fallback counters on `report`.
  void rehomeOrphan(NodeId orphan, RepairReport& report);

  /// Purge one dead host from its cell and the tree; appends its live
  /// children (now detached) to `orphans`.
  void purgeDeadHost(NodeId dead, std::vector<NodeId>& orphans);

  /// Clear a host's parked flag (no-op when not parked).
  void unpark(NodeId node);

  /// The representative of the nearest occupied ancestor cell of `heapId`
  /// (possibly the source). Counts contacts.
  NodeId ancestorRepresentative(std::uint64_t heapId);

  /// A parent for `node` near cell `heapId`: a spare-capacity member of
  /// the cell (closest to `node`), else the ancestor representative chain,
  /// else a capacity walk down from the source. Counts contacts.
  NodeId findParent(NodeId node, std::uint64_t heapId);

  /// Place a live, currently-detached host into the overlay.
  void place(NodeId node);

  /// Re-pick the representative of `heapId` from its current members by
  /// the inner-arc-midpoint rule (kNoNode when empty); counts contacts.
  void promoteRepresentative(std::uint64_t heapId);

  /// Rebuild the grid for the current membership (new k / new radius) and
  /// re-place every host. The only global operation.
  void regrid(double newRadius);

  /// Split until the ring count reaches the online target (the growth
  /// path of every join).
  void growRingsToTarget();

  /// Detach + re-place one attached live host (its subtree rides along,
  /// exactly like migrate() but through the cell placement path).
  void replaceHost(NodeId node);

  int targetRings() const;

  /// Journal a node's structural change (first touch per epoch only).
  void markChanged(NodeId node);

  SessionOptions options_;
  PolarGrid grid_;
  std::vector<Host> hosts_;          // index = session id; 0 = source
  std::vector<std::vector<NodeId>> cellMembers_;  // by heap id
  std::vector<NodeId> cellRep_;                   // by heap id
  std::int64_t liveCount_ = 1;
  std::int64_t undetectedCrashes_ = 0;
  std::int64_t parkedCount_ = 0;
  bool shedOptionalWork_ = false;
  std::vector<NodeId> crashedPending_;
  // Change journal: epoch-stamped so clearChanges() is O(1) — a node's
  // stamp matching changeEpoch_ means it is already in changedNodes_.
  bool journalOn_ = false;
  bool changeOverflow_ = false;
  std::uint32_t changeEpoch_ = 1;
  std::vector<std::uint32_t> changeStamp_;  ///< by session id
  std::vector<NodeId> changedNodes_;
  SessionStats stats_;
};

}  // namespace omt
