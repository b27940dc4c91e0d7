#include "omt/protocol/overlay_session.h"

#include <algorithm>
#include <cmath>

#include "omt/common/error.h"
#include "omt/obs/metrics.h"

namespace omt {
namespace {

/// Online target for the ring count: k ~ log2(n) - 3 tracks the offline
/// maximal-k selection (which needs every inner-ring cell occupied, a
/// coupon-collector condition) without inspecting cell occupancy.
int onlineTargetRings(std::int64_t liveCount) {
  int log2n = 0;
  while ((std::int64_t{1} << (log2n + 1)) <= liveCount) ++log2n;
  return std::clamp(log2n - 3, 1, PolarGrid::kMaxRings);
}

/// Structural-maintenance instruments. Counters are per logical event and
/// the moves themselves are deterministic for a fixed call sequence.
struct SessionMetrics {
  obs::Counter& splits;
  obs::Counter& merges;
  obs::Counter& extends;
  obs::Counter& scopedRebuilds;
  obs::Counter& regrids;
  obs::Gauge& rings;
};

SessionMetrics& sessionMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static SessionMetrics metrics{
      registry.counter("omt_protocol_splits_total"),
      registry.counter("omt_protocol_merges_total"),
      registry.counter("omt_protocol_extends_total"),
      registry.counter("omt_protocol_scoped_rebuilds_total"),
      registry.counter("omt_protocol_regrids_total"),
      registry.gauge("omt_protocol_rings")};
  return metrics;
}

}  // namespace

OverlaySession::OverlaySession(const Point& sourcePosition,
                               const SessionOptions& options)
    : options_(options),
      grid_(sourcePosition.dim(), 1, options.initialRadius) {
  OMT_CHECK(options.maxOutDegree >= 2, "out-degree cap must be at least 2");
  OMT_CHECK(options.initialRadius > 0.0, "initial radius must be positive");

  Host source;
  source.position = sourcePosition;
  source.polar = toPolar(sourcePosition, sourcePosition);
  source.heapId = 1;
  source.alive = true;
  hosts_.push_back(std::move(source));
  cellMembers_.assign(grid_.heapIdCount(), {});
  cellRep_.assign(grid_.heapIdCount(), kNoNode);
  cellMembers_[1].push_back(0);
  cellRep_[1] = 0;
}

const Point& OverlaySession::positionOf(NodeId node) const {
  OMT_CHECK(node >= 0 && node < hostCount(), "unknown host");
  return hosts_[static_cast<std::size_t>(node)].position;
}

void OverlaySession::unpark(NodeId node) {
  auto& host = hosts_[static_cast<std::size_t>(node)];
  if (host.parked) {
    host.parked = false;
    --parkedCount_;
    markChanged(node);
  }
}

void OverlaySession::markChanged(NodeId node) {
  if (!journalOn_) return;
  const auto i = static_cast<std::size_t>(node);
  if (changeStamp_.size() <= i) changeStamp_.resize(hosts_.size() + 1, 0);
  if (changeStamp_[i] == changeEpoch_) return;
  changeStamp_[i] = changeEpoch_;
  changedNodes_.push_back(node);
}

void OverlaySession::clearChanges() {
  changedNodes_.clear();
  changeOverflow_ = false;
  if (++changeEpoch_ == 0) {  // stamp wrap: stale stamps must not collide
    std::fill(changeStamp_.begin(), changeStamp_.end(), 0);
    changeEpoch_ = 1;
  }
}

NodeId OverlaySession::backupParentOf(NodeId node) const {
  OMT_CHECK(node >= 0 && node < hostCount(), "unknown host");
  return hosts_[static_cast<std::size_t>(node)].backupParent;
}

std::uint64_t OverlaySession::heapIdOf(NodeId node) const {
  OMT_CHECK(node >= 0 && node < hostCount(), "unknown host");
  return hosts_[static_cast<std::size_t>(node)].heapId;
}

std::span<const NodeId> OverlaySession::cellMembersOf(
    std::uint64_t heapId) const {
  OMT_CHECK(heapId >= 1 && heapId < grid_.heapIdCount(), "heap id out of range");
  return cellMembers_[heapId];
}

NodeId OverlaySession::cellRepresentativeOf(std::uint64_t heapId) const {
  OMT_CHECK(heapId >= 1 && heapId < grid_.heapIdCount(), "heap id out of range");
  return cellRep_[heapId];
}

void OverlaySession::attach(NodeId child, NodeId parent) {
  OMT_ASSERT(hasCapacity(parent), "attach would exceed the degree cap");
  auto& c = hosts_[static_cast<std::size_t>(child)];
  OMT_ASSERT(c.parent == kNoNode, "host already attached");
  c.parent = parent;
  // Proactive backup: remember the grandparent so a future parent crash can
  // be healed in O(1) contacts. An ancestor can never be inside the child's
  // own subtree, so the hint is cycle-safe by construction (capacity and
  // liveness are still revalidated at use time).
  c.backupParent = hosts_[static_cast<std::size_t>(parent)].parent;
  hosts_[static_cast<std::size_t>(parent)].children.push_back(child);
  markChanged(child);
}

void OverlaySession::detach(NodeId child) {
  auto& c = hosts_[static_cast<std::size_t>(child)];
  if (c.parent == kNoNode) return;
  auto& siblings = hosts_[static_cast<std::size_t>(c.parent)].children;
  // The entry can already be gone when a crashed parent's child list was
  // purged before this child's own crash is processed.
  const auto it = std::find(siblings.begin(), siblings.end(), child);
  if (it != siblings.end()) siblings.erase(it);
  c.parent = kNoNode;
  markChanged(child);
}

NodeId OverlaySession::ancestorRepresentative(std::uint64_t heapId) {
  for (std::uint64_t h = heapId >> 1; h >= 1; h >>= 1) {
    ++stats_.contactCost;
    if (cellRep_[h] != kNoNode) return cellRep_[h];
  }
  return 0;  // the source, representative of ring 0
}

bool OverlaySession::eligibleParent(NodeId node, NodeId candidate,
                                    bool requireAlive) {
  // A candidate is ineligible if it cannot acknowledge the attach (it is
  // dead) or if attaching under it would create a cycle, i.e. it lies in
  // `node`'s own (re-attaching) subtree.
  if (candidate == node || !hasCapacity(candidate)) return false;
  if (requireAlive && !hosts_[static_cast<std::size_t>(candidate)].alive)
    return false;
  for (NodeId a = candidate; a != kNoNode;
       a = hosts_[static_cast<std::size_t>(a)].parent) {
    ++stats_.contactCost;
    if (a == node) return false;
  }
  return true;
}

NodeId OverlaySession::findParent(NodeId node, std::uint64_t heapId) {
  const Point& where = hosts_[static_cast<std::size_t>(node)].position;
  const auto eligible = [&](NodeId candidate) {
    return eligibleParent(node, candidate);
  };

  const auto bestInCell = [&](std::uint64_t h) {
    NodeId best = kNoNode;
    double bestDist = kInf;
    for (const NodeId member : cellMembers_[h]) {
      ++stats_.contactCost;
      if (!eligible(member)) continue;
      const double d = squaredDistance(
          hosts_[static_cast<std::size_t>(member)].position, where);
      if (d < bestDist) {
        bestDist = d;
        best = member;
      }
    }
    return best;
  };

  // Own cell, then ancestor cells up to ring 0.
  for (std::uint64_t h = heapId; h >= 1; h >>= 1) {
    const NodeId candidate = bestInCell(h);
    if (candidate != kNoNode) return candidate;
  }

  // Last resort: breadth-first capacity walk from the source; total live
  // capacity 2m always exceeds the m-1 edges, so a slot exists — though it
  // can be held hostage by crashed-but-undetected children. Prefer a live
  // adopter; failing that, degrade to a pending-crash host with a free slot
  // (the orphan's own heartbeat will re-detect and move it again) rather
  // than fail.
  NodeId degraded = kNoNode;
  std::vector<NodeId> frontier{0};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId v = frontier[head];
    ++stats_.contactCost;
    if (eligible(v)) return v;
    if (degraded == kNoNode &&
        hosts_[static_cast<std::size_t>(v)].pendingCrash &&
        eligibleParent(node, v, /*requireAlive=*/false)) {
      degraded = v;
    }
    for (const NodeId c : hosts_[static_cast<std::size_t>(v)].children)
      frontier.push_back(c);
  }
  if (degraded != kNoNode) return degraded;
  OMT_ASSERT(false, "no feasible parent in a session with cap >= 2");
  return kNoNode;
}

void OverlaySession::place(NodeId node) {
  const std::uint64_t h = hosts_[static_cast<std::size_t>(node)].heapId;
  if (cellRep_[h] == kNoNode) cellRep_[h] = node;
  if (cellRep_[h] == node) {
    // Cell representative (first host of the cell, or a re-attaching
    // orphan that already represents it): attach toward the nearest
    // occupied ancestor cell's representative.
    NodeId parent = ancestorRepresentative(h);
    if (!eligibleParent(node, parent)) parent = findParent(node, h);
    attach(node, parent);
    return;
  }
  attach(node, findParent(node, h));
}

NodeId OverlaySession::join(const Point& position) {
  const NodeId id = admit(position);
  attachParked(id);
  return id;
}

NodeId OverlaySession::admit(const Point& position) {
  OMT_CHECK(position.dim() == grid_.dim(), "dimension mismatch");
  ++stats_.joins;
  const auto id = static_cast<NodeId>(hosts_.size());
  Host host;
  host.position = position;
  host.polar = toPolar(position, hosts_[0].position);
  host.alive = true;
  host.parked = true;
  hosts_.push_back(std::move(host));
  ++liveCount_;
  ++parkedCount_;
  markChanged(id);
  return id;
}

void OverlaySession::attachParked(NodeId node) {
  OMT_CHECK(isParked(node), "host is not parked");
  unpark(node);
  auto& self = hosts_[static_cast<std::size_t>(node)];
  if (self.heapId == 0) {
    // Fresh admit (never placed under any grid): the join placement path.
    const double radius = self.polar.radius;
    if (radius > grid_.outerRadius() && !extendRadius(radius)) {
      // Extreme outlier beyond the ring-slack memory guard: the one
      // remaining growth-path regrid (places everyone, including us).
      regrid(radius * 1.5);
      return;
    }
    growRingsToTarget();
    // Unlike a regrid, the structural moves above never place the joiner
    // itself — fall through to normal placement.
    const int ring =
        grid_.ringOf(std::min(self.polar.radius, grid_.outerRadius()));
    self.heapId = grid_.heapId(ring, grid_.cellOf(self.polar, ring));
    cellMembers_[self.heapId].push_back(node);
    place(node);
    return;
  }
  // Re-parked orphan (already a cell member): re-home backup-first, with
  // the same accounting as crash repair.
  RepairReport report;
  rehomeOrphan(node, report);
}

void OverlaySession::park(NodeId node) {
  OMT_CHECK(isLive(node), "host is not live");
  OMT_CHECK(node != 0, "the source cannot park");
  OMT_CHECK(!isParked(node), "host is already parked");
  detach(node);
  hosts_[static_cast<std::size_t>(node)].parked = true;
  ++parkedCount_;
  markChanged(node);
}

void OverlaySession::leave(NodeId node) {
  OMT_CHECK(isLive(node), "host is not live");
  OMT_CHECK(node != 0, "the source cannot leave");
  ++stats_.leaves;
  unpark(node);
  auto& self = hosts_[static_cast<std::size_t>(node)];

  // Remove from the overlay and its cell. (A freshly-admitted parked host
  // is in no cell yet — the erase is conditional for that case.)
  detach(node);
  auto& members = cellMembers_[self.heapId];
  const auto it = std::find(members.begin(), members.end(), node);
  if (it != members.end()) members.erase(it);
  if (cellRep_[self.heapId] == node) promoteRepresentative(self.heapId);

  const std::vector<NodeId> orphans = std::move(self.children);
  self.children.clear();
  self.alive = false;
  --liveCount_;
  markChanged(node);
  for (const NodeId orphan : orphans) {
    hosts_[static_cast<std::size_t>(orphan)].parent = kNoNode;
    markChanged(orphan);
    // A crashed-but-undetected orphan stays detached; the next
    // detectAndRepair() sweep re-homes its own live children.
    if (hosts_[static_cast<std::size_t>(orphan)].alive) place(orphan);
  }

  maybeShrinkRings();
}

void OverlaySession::promoteRepresentative(std::uint64_t heapId) {
  // The member closest to the cell's inner-arc midpoint (the
  // representative rule of Section III-B); kNoNode for an empty cell.
  const auto& members = cellMembers_[heapId];
  NodeId promoted = kNoNode;
  if (!members.empty()) {
    const int ring = grid_.ringOfHeapId(heapId);
    const RingSegment segment =
        grid_.cellSegment(ring, grid_.cellOfHeapId(heapId));
    PolarCoords mid;
    mid.dim = grid_.dim();
    mid.radius = segment.radial().lo;
    for (int j = 0; j < segment.cubeAxes(); ++j) {
      double m = segment.cubeAxis(j).mid();
      if (j == azimuthAxis(grid_.dim())) m -= std::floor(m);
      mid.cube[static_cast<std::size_t>(j)] = m;
    }
    const Point target = fromPolar(mid, hosts_[0].position);
    double bestDist = kInf;
    for (const NodeId member : members) {
      ++stats_.contactCost;
      // A crashed-but-undetected member cannot answer a representative
      // election; leave the cell unrepresented rather than electing a
      // corpse (the next joiner or repair re-elects).
      if (!hosts_[static_cast<std::size_t>(member)].alive) continue;
      const double d = squaredDistance(
          hosts_[static_cast<std::size_t>(member)].position, target);
      if (d < bestDist) {
        bestDist = d;
        promoted = member;
      }
    }
  }
  cellRep_[heapId] = promoted;
}

void OverlaySession::crash(NodeId node) {
  OMT_CHECK(isLive(node), "host is not live");
  OMT_CHECK(node != 0, "the source cannot crash");
  ++stats_.crashes;
  unpark(node);
  hosts_[static_cast<std::size_t>(node)].alive = false;
  hosts_[static_cast<std::size_t>(node)].pendingCrash = true;
  --liveCount_;
  markChanged(node);
  ++undetectedCrashes_;
  crashedPending_.push_back(node);
  // Nothing else: the overlay still points at the dead host until
  // detectAndRepair() sweeps or a failure detector confirms the crash and
  // calls repairCrashed().
}

void OverlaySession::purgeDeadHost(NodeId dead, std::vector<NodeId>& orphans) {
  // Purge a crashed host from the structure; collect its live children.
  // (A regrid between the crash and this purge already removed the host
  // from its cell — the erase is conditional for that case.)
  Host& host = hosts_[static_cast<std::size_t>(dead)];
  detach(dead);
  auto& members = cellMembers_[host.heapId];
  const auto it = std::find(members.begin(), members.end(), dead);
  if (it != members.end()) members.erase(it);
  if (cellRep_[host.heapId] == dead) promoteRepresentative(host.heapId);
  for (const NodeId child : host.children) {
    hosts_[static_cast<std::size_t>(child)].parent = kNoNode;
    markChanged(child);
    if (hosts_[static_cast<std::size_t>(child)].alive)
      orphans.push_back(child);
  }
  host.children.clear();
  host.pendingCrash = false;
  markChanged(dead);
}

void OverlaySession::maybeShrinkRings() {
  // Merge with a full-doubling hysteresis: a ring earned at membership n
  // is only given back once the membership falls below n/2, so a count
  // oscillating around a power of two cannot thrash O(n) relabellings.
  while (grid_.rings() >= 2 &&
         onlineTargetRings(liveCount_ * 2) < grid_.rings()) {
    if (!mergeRings()) break;
  }
}

std::int64_t OverlaySession::detectAndRepair() {
  // Heartbeat: every live non-source host probes its parent once.
  stats_.contactCost += std::max<std::int64_t>(0, liveCount_ - 1);
  if (crashedPending_.empty() && parkedCount_ == 0) return 0;

  std::vector<NodeId> orphans;
  for (const NodeId dead : crashedPending_) purgeDeadHost(dead, orphans);
  crashedPending_.clear();
  undetectedCrashes_ = 0;

  for (const NodeId orphan : orphans) place(orphan);

  // The global sweep also heals parked hosts (half-completed joins or
  // repairs abandoned by the RPC layer).
  std::int64_t healed = 0;
  if (parkedCount_ > 0) {
    std::vector<NodeId> parked;
    for (std::size_t id = 0; id < hosts_.size(); ++id) {
      if (hosts_[id].parked) parked.push_back(static_cast<NodeId>(id));
    }
    for (const NodeId node : parked) {
      // An attachParked-triggered regrid may have attached the rest.
      if (!isParked(node)) continue;
      attachParked(node);
      ++healed;
    }
  }

  maybeShrinkRings();
  return static_cast<std::int64_t>(orphans.size()) + healed;
}

void OverlaySession::rehomeOrphan(NodeId orphan, RepairReport& report) {
  ++report.orphansReplaced;
  const NodeId backup = hosts_[static_cast<std::size_t>(orphan)].backupParent;
  ++stats_.contactCost;  // contact the backup (or discover it is unusable)
  if (backup != kNoNode && eligibleParent(orphan, backup)) {
    attach(orphan, backup);
    ++report.backupHits;
    ++stats_.backupHits;
    return;
  }
  // Graceful degradation: the regular placement path — own cell, ancestor
  // representatives, then the breadth-first capacity walk from the source.
  ++report.fallbacks;
  ++stats_.backupFallbacks;
  place(orphan);
}

std::vector<NodeId> OverlaySession::purgeCrashed(NodeId dead) {
  OMT_CHECK(isPendingCrash(dead), "host is not a pending crash");
  std::vector<NodeId> orphans;
  purgeDeadHost(dead, orphans);
  crashedPending_.erase(
      std::find(crashedPending_.begin(), crashedPending_.end(), dead));
  --undetectedCrashes_;
  // The orphans come back parked: each awaits its own attach handshake.
  // No shrink check here — the caller runs it once the repair completes
  // (an immediate regrid would heal the orphans behind the driver's back).
  for (const NodeId orphan : orphans) {
    hosts_[static_cast<std::size_t>(orphan)].parked = true;
    ++parkedCount_;
  }
  return orphans;
}

RepairReport OverlaySession::repairCrashed(NodeId dead) {
  OMT_CHECK(isPendingCrash(dead), "host is not a pending crash");
  const std::int64_t contactsBefore = stats_.contactCost;
  RepairReport report;

  std::vector<NodeId> orphans;
  purgeDeadHost(dead, orphans);
  crashedPending_.erase(
      std::find(crashedPending_.begin(), crashedPending_.end(), dead));
  --undetectedCrashes_;

  for (const NodeId orphan : orphans) rehomeOrphan(orphan, report);

  report.contacts = stats_.contactCost - contactsBefore;
  maybeShrinkRings();
  return report;
}

RepairReport OverlaySession::migrate(NodeId node) {
  OMT_CHECK(isLive(node), "host is not live");
  OMT_CHECK(node != 0, "the source cannot migrate");
  // A parked host has no attachment to walk away from; attachParked() is
  // the operation that completes its placement (and clears the flag).
  OMT_CHECK(!isParked(node), "host is parked");
  const std::int64_t contactsBefore = stats_.contactCost;
  ++stats_.contactCost;  // goodbye message to the old parent (best effort)
  detach(node);
  RepairReport report;
  rehomeOrphan(node, report);
  report.contacts = stats_.contactCost - contactsBefore;
  return report;
}

void OverlaySession::replaceHost(NodeId node) {
  detach(node);
  place(node);
  ++stats_.maintenanceCost;
}

bool OverlaySession::splitRings() {
  if (grid_.rings() >= PolarGrid::kMaxRings) return false;
  const PolarGrid next = grid_.afterSplit();

  // Cell-local relabel: every placed host gains one angular bit (ring-0
  // hosts additionally resolve radially into {1, 2, 3}). Fresh parked
  // admits (heapId 0) are in no cell and are untouched; crashed-but-
  // unpurged members relabel like everyone else.
  std::vector<std::vector<NodeId>> nextMembers(next.heapIdCount());
  std::vector<NodeId> nextRep(next.heapIdCount(), kNoNode);
  for (std::uint64_t h = 1; h < grid_.heapIdCount(); ++h) {
    for (const NodeId member : cellMembers_[h]) {
      Host& host = hosts_[static_cast<std::size_t>(member)];
      host.heapId = grid_.splitTargetOf(h, host.polar, host.polar.radius);
      nextMembers[host.heapId].push_back(member);
      ++stats_.maintenanceCost;
    }
    // Distinct old cells map to disjoint new-cell sets, so the old
    // representative keeps representing whichever sibling it landed in —
    // and its attachment (toward an ancestor of both siblings) stays
    // aligned, so it is not re-homed.
    const NodeId rep = cellRep_[h];
    if (rep != kNoNode)
      nextRep[hosts_[static_cast<std::size_t>(rep)].heapId] = rep;
  }
  grid_ = next;
  cellMembers_ = std::move(nextMembers);
  cellRep_ = std::move(nextRep);
  cellRep_[1] = 0;
  ++stats_.splits;
  sessionMetrics().splits.add();
  sessionMetrics().rings.set(static_cast<double>(grid_.rings()));

  // Lazy representative re-selection: only sibling cells left without a
  // representative elect one, in ascending heap order so ancestor
  // representatives exist before descendants re-home toward them. The
  // re-homing itself is the optional quality work the watchdog sheds.
  for (std::uint64_t h = 2; h < grid_.heapIdCount(); ++h) {
    if (cellRep_[h] != kNoNode || cellMembers_[h].empty()) continue;
    promoteRepresentative(h);
    const NodeId rep = cellRep_[h];
    if (rep == kNoNode) continue;  // every member crashed, unpurged
    if (shedOptionalWork_ || isParked(rep)) continue;
    ++stats_.rehomedReps;
    replaceHost(rep);
  }
  return true;
}

bool OverlaySession::mergeRings() {
  if (grid_.rings() < 2) return false;
  const PolarGrid next = grid_.afterMerge();

  // Sibling cells coalesce (rings 0..1 collapse into the new central
  // ball). The surviving representative is whichever sibling's was alive
  // (ties favour the lower heap id); losers simply stay attached as
  // ordinary members — no host is re-homed.
  std::vector<std::vector<NodeId>> nextMembers(next.heapIdCount());
  std::vector<NodeId> nextRep(next.heapIdCount(), kNoNode);
  for (std::uint64_t h = 1; h < grid_.heapIdCount(); ++h) {
    const std::uint64_t target = grid_.mergeTargetOf(h);
    for (const NodeId member : cellMembers_[h]) {
      hosts_[static_cast<std::size_t>(member)].heapId = target;
      nextMembers[target].push_back(member);
      ++stats_.maintenanceCost;
    }
    const NodeId rep = cellRep_[h];
    if (rep == kNoNode) continue;
    NodeId& slot = nextRep[target];
    if (slot == kNoNode ||
        (!hosts_[static_cast<std::size_t>(slot)].alive &&
         hosts_[static_cast<std::size_t>(rep)].alive)) {
      slot = rep;
    }
  }
  grid_ = next;
  cellMembers_ = std::move(nextMembers);
  cellRep_ = std::move(nextRep);
  cellRep_[1] = 0;
  ++stats_.merges;
  sessionMetrics().merges.add();
  sessionMetrics().rings.set(static_cast<double>(grid_.rings()));
  return true;
}

bool OverlaySession::extendRadius(double needed) {
  if (needed <= grid_.outerRadius()) return true;
  // Smallest j with R * 2^{j/d} >= needed, with an fp guard loop: the
  // analytic j can undershoot by one ulp.
  int extra = static_cast<int>(std::ceil(
      static_cast<double>(grid_.dim()) *
      std::log2(needed / grid_.outerRadius())));
  extra = std::max(extra, 1);
  if (grid_.rings() + extra > PolarGrid::kMaxRings) return false;
  PolarGrid next = grid_.afterExtend(extra);
  while (next.outerRadius() < needed) {
    if (next.rings() >= PolarGrid::kMaxRings) return false;
    next = grid_.afterExtend(++extra);
  }
  // Memory guard: heap ids address 2^(rings+1) slots, so refuse to chase an
  // extreme outlier far past the online target — the caller regrids.
  if (next.rings() > onlineTargetRings(liveCount_) + options_.maxRingSlack)
    return false;

  // Every existing boundary radius and heap id is preserved; only the
  // tables grow to cover the appended outer shells. No host moves.
  cellMembers_.resize(next.heapIdCount());
  cellRep_.resize(next.heapIdCount(), kNoNode);
  grid_ = next;
  ++stats_.extends;
  sessionMetrics().extends.add();
  sessionMetrics().rings.set(static_cast<double>(grid_.rings()));
  return true;
}

void OverlaySession::growRingsToTarget() {
  while (onlineTargetRings(liveCount_) > grid_.rings()) {
    if (!splitRings()) break;
  }
}

std::int64_t OverlaySession::rebuildCells(
    std::span<const std::uint64_t> heapIds) {
  std::int64_t replaced = 0;
  for (const std::uint64_t h : heapIds) {
    OMT_CHECK(h >= 1 && h < grid_.heapIdCount(), "heap id out of range");
    ++stats_.scopedRebuilds;
    sessionMetrics().scopedRebuilds.add();

    // Purge this cell's pending crashes first (their orphans re-home
    // backup-first, wherever they live).
    std::vector<NodeId> deadHere;
    for (const NodeId member : cellMembers_[h]) {
      if (hosts_[static_cast<std::size_t>(member)].pendingCrash)
        deadHere.push_back(member);
    }
    for (const NodeId dead : deadHere) {
      std::vector<NodeId> orphans;
      purgeDeadHost(dead, orphans);
      crashedPending_.erase(
          std::find(crashedPending_.begin(), crashedPending_.end(), dead));
      --undetectedCrashes_;
      RepairReport report;
      for (const NodeId orphan : orphans) rehomeOrphan(orphan, report);
      replaced += report.orphansReplaced;
    }

    // Re-elect, then re-place the representative and every other attached
    // member one at a time (each re-place completes before the next
    // starts, so the source-reachable component always has a spare slot).
    // Ring 0 keeps the source as its permanent representative.
    if (h != 1) promoteRepresentative(h);
    const std::vector<NodeId> members = cellMembers_[h];
    const NodeId rep = cellRep_[h];
    const auto replaceable = [&](NodeId m) {
      return m != 0 && hosts_[static_cast<std::size_t>(m)].alive &&
             !hosts_[static_cast<std::size_t>(m)].parked;
    };
    if (rep != kNoNode && replaceable(rep)) {
      replaceHost(rep);
      ++replaced;
    }
    for (const NodeId member : members) {
      if (member == rep || !replaceable(member)) continue;
      replaceHost(member);
      ++replaced;
    }
  }
  return replaced;
}

void OverlaySession::regrid(double newRadius) {
  // Every host is detached and re-placed below: the journal cannot bound
  // the change set, so escalate to "everything moved".
  if (journalOn_) changeOverflow_ = true;
  ++stats_.regrids;
  sessionMetrics().regrids.add();
  stats_.regridCost += liveCount_;
  // A regrid rebuilds the overlay from live hosts only, which repairs any
  // pending crashes as a side effect.
  for (const NodeId dead : crashedPending_)
    hosts_[static_cast<std::size_t>(dead)].pendingCrash = false;
  crashedPending_.clear();
  undetectedCrashes_ = 0;

  double maxRadius = newRadius;
  for (const Host& host : hosts_) {
    if (host.alive) maxRadius = std::max(maxRadius, host.polar.radius);
  }
  grid_ = PolarGrid(grid_.dim(), onlineTargetRings(liveCount_), maxRadius);
  sessionMetrics().rings.set(static_cast<double>(grid_.rings()));
  cellMembers_.assign(grid_.heapIdCount(), {});
  cellRep_.assign(grid_.heapIdCount(), kNoNode);

  // Reset the overlay and re-place: cell representatives first in ring
  // order (so the core network exists before locals join), then everyone
  // else.
  // A regrid re-places every live host, which also heals parked ones.
  for (auto& host : hosts_) {
    host.parent = kNoNode;
    host.backupParent = kNoNode;
    host.children.clear();
    host.parked = false;
  }
  parkedCount_ = 0;
  for (std::size_t id = 0; id < hosts_.size(); ++id) {
    Host& host = hosts_[id];
    if (!host.alive) continue;
    const int ring = grid_.ringOf(std::min(host.polar.radius, maxRadius));
    host.heapId = grid_.heapId(ring, grid_.cellOf(host.polar, ring));
    cellMembers_[host.heapId].push_back(static_cast<NodeId>(id));
  }
  cellRep_[1] = 0;

  // Representatives by the inner-arc-midpoint rule, placed in heap order.
  for (std::uint64_t h = 2; h < grid_.heapIdCount(); ++h) {
    if (cellMembers_[h].empty()) continue;
    const int ring = grid_.ringOfHeapId(h);
    const RingSegment segment =
        grid_.cellSegment(ring, grid_.cellOfHeapId(h));
    PolarCoords mid;
    mid.dim = grid_.dim();
    mid.radius = segment.radial().lo;
    for (int j = 0; j < segment.cubeAxes(); ++j) {
      double m = segment.cubeAxis(j).mid();
      if (j == azimuthAxis(grid_.dim())) m -= std::floor(m);
      mid.cube[static_cast<std::size_t>(j)] = m;
    }
    const Point target = fromPolar(mid, hosts_[0].position);
    NodeId rep = kNoNode;
    double bestDist = kInf;
    for (const NodeId member : cellMembers_[h]) {
      const double d = squaredDistance(
          hosts_[static_cast<std::size_t>(member)].position, target);
      if (d < bestDist) {
        bestDist = d;
        rep = member;
      }
    }
    cellRep_[h] = rep;
    NodeId parent = ancestorRepresentative(h);
    if (!hasCapacity(parent)) parent = findParent(rep, h >> 1);
    attach(rep, parent);
  }
  // Locals.
  for (std::uint64_t h = 1; h < grid_.heapIdCount(); ++h) {
    for (const NodeId member : cellMembers_[h]) {
      if (member == cellRep_[h]) continue;
      if (member == 0) continue;
      attach(member, findParent(member, h));
    }
  }
}

SessionSnapshot OverlaySession::snapshot() const {
  OMT_CHECK(undetectedCrashes_ == 0,
            "snapshot() with undetected crashes; run detectAndRepair()");
  OMT_CHECK(parkedCount_ == 0,
            "snapshot() with parked hosts; complete their attaches first");
  std::vector<NodeId> sessionIds;
  std::vector<NodeId> toCompact(hosts_.size(), kNoNode);
  for (std::size_t id = 0; id < hosts_.size(); ++id) {
    if (!hosts_[id].alive) continue;
    toCompact[id] = static_cast<NodeId>(sessionIds.size());
    sessionIds.push_back(static_cast<NodeId>(id));
  }

  SessionSnapshot snap{
      .tree = MulticastTree(static_cast<NodeId>(sessionIds.size()),
                            toCompact[0]),
      .sessionIds = std::move(sessionIds),
      .positions = {}};
  snap.positions.reserve(snap.sessionIds.size());
  for (const NodeId id : snap.sessionIds)
    snap.positions.push_back(hosts_[static_cast<std::size_t>(id)].position);
  for (std::size_t i = 0; i < snap.sessionIds.size(); ++i) {
    const Host& host = hosts_[static_cast<std::size_t>(snap.sessionIds[i])];
    if (host.parent == kNoNode) continue;  // the source
    const bool isRep = cellRep_[host.heapId] == snap.sessionIds[i];
    snap.tree.attach(static_cast<NodeId>(i),
                     toCompact[static_cast<std::size_t>(host.parent)],
                     isRep ? EdgeKind::kCore : EdgeKind::kLocal);
  }
  snap.tree.finalize();
  return snap;
}

}  // namespace omt
