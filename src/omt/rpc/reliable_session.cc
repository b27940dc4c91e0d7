#include "omt/rpc/reliable_session.h"

#include <algorithm>

#include "omt/common/error.h"

namespace omt {

ReliableSessionDriver::ReliableSessionDriver(OverlaySession& session,
                                             RpcLayer& rpc)
    : session_(session), rpc_(rpc) {}

NodeId ReliableSessionDriver::attachContact(NodeId node) const {
  const NodeId backup = session_.backupParentOf(node);
  if (backup != kNoNode && session_.isLive(backup)) return backup;
  return session_.sourceId();
}

OpId ReliableSessionDriver::reuseOrMint(
    std::unordered_map<NodeId, OpId>& ledger, NodeId key,
    std::int64_t origin) {
  const auto it = ledger.find(key);
  if (it != ledger.end() && !rpc_.appliedBefore(it->second))
    return it->second;
  const OpId id = rpc_.mint(origin);
  ledger[key] = id;
  return id;
}

std::vector<NodeId> ReliableSessionDriver::sortedKeys(
    const std::unordered_map<NodeId, OpId>& ledger) {
  std::vector<NodeId> keys;
  keys.reserve(ledger.size());
  for (const auto& [key, id] : ledger) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

ReliableSessionDriver::JoinDrive ReliableSessionDriver::driveJoin(
    const Point& position, double now) {
  JoinDrive drive;
  drive.id = session_.admit(position);
  drive.result = driveAttach(drive.id, now);
  if (drive.result.applied) {
    ++stats_.joinsAttached;
  } else {
    ++stats_.joinsParked;
  }
  return drive;
}

ReliableSessionDriver::OpResult ReliableSessionDriver::driveAttach(
    NodeId node, double now) {
  OpResult result;
  if (!session_.isParked(node)) {
    result.completed = true;
    return result;
  }
  ++stats_.attachCalls;
  const OpId id = reuseOrMint(attachOp_, node, node);
  const RpcLayer::Outcome out =
      rpc_.call(id, {.from = node, .to = attachContact(node), .now = now});
  result.elapsed = out.elapsed;
  if (out.applied) {
    session_.attachParked(node);
    rpc_.recordApplication(id);
    result.applied = true;
  }
  if (out.acked) {
    attachOp_.erase(node);
    result.completed = true;
    ++stats_.attachesCompleted;
  } else if (out.applied) {
    // Attached, but the host does not know: the ledger entry stays and the
    // audit re-delivers for the ack (the dedup table absorbs it).
    ++stats_.attachesUnconfirmed;
  } else {
    // The request never got through (or the breaker refused it): the host
    // stays parked until the audit re-drives the handshake.
    result.degraded = true;
    ++stats_.attachesParked;
  }
  return result;
}

ReliableSessionDriver::OpResult ReliableSessionDriver::driveLeave(
    NodeId node, double now) {
  OpResult result;
  OMT_CHECK(session_.isLive(node), "host is not live");
  OMT_CHECK(node != session_.sourceId(), "the source cannot leave");
  const NodeId parent = session_.parentOf(node);
  const NodeId to = (parent != kNoNode && session_.isLive(parent))
                        ? parent
                        : session_.sourceId();
  const OpId id = rpc_.mint(node);
  const RpcLayer::Outcome out =
      rpc_.call(id, {.from = node, .to = to, .now = now});
  result.elapsed = out.elapsed;
  if (out.applied) {
    session_.leave(node);
    rpc_.recordApplication(id);
    result.applied = true;
    result.completed = out.acked;  // the leaver is gone either way
    ++stats_.leavesClean;
  } else {
    // The goodbye never landed: the host goes dark regardless. To everyone
    // else this is a silent crash — detected and repaired like one.
    session_.leaveSilently(node);
    result.silent = true;
    result.degraded = true;
    ++stats_.leavesSilent;
  }
  attachOp_.erase(node);  // any outstanding attach for this host is moot
  return result;
}

ReliableSessionDriver::RepairDrive ReliableSessionDriver::driveRepair(
    NodeId dead, NodeId reporter, double now) {
  RepairDrive drive;
  if (!session_.isPendingCrash(dead)) {
    // Already healed (regrid, sweep, or an earlier drive): nothing to do.
    repairOp_.erase(dead);
    drive.purged = true;
    drive.result.completed = true;
    return drive;
  }

  const bool reporterLive =
      reporter != kNoNode && reporter != session_.sourceId() &&
      session_.isLive(reporter);
  if (reporterLive) {
    const OpId id = reuseOrMint(repairOp_, dead, reporter);
    const RpcLayer::Outcome out = rpc_.call(
        id, {.from = reporter, .to = session_.sourceId(), .now = now});
    drive.result.elapsed += out.elapsed;
    if (!out.applied && !out.duplicate) {
      // The announcement never reached the source: the corpse stays
      // flagged (pendingCrash) until the audit re-drives the purge.
      drive.result.degraded = true;
      ++stats_.repairsDeferred;
      return drive;
    }
    if (out.applied) rpc_.recordApplication(id);
    repairOp_.erase(dead);
  } else {
    // The source purges on its own authority (audit discovery, or the
    // reporter died in the meantime): no network hop.
    repairOp_.erase(dead);
  }

  const std::vector<NodeId> orphans = session_.purgeCrashed(dead);
  attachOp_.erase(dead);
  drive.purged = true;
  drive.result.applied = true;
  ++stats_.repairsPurged;

  // Each orphaned subtree root runs its own attach handshake, staggered by
  // the time the previous handshakes consumed.
  for (const NodeId orphan : orphans) {
    const OpResult attach =
        driveAttach(orphan, now + drive.result.elapsed);
    drive.result.elapsed += attach.elapsed;
    if (attach.applied) {
      drive.attached.push_back(orphan);
    } else if (session_.isParked(orphan)) {
      drive.parked.push_back(orphan);
      drive.result.degraded = true;
    }
  }
  drive.result.completed = !drive.result.degraded;
  // The ring-shrink check rides on the completed repair, mirroring the
  // atomic repairCrashed() path.
  session_.maybeShrinkRings();
  return drive;
}

ReliableSessionDriver::OpResult ReliableSessionDriver::driveMigrate(
    NodeId node, double now) {
  OMT_CHECK(session_.isLive(node), "host is not live");
  OMT_CHECK(node != session_.sourceId(), "the source cannot migrate");
  ++stats_.migrations;
  if (!session_.isParked(node)) session_.park(node);
  return driveAttach(node, now);
}

ReliableSessionDriver::AuditSweep ReliableSessionDriver::runAudit(
    double now) {
  AuditSweep sweep;
  ++stats_.auditSweeps;

  // Reconcile the attach ledger: every entry is a host whose last ATTACH
  // handshake ended short of a full apply+ack.
  for (const NodeId node : sortedKeys(attachOp_)) {
    const auto it = attachOp_.find(node);
    if (it == attachOp_.end()) continue;  // resolved by an earlier re-drive
    const OpId id = it->second;
    const double t = now + sweep.elapsed;

    if (!session_.isLive(node)) {
      if (session_.isPendingCrash(node)) {
        // A dead half-joined member: it holds no parent lease, so the
        // heartbeat detector cannot see it — the audit purges it.
        const RepairDrive drive = driveRepair(node, kNoNode, t);
        sweep.elapsed += drive.result.elapsed;
        ++sweep.repairsRedriven;
        for (const NodeId orphan : drive.attached)
          sweep.attached.push_back(orphan);
      }
      attachOp_.erase(node);
      ++sweep.abandoned;
      continue;
    }
    if (session_.isParked(node)) {
      // The attach never applied (or the host was re-parked): re-drive it.
      const OpResult attach = driveAttach(node, t);
      sweep.elapsed += attach.elapsed;
      ++sweep.redriven;
      if (attach.applied) {
        ++sweep.reattached;
        sweep.attached.push_back(node);
      }
      continue;
    }
    if (!rpc_.appliedBefore(id)) {
      // Attached by some other path (a regrid or the global sweep) while
      // the op was still outstanding: the entry is obsolete.
      attachOp_.erase(node);
      ++sweep.abandoned;
      continue;
    }
    // Applied but never acknowledged: re-deliver purely for the ack. The
    // receiver's dedup table absorbs the duplicate; nothing re-applies.
    const RpcLayer::Outcome out = rpc_.call(
        id, {.from = node, .to = attachContact(node), .now = t});
    sweep.elapsed += out.elapsed;
    if (out.acked) {
      attachOp_.erase(node);
      ++sweep.confirmed;
    }
  }

  // Re-drive purges whose announcement never landed.
  for (const NodeId dead : sortedKeys(repairOp_)) {
    if (repairOp_.find(dead) == repairOp_.end()) continue;
    if (!session_.isPendingCrash(dead)) {
      repairOp_.erase(dead);
      ++sweep.abandoned;
      continue;
    }
    const RepairDrive drive = driveRepair(dead, kNoNode, now + sweep.elapsed);
    sweep.elapsed += drive.result.elapsed;
    ++sweep.repairsRedriven;
    for (const NodeId orphan : drive.attached)
      sweep.attached.push_back(orphan);
  }

  session_.maybeShrinkRings();
  stats_.auditReattaches += sweep.reattached;
  stats_.auditRepairs += sweep.repairsRedriven;
  stats_.auditConfirmedOps += sweep.confirmed;
  stats_.auditAbandonedOps += sweep.abandoned;
  return sweep;
}

}  // namespace omt
