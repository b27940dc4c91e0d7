// Message-decomposed protocol operations over the reliable RPC layer.
//
// The OverlaySession executes joins, leaves and repairs as instantaneous
// atomic calls; this driver re-expresses each of them as the sequence of
// individually-fallible messages a deployed overlay would exchange, riding
// the at-most-once RPC layer (omt/rpc/rpc.h):
//
//   join     = admit locally, then an ATTACH handshake (joiner -> backup
//              parent or source). Handshake exhausted -> the host *parks*
//              as a live unattached pending member.
//   leave    = a GOODBYE handshake (leaver -> parent). Exhausted -> the
//              host goes dark anyway; to everyone else it is a silent
//              crash, detected and repaired like one.
//   repair   = a PURGE announcement (reporter -> source), then one ATTACH
//              handshake per orphaned subtree root. A failed announcement
//              leaves the corpse flagged (pendingCrash); failed orphan
//              attaches leave the orphans parked. The ring-shrink check
//              rides on the completed repair, mirroring repairCrashed().
//   migrate  = park (the goodbye rides the detach) + an ATTACH handshake.
//
// Every degraded end state is *consistent*: degree caps and acyclicity hold,
// and the session accounts for who is parked/pending. The periodic
// **anti-entropy audit** reconciles them: it walks the driver's ledger of
// outstanding operations, cross-checks each belief against the session's
// parent/child ground truth, and re-drives whatever is still wrong —
// re-attaching parked hosts, re-delivering applied-but-unacknowledged ops
// (absorbed by OpId dedup; this is where duplicate deliveries concentrate),
// purging corpses the detector cannot see (a crashed half-joined member has
// no parent lease), and abandoning ledger entries that external healing
// (a regrid, the global sweep) made obsolete.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "omt/protocol/overlay_session.h"
#include "omt/rpc/rpc.h"

namespace omt {

struct DriverStats {
  std::int64_t joinsAttached = 0;   ///< join handshakes that attached
  std::int64_t joinsParked = 0;     ///< joins left parked (no delivery)
  std::int64_t attachCalls = 0;     ///< ATTACH handshakes driven
  std::int64_t attachesCompleted = 0;    ///< applied and acknowledged
  std::int64_t attachesUnconfirmed = 0;  ///< applied, ack lost (audit confirms)
  std::int64_t attachesParked = 0;       ///< request never delivered
  std::int64_t leavesClean = 0;     ///< goodbye delivered
  std::int64_t leavesSilent = 0;    ///< goodbye exhausted -> silent crash
  std::int64_t repairsPurged = 0;   ///< purge announcements applied
  std::int64_t repairsDeferred = 0; ///< purge announcements exhausted
  std::int64_t migrations = 0;
  std::int64_t auditSweeps = 0;
  std::int64_t auditReattaches = 0;   ///< parked hosts re-driven by audits
  std::int64_t auditRepairs = 0;      ///< repairs re-driven by audits
  std::int64_t auditConfirmedOps = 0; ///< unacked ops confirmed by audits
  std::int64_t auditAbandonedOps = 0; ///< obsolete ledger entries dropped
};

class ReliableSessionDriver {
 public:
  /// Both references must outlive the driver.
  ReliableSessionDriver(OverlaySession& session, RpcLayer& rpc);

  struct OpResult {
    bool completed = false;  ///< applied and acknowledged
    bool applied = false;    ///< session mutated (possibly unacknowledged)
    bool degraded = false;   ///< left a parked host / deferred purge behind
    bool silent = false;     ///< a leave that degraded into a silent crash
    double elapsed = 0.0;    ///< simulated time the handshakes consumed
  };

  struct JoinDrive {
    NodeId id = kNoNode;  ///< always admitted, even when left parked
    OpResult result;
  };
  JoinDrive driveJoin(const Point& position, double now);

  /// Drive the ATTACH handshake for a parked host (no-op when the host is
  /// not parked). Re-uses the host's outstanding OpId when its operation
  /// was never applied; mints a fresh one otherwise.
  OpResult driveAttach(NodeId node, double now);

  OpResult driveLeave(NodeId node, double now);

  struct RepairDrive {
    bool purged = false;
    OpResult result;
    std::vector<NodeId> attached;  ///< orphans re-attached by this drive
    std::vector<NodeId> parked;    ///< orphans left parked by this drive
  };
  /// Drive the repair of a confirmed crash, announced by `reporter` (pass
  /// kNoNode when the reporter itself is gone; the source then purges
  /// locally). Safe to call for an already-repaired host.
  RepairDrive driveRepair(NodeId dead, NodeId reporter, double now);

  OpResult driveMigrate(NodeId node, double now);

  struct AuditSweep {
    std::int64_t reattached = 0;    ///< parked hosts whose attach applied
    std::int64_t redriven = 0;      ///< attach re-drives attempted
    std::int64_t repairsRedriven = 0;
    std::int64_t confirmed = 0;     ///< unacked ops acknowledged
    std::int64_t abandoned = 0;     ///< obsolete ledger entries dropped
    std::vector<NodeId> attached;   ///< hosts attached during the sweep
    double elapsed = 0.0;
  };
  /// One anti-entropy sweep at simulated time `now`.
  AuditSweep runAudit(double now);

  /// Whether the ledger holds anything an audit could still reconcile.
  bool reconcilePending() const {
    return !attachOp_.empty() || !repairOp_.empty();
  }

  const DriverStats& stats() const { return stats_; }

 private:
  /// The peer a parked host's ATTACH handshake targets: its live backup
  /// parent when known, the source otherwise.
  NodeId attachContact(NodeId node) const;
  /// Reuse the outstanding op for `key` in `ledger` if it was never
  /// applied; mint (and record) a fresh one otherwise.
  OpId reuseOrMint(std::unordered_map<NodeId, OpId>& ledger, NodeId key,
                   std::int64_t origin);
  /// Ledger keys in deterministic (ascending) order.
  static std::vector<NodeId> sortedKeys(
      const std::unordered_map<NodeId, OpId>& ledger);

  OverlaySession& session_;
  RpcLayer& rpc_;
  DriverStats stats_;
  /// Outstanding ATTACH ops by host: present while unacknowledged.
  std::unordered_map<NodeId, OpId> attachOp_;
  /// Outstanding PURGE ops by dead host: present while the purge is unmade.
  std::unordered_map<NodeId, OpId> repairOp_;
};

}  // namespace omt
