#include "omt/fault/chaos.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "omt/common/error.h"
#include "omt/fault/invariants.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/tree/validation.h"

namespace omt {
namespace {

/// Chaos runs are seeded single-threaded simulations; all of this is
/// deterministic for a fixed option set regardless of worker count.
struct ChaosMetrics {
  obs::Counter& runs;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& crashes;
  obs::Counter& repairs;
  obs::Counter& sweepRepairs;
  obs::Histogram& repairLatency;
};

ChaosMetrics& chaosMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static ChaosMetrics metrics{
      registry.counter("omt_chaos_runs_total"),
      registry.counter("omt_chaos_joins_total"),
      registry.counter("omt_chaos_leaves_total"),
      registry.counter("omt_chaos_crashes_total"),
      registry.counter("omt_chaos_repairs_total"),
      registry.counter("omt_chaos_sweep_repairs_total"),
      registry.histogram("omt_chaos_repair_latency_seconds")};
  return metrics;
}

/// A join/leave submission travelling over the control channel, re-queued
/// with its backoff delay when the exchange expires.
struct PendingOp {
  double due;
  std::int64_t seq;  ///< deterministic tie-break for equal due times
  FaultEventKind kind;
  std::int64_t entity;
  int attempt;
};
struct OpLater {
  bool operator()(const PendingOp& a, const PendingOp& b) const {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }
};

class ChaosRun {
 public:
  explicit ChaosRun(const ChaosOptions& options)
      : options_(options),
        session_(Point(options.schedule.dim), options.session),
        channel_(options.channel),
        detector_(session_, channel_, options.detector,
                  deriveSeed(options.schedule.seed, 0x64657465ULL)),
        burstRng_(deriveSeed(options.schedule.seed, 0x6b696c6cULL)) {
    if (options.useRpc) {
      std::vector<DisruptionWindow> windows;
      if (options.injectDisruption)
        windows = generateDisruption(options.disruption, options.schedule.dim);
      result_.disruptionWindows = static_cast<std::int64_t>(windows.size());
      rpc_ = std::make_unique<RpcLayer>(
          options.rpc, DisruptionSchedule(std::move(windows)),
          [this](std::int64_t id) -> const Point* {
            if (id < 0 || id >= session_.hostCount()) return nullptr;
            const auto node = static_cast<NodeId>(id);
            if (!session_.isLive(node)) return nullptr;
            return &session_.positionOf(node);
          });
      driver_ = std::make_unique<ReliableSessionDriver>(session_, *rpc_);
    }
  }

  ChaosResult run();

 private:
  void advanceTime(double t) {
    if (t <= now_) return;
    result_.disconnectedNodeSeconds +=
        static_cast<double>(gauge_) * (t - now_);
    now_ = t;
  }

  /// Invariant audit + disconnection gauge refresh after a mutation.
  void audit() {
    if (options_.checkInvariants) {
      ++result_.invariantChecks;
      const InvariantReport report = checkSessionInvariants(session_);
      gauge_ = report.disconnectedLiveHosts;
      if (!report.ok && result_.ok) {
        result_.ok = false;
        result_.failure = report.message;
      }
    } else {
      gauge_ = countDisconnectedLiveHosts(session_);
    }
  }

  /// A regrid re-places every live host — and the incremental structural
  /// moves (splits, merges, scoped rebuilds) can re-home representatives —
  /// so refresh detector state after any of them to keep stale leases from
  /// triggering a storm of false suspicions.
  void retrackAfterRegrid() {
    const SessionStats& s = session_.stats();
    const std::int64_t structural =
        s.regrids + s.splits + s.merges + s.scopedRebuilds;
    if (structural == regridsSeen_) return;
    regridsSeen_ = structural;
    for (NodeId id = 0; id < session_.hostCount(); ++id) {
      if (session_.isLive(id)) detector_.track(id, now_);
    }
  }

  /// Bookkeeping for a host that already went dark in the session (the
  /// crash itself was applied by the caller or the driver).
  void noteCrashed(NodeId node) {
    const auto index = static_cast<std::size_t>(node);
    if (crashTime_.size() <= index) crashTime_.resize(index + 1, -1.0);
    crashTime_[index] = now_;
    detector_.noteCrash(node, now_);
    ++result_.crashes;
  }

  void recordCrash(NodeId node) {
    session_.crash(node);
    noteCrashed(node);
  }

  void enqueueOp(FaultEventKind kind, std::int64_t entity, double due,
                 int attempt) {
    ops_.push({due, opSeq_++, kind, entity, attempt});
  }

  void handleEvent(const FaultEvent& event);
  void handleOp(const PendingOp& op);
  void handleOpRpc(const PendingOp& op);
  void runAuditSweep();
  void handleVerdicts(const std::vector<HeartbeatDetector::Verdict>& verdicts);

  const ChaosOptions& options_;
  OverlaySession session_;
  ControlChannel channel_;
  HeartbeatDetector detector_;
  Rng burstRng_;
  ChaosResult result_;

  std::vector<FaultEvent> events_;
  std::vector<NodeId> entityNode_;       // entity -> session id (or kNoNode)
  std::vector<std::uint8_t> entityGone_; // entity departed before joining
  std::vector<Point> entityPosition_;    // entity -> join position
  std::vector<bool> entityFlash_;
  std::vector<Point> nodePosition_;      // session id -> position
  std::vector<double> crashTime_;        // session id -> crash time (or -1)
  std::priority_queue<PendingOp, std::vector<PendingOp>, OpLater> ops_;
  std::int64_t opSeq_ = 0;
  std::int64_t regridsSeen_ = 0;
  std::int64_t gauge_ = 0;  ///< current disconnected-live-host count
  double now_ = 0.0;

  // RPC mode only.
  std::unique_ptr<RpcLayer> rpc_;
  std::unique_ptr<ReliableSessionDriver> driver_;
  double lastAuditAt_ = 0.0;
};

void ChaosRun::handleEvent(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEventKind::kJoin: {
      const auto e = static_cast<std::size_t>(event.entity);
      entityPosition_[e] = event.position;
      entityFlash_[e] = event.flashCrowd;
      enqueueOp(FaultEventKind::kJoin, event.entity, event.time, 0);
      break;
    }
    case FaultEventKind::kLeave: {
      const NodeId node = entityNode_[static_cast<std::size_t>(event.entity)];
      if (node == kNoNode) {
        // Still in join retries (or the join was dropped): the host gives
        // up before ever getting in.
        entityGone_[static_cast<std::size_t>(event.entity)] = 1;
      } else if (session_.isLive(node)) {
        enqueueOp(FaultEventKind::kLeave, event.entity, event.time, 0);
      }
      break;
    }
    case FaultEventKind::kCrash: {
      const NodeId node = entityNode_[static_cast<std::size_t>(event.entity)];
      if (node == kNoNode) {
        entityGone_[static_cast<std::size_t>(event.entity)] = 1;
      } else if (session_.isLive(node)) {
        recordCrash(node);
        audit();
      }
      break;
    }
    case FaultEventKind::kCrashBurst: {
      ++result_.crashBursts;
      bool any = false;
      const std::int64_t n = session_.hostCount();
      for (NodeId id = 1; id < n; ++id) {
        if (!session_.isLive(id)) continue;
        if (distance(nodePosition_[static_cast<std::size_t>(id)],
                     event.position) > event.radius)
          continue;
        if (burstRng_.uniform() >= event.killProbability) continue;
        recordCrash(id);
        any = true;
      }
      if (any) audit();
      break;
    }
  }
}

void ChaosRun::handleOp(const PendingOp& op) {
  if (driver_) {
    handleOpRpc(op);
    return;
  }
  const auto e = static_cast<std::size_t>(op.entity);
  if (op.kind == FaultEventKind::kJoin) {
    if (entityGone_[e]) return;  // departed before the join ever landed
    const ControlChannel::Outcome outcome = channel_.send();
    if (!outcome.delivered) {
      if (op.attempt < options_.maxOperationRetries) {
        ++result_.operationRetries;
        enqueueOp(op.kind, op.entity, now_ + outcome.elapsed, op.attempt + 1);
      } else {
        ++result_.droppedJoins;
      }
      return;
    }
    const NodeId id = session_.join(entityPosition_[e]);
    entityNode_[e] = id;
    if (nodePosition_.size() <= static_cast<std::size_t>(id))
      nodePosition_.resize(static_cast<std::size_t>(id) + 1);
    nodePosition_[static_cast<std::size_t>(id)] = entityPosition_[e];
    detector_.track(id, now_);
    retrackAfterRegrid();
    ++result_.joins;
    if (entityFlash_[e]) ++result_.flashCrowdJoins;
    result_.peakLive = std::max(result_.peakLive, session_.liveCount());
    audit();
    return;
  }

  // Leave: the node may have crashed (or been burst-killed) while the
  // goodbye was still retrying.
  const NodeId node = entityNode_[e];
  if (node == kNoNode || !session_.isLive(node)) return;
  const ControlChannel::Outcome outcome = channel_.send();
  if (!outcome.delivered) {
    if (op.attempt < options_.maxOperationRetries) {
      ++result_.operationRetries;
      enqueueOp(op.kind, op.entity, now_ + outcome.elapsed, op.attempt + 1);
    } else {
      // The goodbye never got through: from the overlay's point of view
      // this host simply went dark.
      ++result_.silentLeaves;
      recordCrash(node);
      audit();
    }
    return;
  }
  // Children get re-homed by the protocol; refresh their detector state so
  // their new parents start from a fresh lease.
  const auto span = session_.childrenOf(node);
  std::vector<NodeId> children(span.begin(), span.end());
  session_.leave(node);
  ++result_.leaves;
  for (const NodeId child : children) {
    if (session_.isLive(child)) detector_.track(child, now_);
  }
  retrackAfterRegrid();
  audit();
}

void ChaosRun::handleOpRpc(const PendingOp& op) {
  const auto e = static_cast<std::size_t>(op.entity);
  if (op.kind == FaultEventKind::kJoin) {
    if (entityGone_[e]) return;  // departed before the join ever landed
    // The RPC layer owns retries and backoff; a join whose handshake
    // exhausts them leaves the host parked for the anti-entropy audit.
    const ReliableSessionDriver::JoinDrive drive =
        driver_->driveJoin(entityPosition_[e], now_);
    entityNode_[e] = drive.id;
    const auto index = static_cast<std::size_t>(drive.id);
    if (nodePosition_.size() <= index) nodePosition_.resize(index + 1);
    nodePosition_[index] = entityPosition_[e];
    ++result_.joins;
    if (entityFlash_[e]) ++result_.flashCrowdJoins;
    if (drive.result.applied) {
      detector_.track(drive.id, now_);
    } else {
      ++result_.parkedJoins;
    }
    retrackAfterRegrid();
    result_.peakLive = std::max(result_.peakLive, session_.liveCount());
    audit();
    return;
  }

  // Leave: the node may have crashed (or been burst-killed) while waiting.
  const NodeId node = entityNode_[e];
  if (node == kNoNode || !session_.isLive(node)) return;
  const auto span = session_.childrenOf(node);
  std::vector<NodeId> children(span.begin(), span.end());
  const ReliableSessionDriver::OpResult result =
      driver_->driveLeave(node, now_);
  if (result.silent) {
    ++result_.silentLeaves;
    noteCrashed(node);  // the driver already took the host dark
  } else {
    ++result_.leaves;
    for (const NodeId child : children) {
      if (session_.isLive(child)) detector_.track(child, now_);
    }
  }
  retrackAfterRegrid();
  audit();
}

void ChaosRun::runAuditSweep() {
  const ReliableSessionDriver::AuditSweep sweep = driver_->runAudit(now_);
  ++result_.auditSweeps;
  lastAuditAt_ = now_;
  for (const NodeId node : sweep.attached) {
    if (session_.isLive(node)) detector_.track(node, now_);
  }
  retrackAfterRegrid();
  audit();
}

void ChaosRun::handleVerdicts(
    const std::vector<HeartbeatDetector::Verdict>& verdicts) {
  for (const auto& verdict : verdicts) {
    if (!result_.ok) return;
    if (driver_) {
      // RPC mode: repairs and migrations are individual reliable calls; an
      // exhausted repair defers the purge (the corpse stays flagged for the
      // anti-entropy audit) and exhausted attaches leave orphans parked.
      if (session_.isPendingCrash(verdict.suspect)) {
        const ReliableSessionDriver::RepairDrive drive =
            driver_->driveRepair(verdict.suspect, verdict.accuser, now_);
        if (drive.purged) {
          ++result_.repairs;
          result_.repairedOrphans += static_cast<std::int64_t>(
              drive.attached.size() + drive.parked.size());
          for (const NodeId orphan : drive.attached) {
            if (session_.isLive(orphan)) detector_.track(orphan, now_);
          }
          const auto index = static_cast<std::size_t>(verdict.suspect);
          if (index < crashTime_.size() && crashTime_[index] >= 0.0) {
            const double latency =
                now_ - crashTime_[index] + drive.result.elapsed;
            result_.recoveryLatency.add(latency);
            chaosMetrics().repairLatency.observe(latency);
          }
        }
        retrackAfterRegrid();
        audit();
      } else if (session_.isLive(verdict.suspect) &&
                 !session_.isParked(verdict.suspect)) {
        NodeId mover = kNoNode;
        if (verdict.accuser != kNoNode && session_.isLive(verdict.accuser) &&
            session_.parentOf(verdict.accuser) == verdict.suspect) {
          mover = verdict.accuser;
        } else if (verdict.suspect != session_.sourceId() &&
                   session_.parentOf(verdict.suspect) == verdict.accuser) {
          mover = verdict.suspect;
        }
        if (mover == kNoNode) continue;
        const ReliableSessionDriver::OpResult moved =
            driver_->driveMigrate(mover, now_);
        ++result_.wrongfulMigrations;
        if (moved.applied) detector_.track(mover, now_);
        retrackAfterRegrid();
        audit();
      }
      continue;
    }
    if (session_.isPendingCrash(verdict.suspect)) {
      // Confirmed crash: purge it and re-home the orphans backup-first.
      const auto span = session_.childrenOf(verdict.suspect);
      std::vector<NodeId> orphans;
      for (const NodeId child : span) {
        if (session_.isLive(child)) orphans.push_back(child);
      }
      const RepairReport report = session_.repairCrashed(verdict.suspect);
      ++result_.repairs;
      result_.repairedOrphans += report.orphansReplaced;
      result_.backupHits += report.backupHits;
      result_.backupFallbacks += report.fallbacks;
      if (report.orphansReplaced > 0) {
        result_.contactsPerOrphan.add(
            static_cast<double>(report.contacts) /
            static_cast<double>(report.orphansReplaced));
      }
      // Each re-homed orphan runs one attach handshake over the channel;
      // recovery ends when the last orphan is re-attached.
      double repairElapsed = 0.0;
      for (const NodeId orphan : orphans) {
        repairElapsed += channel_.send().elapsed;
        detector_.track(orphan, now_);
      }
      const auto index = static_cast<std::size_t>(verdict.suspect);
      if (index < crashTime_.size() && crashTime_[index] >= 0.0) {
        const double latency = now_ - crashTime_[index] + repairElapsed;
        result_.recoveryLatency.add(latency);
        chaosMetrics().repairLatency.observe(latency);
      }
      retrackAfterRegrid();
      audit();
    } else if (session_.isLive(verdict.suspect)) {
      // False positive: somebody acts on the wrong belief. If the accuser
      // hangs under the suspect it walks away; if the suspect hangs under
      // the accuser it gets evicted and must re-home.
      NodeId mover = kNoNode;
      if (verdict.accuser != kNoNode && session_.isLive(verdict.accuser) &&
          session_.parentOf(verdict.accuser) == verdict.suspect) {
        mover = verdict.accuser;
      } else if (verdict.suspect != session_.sourceId() &&
                 session_.parentOf(verdict.suspect) == verdict.accuser) {
        mover = verdict.suspect;
      }
      if (mover == kNoNode) continue;
      session_.migrate(mover);
      ++result_.wrongfulMigrations;
      detector_.track(mover, now_);
      retrackAfterRegrid();
      audit();
    }
    // else: already purged by an earlier verdict — stale, ignore.
  }
}

ChaosResult ChaosRun::run() {
  const obs::TraceSpan span("chaos_run", "fault");
  chaosMetrics().runs.add();
  events_ = generateFaultSchedule(options_.schedule);
  std::int64_t maxEntity = -1;
  for (const FaultEvent& event : events_)
    maxEntity = std::max(maxEntity, event.entity);
  entityNode_.assign(static_cast<std::size_t>(maxEntity + 1), kNoNode);
  entityGone_.assign(static_cast<std::size_t>(maxEntity + 1), 0);
  entityPosition_.resize(static_cast<std::size_t>(maxEntity + 1));
  entityFlash_.assign(static_cast<std::size_t>(maxEntity + 1), false);
  nodePosition_.assign(1, Point(options_.schedule.dim));  // the source

  detector_.track(session_.sourceId(), 0.0);
  const double hardEnd = options_.schedule.duration + options_.settleTime;
  std::size_t next = 0;

  while (result_.ok) {
    const double tEvent = next < events_.size() ? events_[next].time : kInf;
    const double tOp = ops_.empty() ? kInf : ops_.top().due;
    // The anti-entropy timer only runs while there is something to
    // reconcile: parked hosts, deferred purges, or unconfirmed ops.
    const double tAudit =
        (driver_ && (driver_->reconcilePending() || session_.parkedCount() > 0))
            ? lastAuditAt_ + options_.auditPeriod
            : kInf;
    const bool workLeft = tEvent < kInf || tOp < kInf || tAudit < kInf;
    if (!workLeft && session_.undetectedCrashes() == 0 && gauge_ == 0) break;
    const double t = std::min({tEvent, tOp, tAudit, detector_.nextProbeAt()});
    if (t >= hardEnd) {
      advanceTime(hardEnd);
      break;
    }
    advanceTime(t);
    handleVerdicts(detector_.advanceTo(now_));
    while (result_.ok && next < events_.size() &&
           events_[next].time <= now_) {
      handleEvent(events_[next++]);
    }
    while (result_.ok && !ops_.empty() && ops_.top().due <= now_) {
      const PendingOp op = ops_.top();
      ops_.pop();
      handleOp(op);
    }
    if (result_.ok && driver_ && tAudit <= now_) runAuditSweep();
  }

  // Stragglers the detector did not drain in time fall back to one global
  // sweep, then the run must satisfy the fully-repaired obligations. In RPC
  // mode the sweep also re-attaches any hosts still parked at the deadline.
  if (result_.ok &&
      (session_.undetectedCrashes() > 0 || session_.parkedCount() > 0)) {
    result_.sweepRepairs = session_.detectAndRepair();
  }
  if (result_.ok) {
    ++result_.invariantChecks;
    const InvariantReport report =
        checkSessionInvariants(session_, {.requireRepaired = true});
    if (!report.ok) {
      result_.ok = false;
      result_.failure = "final audit: " + report.message;
    }
  }
  if (result_.ok) {
    const SessionSnapshot snapshot = session_.snapshot();
    const ValidationResult valid = validate(
        snapshot.tree, {.maxOutDegree = options_.session.maxOutDegree});
    if (!valid.ok) {
      result_.ok = false;
      result_.failure = "final snapshot: " + valid.message;
    }
  }

  chaosMetrics().joins.add(result_.joins);
  chaosMetrics().leaves.add(result_.leaves);
  chaosMetrics().crashes.add(result_.crashes);
  chaosMetrics().repairs.add(result_.repairs);
  chaosMetrics().sweepRepairs.add(result_.sweepRepairs);

  result_.finalLive = session_.liveCount();
  result_.detector = detector_.stats();
  result_.channel = channel_.stats();
  result_.session = session_.stats();
  if (rpc_) {
    result_.rpc = rpc_->stats();
    result_.driver = driver_->stats();
  }
  return result_;
}

}  // namespace

ChaosResult runChaos(const ChaosOptions& options) {
  OMT_CHECK(options.settleTime >= 0.0, "settle time must be non-negative");
  OMT_CHECK(options.maxOperationRetries >= 0,
            "operation retries must be non-negative");
  OMT_CHECK(options.auditPeriod > 0.0, "audit period must be positive");
  return ChaosRun(options).run();
}

}  // namespace omt
