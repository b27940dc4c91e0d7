// Multi-group tree service: thousands of concurrent multicast groups over
// a shared host population, each group an incrementally maintained
// OverlaySession, with non-blocking route snapshots for readers.
//
// Write path (one thread at a time): apply() ingests a batch of
// group-tagged membership events. A serial pre-pass installs the batch's
// group slots and groups the batch into one *run* per touched group (that
// group's events, in batch order), heaviest first. The runs then go out
// as one job on the shared thread pool: each free worker claims the next
// run, applies its events and republishes a fresh immutable RouteTable
// for that group. A group's run is claimed by exactly one worker, so
// builders never contend, and no group is owned by any worker between
// batches.
//
// Read path (any number of threads, any time): each group slot holds an
// atomic snapshot pointer (a shared_ptr swapped under a per-slot
// acquire/release flag; see SnapshotPtr in the .cc for why libstdc++'s
// std::atomic<std::shared_ptr> is not used). Readers copy the pointer —
// spinning at most for the few instructions a concurrent swap holds the
// flag — and then walk a fully immutable structure: no locks are held
// while a tree is being rebuilt, and a reader holding an old epoch keeps
// it alive until it drops the shared_ptr (RCU-style grace by refcount).
// Group slots live in a fixed page table of lazily-allocated pages, so a
// reader's path is: root page array -> atomic page pointer -> snapshot
// pointer; readers never wait on tree building.
//
// Determinism contract: a group's final tree, fingerprint, and epoch
// depend only on its own event subsequence (and the per-group derived
// seeds in RPC mode) — never on the worker count, OMT_THREADS, which
// worker ran the group, or what other groups are doing. The
// differential-oracle and chaos gates assert exactly this.
//
// Transport: by default events apply as atomic session calls. With
// ServiceOptions::useRpc each group drives its joins/leaves/repairs
// through the PR 3 reliable RPC layer (at-most-once ops, lossy channel,
// disruption windows), leaving the documented degraded states behind;
// periodic anti-entropy audits and quiesce() reconcile them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "omt/fault/injector.h"
#include "omt/protocol/overlay_session.h"
#include "omt/rpc/rpc.h"
#include "omt/service/route_table.h"
#include "omt/service/script.h"

namespace omt {

struct ServiceOptions {
  /// Per-group overlay options (incremental maintenance is the default).
  SessionOptions session;
  /// Builder workers: how many pool slots claim a batch's group runs.
  /// Placement is free (any worker may run any group), so the count only
  /// moves cost. 0 resolves like every other worker count (OMT_THREADS,
  /// then hardware).
  int shards = 0;
  /// Group-id space; slots are paged in lazily, so a sparse id space only
  /// costs one page-table entry per 1024 ids.
  std::int64_t maxGroups = std::int64_t{1} << 20;
  /// Base seed for the per-group derived RPC channel/disruption seeds.
  std::uint64_t seed = 1;

  /// Drive membership through the reliable RPC layer instead of atomic
  /// session calls: joins can park, leaves can degrade to silent crashes,
  /// purges can defer — reconciled by per-group anti-entropy audits.
  bool useRpc = false;
  RpcOptions rpc;                 ///< channel.seed is re-derived per group
  /// Control-plane disruption windows (loss bursts, delay spells,
  /// partitions) applied to every group's RPC traffic; each group draws
  /// its own schedule from a (seed, group)-derived seed.
  bool injectDisruption = false;
  DisruptionOptions disruption;
  /// Anti-entropy audit cadence in event time while work is pending.
  double auditPeriod = 0.5;

  /// Stamp wall-clock event-to-publish latencies into ApplyReport (and
  /// the omt_service_event_to_route_seconds histogram). Off by default:
  /// it is inherently nondeterministic and costs a clock read per batch
  /// plus one per published group.
  bool measureLatency = false;

  // --- Publication path ---------------------------------------------------
  /// Publish by patching the previous epoch from the session's change
  /// journal when the batch touched at most deltaMaxFraction of the group;
  /// falls back to the full DFS+sort rebuild above the threshold, on
  /// structural escalations (regrids), and on the first publish after a
  /// group (re)creates its state. Either path produces bit-identical
  /// tables; the choice only moves cost.
  bool deltaPublish = true;
  double deltaMaxFraction = 0.5;
  /// Oracle belt: on every delta publish ALSO run the full rebuild and
  /// assert the two tables identical (arrays, fingerprint, epoch). Debug /
  /// differential-test only — it defeats the point of the delta path.
  bool deltaVerify = false;
};

/// Cumulative per-group accounting; survives group teardown/re-creation.
struct GroupStats {
  std::int64_t events = 0;
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t crashes = 0;
  std::int64_t publishes = 0;
  std::int64_t deltaPublishes = 0;  ///< publishes that took the patch path
  std::int64_t teardowns = 0;
  std::uint64_t lastFingerprint = 0;  ///< of the last published table
};

/// Whole-service accounting (sums over groups; deterministic).
struct ServiceStats {
  std::int64_t events = 0;
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t crashes = 0;
  std::int64_t publishes = 0;
  std::int64_t deltaPublishes = 0;  ///< publishes via the patch path
  std::int64_t teardowns = 0;
  std::int64_t groupsCreated = 0;
  std::int64_t audits = 0;        ///< anti-entropy sweeps (RPC mode)
  std::int64_t parkedJoins = 0;   ///< joins left parked by a drive (RPC mode)
  /// Always 0: groups have no owning worker to migrate between. Kept for
  /// readers of the former shard-ownership figure.
  std::int64_t migrations = 0;
};

struct ApplyReport {
  std::int64_t events = 0;
  std::int64_t groupsTouched = 0;
  std::int64_t publishes = 0;
  std::int64_t deltaPublishes = 0;
  /// Wall-clock seconds from batch ingress to the owning group's publish,
  /// one entry per event in batch order (ServiceOptions::measureLatency).
  std::vector<double> eventLatencies;
};

class GroupManager {
 public:
  explicit GroupManager(const ServiceOptions& options);
  ~GroupManager();

  GroupManager(const GroupManager&) = delete;
  GroupManager& operator=(const GroupManager&) = delete;

  /// Ingest one batch. Single writer: apply()/quiesce() must not run
  /// concurrently with each other (readers are always safe). Events for
  /// one group apply in batch order; every touched group republishes
  /// exactly once, right after its last event of the batch. Malformed
  /// events (leave of a non-member, join of a member, group id out of
  /// range, a negative host id — -1 and -2 are kNoHost and kNotMember)
  /// throw InvalidArgument. A batch with a bad group or host id is refused
  /// whole, before anything changes. Events applied before any other throw
  /// stay applied; a group they left unpublished publishes with the next
  /// batch that touches it, or at quiesce().
  ApplyReport apply(std::span<const MembershipEvent> events);

  /// Drain degraded states (RPC mode: re-drive parked attaches and
  /// deferred purges via audits; any mode: sweep unrepaired crashes),
  /// advancing event time from `now` by auditPeriod per round, at most
  /// `maxRounds` rounds per group. Republishes what it heals. Returns the
  /// number of groups still degraded (0 = fully converged).
  std::int64_t quiesce(double now, int maxRounds = 32);

  // --- Reader API: safe from any thread, any time, non-blocking ---------

  /// The group's current snapshot; null when the group was never
  /// published. Hold the shared_ptr while reading spans out of the table.
  std::shared_ptr<const RouteTable> routes(GroupId group) const;

  /// kNoHost when `host` feeds from the group origin, kNotMember when it
  /// is not (or the group does not exist).
  HostId parentOf(GroupId group, HostId host) const;

  /// The member's children in the group's current snapshot (copied, so no
  /// lifetime coupling; prefer routes() in hot loops).
  std::vector<HostId> childrenOf(GroupId group, HostId host) const;

  /// Publish generation of the group's current snapshot (0 = never).
  std::uint64_t epochOf(GroupId group) const;

  // --- Builder-side introspection (not synchronised with apply()) -------

  std::int64_t groupCount() const {
    return static_cast<std::int64_t>(createdGroups_.size());
  }
  /// Groups currently holding live state (created minus torn down).
  std::int64_t liveGroupCount() const;
  /// Current live member count of one group (0 when torn down/unknown).
  std::int64_t liveMembersOf(GroupId group) const;
  GroupStats groupStats(GroupId group) const;
  const ServiceStats& stats() const { return stats_; }
  const ServiceOptions& options() const { return options_; }
  /// Builder workers a batch can actually use: the resolved
  /// ServiceOptions::shards, capped by the pool's capacity.
  int shards() const { return workers_; }
  /// Group ids in creation order (deterministic).
  std::span<const GroupId> createdGroups() const { return createdGroups_; }
  /// Cumulative work units (events applied + hosts published) run by each
  /// worker slot, one entry per slot in [0, shards()). Which slot claims a
  /// run is a scheduling race, so only the sum is deterministic.
  std::span<const std::int64_t> shardLoads() const { return workerLoad_; }

 private:
  class SnapshotPtr;
  struct GroupState;
  struct GroupSlot;
  struct WorkerReport;
  struct Run;

  GroupSlot* slotFor(GroupId group) const;  ///< null until ensureSlot
  GroupSlot& ensureSlot(GroupId group);     ///< writer-only
  void applyEvent(GroupSlot& slot, const MembershipEvent& event,
                  WorkerReport& report);
  void createState(GroupSlot& slot, GroupId group, int dim);
  void maybeTearDown(GroupSlot& slot, WorkerReport& report);
  void publish(GroupSlot& slot, GroupId group, WorkerReport& report);
  /// One quiesce pass over a group; true when nothing is left degraded.
  bool quiesceGroup(GroupSlot& slot, GroupId group, double now,
                    int maxRounds, WorkerReport& report);
  /// Run fn(i, report) for every i in [0, count), claimed one index at a
  /// time by whichever worker slot is free; `report` is that slot's
  /// tally. Returns the tallies summed (integer sums, so the total is the
  /// same for any worker count) after folding them into stats_.
  WorkerReport claimEach(
      std::int64_t count,
      const std::function<void(std::int64_t, WorkerReport&)>& fn);

  ServiceOptions options_;
  int workers_ = 1;
  std::int64_t pageCount_ = 0;
  /// Page table: pageCount_ atomic page pointers, pages of kPageSize
  /// slots. Pages are only ever installed (never freed before ~), so a
  /// reader's acquire-load sees fully-constructed slots.
  std::unique_ptr<std::atomic<GroupSlot*>[]> pages_;
  std::vector<GroupId> createdGroups_;
  ServiceStats stats_;
  std::vector<std::int64_t> workerLoad_;  ///< cumulative, by worker slot
  // Writer-side scratch reused across batches, so the steady-state batch
  // path does not re-allocate them.
  std::vector<std::pair<GroupId, std::size_t>> order_;  ///< (group, event)
  std::vector<Run> runs_;
  std::vector<WorkerReport> reports_;  ///< by worker slot
};

}  // namespace omt
