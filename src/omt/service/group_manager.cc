#include "omt/service/group_manager.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>
#include <utility>

#include "omt/common/error.h"
#include "omt/common/prefetch.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/parallel/thread_pool.h"
#include "omt/random/rng.h"
#include "omt/rpc/reliable_session.h"

namespace omt {

namespace {

constexpr std::int64_t kPageBits = 10;
constexpr std::int64_t kPageSize = std::int64_t{1} << kPageBits;

/// Per-logical-event counters are deterministic; the latency histogram is
/// wall clock and is registered accordingly.
struct ServiceMetrics {
  obs::Counter& events;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& crashes;
  obs::Counter& publishes;
  obs::Counter& deltaPublishes;
  obs::Counter& teardowns;
  obs::Counter& audits;
  obs::Gauge& groups;
  obs::Histogram& eventToRoute;
};

ServiceMetrics& serviceMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static ServiceMetrics metrics{
      registry.counter("omt_service_events_total"),
      registry.counter("omt_service_joins_total"),
      registry.counter("omt_service_leaves_total"),
      registry.counter("omt_service_crashes_total"),
      registry.counter("omt_service_publishes_total"),
      registry.counter("omt_service_delta_publishes_total"),
      registry.counter("omt_service_teardowns_total"),
      registry.counter("omt_service_audits_total"),
      registry.gauge("omt_service_groups"),
      registry.histogram("omt_service_event_to_route_seconds", {},
                         obs::Determinism::kNondeterministic)};
  return metrics;
}

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One batched add per counter per batch instead of an atomic RMW per
/// event — the global registry counters are far too hot to touch
/// from the per-event path.
void flushStatsMetrics(const ServiceStats& s) {
  auto& m = serviceMetrics();
  if (s.events) m.events.add(s.events);
  if (s.joins) m.joins.add(s.joins);
  if (s.leaves) m.leaves.add(s.leaves);
  if (s.crashes) m.crashes.add(s.crashes);
  if (s.publishes) m.publishes.add(s.publishes);
  if (s.deltaPublishes) m.deltaPublishes.add(s.deltaPublishes);
  if (s.teardowns) m.teardowns.add(s.teardowns);
  if (s.audits) m.audits.add(s.audits);
}

/// Adds one pass's counters into `into` (groupsCreated and migrations are
/// not per-pass figures).
void addPassStats(ServiceStats& into, const ServiceStats& from) {
  into.events += from.events;
  into.joins += from.joins;
  into.leaves += from.leaves;
  into.crashes += from.crashes;
  into.publishes += from.publishes;
  into.deltaPublishes += from.deltaPublishes;
  into.teardowns += from.teardowns;
  into.audits += from.audits;
  into.parkedJoins += from.parkedJoins;
}

/// Runs a claim-loop worker holds beyond the one it is working on: the
/// first has its session internals prefetched, the second its state
/// objects, the third its slot.
constexpr int kClaimAhead = 3;

/// Bits per pass of the batch partition's radix sorts: the default 2^20
/// group ids take two passes, and one pass's counters fit in L1.
constexpr int kRadixBits = 11;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;

/// Stable LSD radix sort of `items` by key(item) <= maxKey, ascending, in
/// kRadixBits-bit digits. `scratch` is the second buffer the passes
/// alternate with (kept by the caller, so the steady state allocates
/// nothing); the sorted result always ends in `items`, whose storage may
/// have come from `scratch`. A pass whose digit every item shares is
/// skipped: it would not move anything.
template <class T, class Key>
void radixSort(std::vector<T>& items, std::vector<T>& scratch,
               std::uint64_t maxKey, const Key& key) {
  if (items.size() < 2) return;
  scratch.resize(items.size());
  std::array<std::uint32_t, kRadixBuckets> start;
  for (int shift = 0; shift < 64 && (maxKey >> shift) != 0;
       shift += kRadixBits) {
    const auto digit = [&](const T& item) {
      return static_cast<std::size_t>(key(item) >> shift) &
             (kRadixBuckets - 1);
    };
    start.fill(0);
    for (const T& item : items) ++start[digit(item)];
    if (start[digit(items.front())] == items.size()) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& s : start) sum += std::exchange(s, sum);
    for (const T& item : items) scratch[start[digit(item)]++] = item;
    items.swap(scratch);
  }
}

}  // namespace

/// Builder-side state of one live group; touched only by the worker that
/// claimed the group's run (or by the writer thread between batches).
struct GroupManager::GroupState {
  explicit GroupState(const Point& origin, const SessionOptions& options)
      : session(origin, options) {
    hostOf.push_back(kNoHost);  // session id 0 = the virtual root
  }

  OverlaySession session;
  std::vector<HostId> hostOf;  ///< session id -> service host id
  HostIndex nodeOf;            ///< current members (host -> session node)
  // RPC transport (ServiceOptions::useRpc); unique_ptrs keep the session
  // reference stable if the state object moves.
  std::unique_ptr<RpcLayer> rpc;
  std::unique_ptr<ReliableSessionDriver> driver;
  double lastAudit = 0.0;
  double lastEventTime = 0.0;
};

/// Atomic snapshot pointer with explicit acquire/release on both the load
/// and store paths. libstdc++ 12's std::atomic<std::shared_ptr> unlocks
/// its internal lock bit with a *relaxed* RMW after a load, so the plain
/// pointer word it guards has no release edge to the next publisher's
/// write — a formal data race that ThreadSanitizer reports on the
/// publish/routes pair. This guard runs the same pointer-swap protocol
/// with correct ordering: a reader spins only for the handful of
/// instructions a concurrent swap or refcount bump holds the flag, and a
/// retired table is released outside the critical section so readers
/// holding an old epoch keep it alive by refcount.
class GroupManager::SnapshotPtr {
 public:
  std::shared_ptr<const RouteTable> load() const {
    lock();
    std::shared_ptr<const RouteTable> copy = ptr_;
    unlock();
    return copy;
  }

  /// Swap in `next` and hand the retired table back to the caller (who
  /// releases or recycles it off the lock).
  [[nodiscard]] std::shared_ptr<const RouteTable> store(
      std::shared_ptr<const RouteTable> next) {
    lock();
    ptr_.swap(next);
    unlock();
    return next;
  }

 private:
  void lock() const {
    while (busy_.exchange(1, std::memory_order_acquire) != 0)
      std::this_thread::yield();
  }
  void unlock() const { busy_.store(0, std::memory_order_release); }

  mutable std::atomic<unsigned> busy_{0};
  std::shared_ptr<const RouteTable> ptr_;
};

/// One group's reader/builder rendezvous. The snapshot table pointer is
/// the ONLY field readers touch; everything else belongs to the worker
/// running the group's run.
struct GroupManager::GroupSlot {
  SnapshotPtr table;
  std::unique_ptr<GroupState> state;  ///< null until created / after teardown
  std::uint64_t epoch = 0;  ///< survives teardown: epochs stay monotone
  GroupStats stats;
  /// Builder-side copy of the current snapshot: the delta path's patch
  /// base, read without touching the SnapshotPtr spin flag.
  std::shared_ptr<const RouteTable> lastTable;
  /// The epoch retired by the last publish, offered to the next build for
  /// in-place reuse (slab + control block) once every reader has dropped
  /// it — the last allocation on the steady-state publish path.
  std::shared_ptr<const RouteTable> spare;
  /// lastTable's member count, next to `created` so the batch pre-pass
  /// weighs a run from the slot line it already reads.
  std::int64_t publishedSize = 0;
  double publishStamp = 0.0;  ///< wall clock of last publish (measureLatency)
  bool created = false;
  bool dirty = false;  ///< touched since last publish
  /// The session's change journal restarted (state freshly created), so
  /// the next publish cannot trust a delta against lastTable.
  bool needsFullPublish = true;
};

/// One worker slot's tally for one batch or quiesce pass. Integer sums
/// only, so the merged total does not depend on which slot ran what. Each
/// tally has its own cache lines: the workers bump them on every event.
struct alignas(kCacheLineBytes) GroupManager::WorkerReport {
  ServiceStats stats;
  std::int64_t load = 0;  ///< work units this pass (events + published hosts)
  std::int64_t degraded = 0;  ///< groups quiesce() left degraded
  std::int64_t created = 0;   ///< group states created (stats.teardowns ends them)
};

/// One touched group's share of a batch: order_[begin, end) holds that
/// group's events in batch order.
struct GroupManager::Run {
  std::int64_t weight = 0;  ///< this batch's events + last published size
  GroupId group = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

GroupManager::GroupManager(const ServiceOptions& options)
    : options_(options), workers_(resolveWorkers(options.shards)) {
  OMT_CHECK(options_.maxGroups >= 1, "need a positive group-id space");
  OMT_CHECK(options_.auditPeriod > 0.0, "audit period must be positive");
  OMT_CHECK(options_.deltaMaxFraction >= 0.0,
            "delta fraction must be non-negative");
  // A single worker never touches the pool; more are capped by the slots
  // the pool can actually run, which also bounds the per-slot arrays.
  if (workers_ > 1) workers_ = std::min(workers_, globalPool().capacity());
  workerLoad_.assign(static_cast<std::size_t>(workers_), 0);
  reports_.resize(static_cast<std::size_t>(workers_));
  pageCount_ = (options_.maxGroups + kPageSize - 1) / kPageSize;
  pages_ = std::make_unique<std::atomic<GroupSlot*>[]>(
      static_cast<std::size_t>(pageCount_));
  for (std::int64_t p = 0; p < pageCount_; ++p)
    pages_[static_cast<std::size_t>(p)].store(nullptr,
                                              std::memory_order_relaxed);
}

GroupManager::~GroupManager() {
  for (std::int64_t p = 0; p < pageCount_; ++p)
    delete[] pages_[static_cast<std::size_t>(p)].load(
        std::memory_order_acquire);
}

GroupManager::GroupSlot* GroupManager::slotFor(GroupId group) const {
  if (group < 0 || group >= options_.maxGroups) return nullptr;
  GroupSlot* page = pages_[static_cast<std::size_t>(group >> kPageBits)].load(
      std::memory_order_acquire);
  if (!page) return nullptr;
  return &page[group & (kPageSize - 1)];
}

GroupManager::GroupSlot& GroupManager::ensureSlot(GroupId group) {
  OMT_ASSERT(group >= 0 && group < options_.maxGroups,
             "group id outside the checked range");
  auto& pageRef = pages_[static_cast<std::size_t>(group >> kPageBits)];
  GroupSlot* page = pageRef.load(std::memory_order_acquire);
  if (!page) {
    page = new GroupSlot[kPageSize];
    pageRef.store(page, std::memory_order_release);
  }
  GroupSlot& slot = page[group & (kPageSize - 1)];
  if (!slot.created) {
    slot.created = true;
    createdGroups_.push_back(group);
  }
  return slot;
}

void GroupManager::createState(GroupSlot& slot, GroupId group, int dim) {
  OMT_CHECK(dim >= 1, "cannot create a group from a dimensionless event");
  // The session's source is a virtual rendezvous root at the origin of the
  // population's coordinate space — never a real host, so the last real
  // member can always leave and single-host groups are unremarkable.
  slot.state = std::make_unique<GroupState>(Point(dim), options_.session);
  slot.state->session.enableChangeJournal();
  // The fresh journal knows nothing about lastTable's epoch; the first
  // publish of this incarnation must rebuild from the session.
  slot.needsFullPublish = true;
  if (options_.useRpc) {
    RpcOptions rpcOptions = options_.rpc;
    rpcOptions.channel.seed =
        deriveSeed(deriveSeed(options_.seed, 0x5e17ULL),
                   static_cast<std::uint64_t>(group));
    DisruptionSchedule disruption;
    if (options_.injectDisruption) {
      DisruptionOptions d = options_.disruption;
      d.seed = deriveSeed(deriveSeed(options_.seed, 0xd15eULL),
                          static_cast<std::uint64_t>(group));
      disruption = DisruptionSchedule(generateDisruption(d, dim));
    }
    OverlaySession* session = &slot.state->session;
    slot.state->rpc = std::make_unique<RpcLayer>(
        rpcOptions, std::move(disruption),
        [session](std::int64_t id) -> const Point* {
          if (id < 0 || id >= session->hostCount() || !session->isLive(id))
            return nullptr;
          return &session->positionOf(id);
        });
    slot.state->driver = std::make_unique<ReliableSessionDriver>(
        *session, *slot.state->rpc);
  }
}

void GroupManager::applyEvent(GroupSlot& slot, const MembershipEvent& event,
                              WorkerReport& report) {
  if (!slot.state) {
    OMT_CHECK(event.kind == ServiceEventKind::kJoin,
              "group " + std::to_string(event.group) +
                  ": departure event for a group with no members");
    createState(slot, event.group, event.position.dim());
    ++report.created;
  }
  GroupState& state = *slot.state;
  state.lastEventTime = event.time;
  slot.dirty = true;
  ++slot.stats.events;
  ++report.stats.events;
  ++report.load;

  switch (event.kind) {
    case ServiceEventKind::kJoin: {
      OMT_CHECK(!state.nodeOf.contains(event.host),
                "group " + std::to_string(event.group) + ": host " +
                    std::to_string(event.host) + " is already a member");
      NodeId id;
      if (options_.useRpc) {
        const auto drive = state.driver->driveJoin(event.position, event.time);
        id = drive.id;
        if (!drive.result.completed && !drive.result.applied)
          ++report.stats.parkedJoins;
      } else {
        id = state.session.join(event.position);
      }
      OMT_CHECK(id == static_cast<NodeId>(state.hostOf.size()),
                "session id space diverged from the host map");
      state.hostOf.push_back(event.host);
      state.nodeOf.insert(event.host, id);
      ++slot.stats.joins;
      ++report.stats.joins;
      break;
    }
    case ServiceEventKind::kLeave: {
      const NodeId node = state.nodeOf.find(event.host);
      OMT_CHECK(node != kNoNode,
                "group " + std::to_string(event.group) + ": host " +
                    std::to_string(event.host) + " left without being a member");
      if (options_.useRpc && !state.session.isParked(node)) {
        state.driver->driveLeave(node, event.time);
      } else {
        // A parked host is unattached — its goodbye needs no handshake.
        state.session.leave(node);
      }
      state.nodeOf.erase(event.host);
      ++slot.stats.leaves;
      ++report.stats.leaves;
      break;
    }
    case ServiceEventKind::kCrash: {
      const NodeId node = state.nodeOf.find(event.host);
      OMT_CHECK(node != kNoNode,
                "group " + std::to_string(event.group) + ": host " +
                    std::to_string(event.host) + " crashed without being a member");
      const NodeId parent = state.session.parentOf(node);
      state.session.crash(node);
      if (options_.useRpc) {
        const NodeId reporter =
            parent >= 1 && state.session.isLive(parent) ? parent : kNoNode;
        state.driver->driveRepair(node, reporter, event.time);
      } else {
        state.session.repairCrashed(node);
      }
      state.nodeOf.erase(event.host);
      ++slot.stats.crashes;
      ++report.stats.crashes;
      break;
    }
  }

  // Anti-entropy cadence rides on event time (deterministic).
  if (options_.useRpc && state.driver->reconcilePending() &&
      event.time >= state.lastAudit + options_.auditPeriod) {
    state.driver->runAudit(event.time);
    state.lastAudit = event.time;
    ++report.stats.audits;
  }
  maybeTearDown(slot, report);
}

void GroupManager::maybeTearDown(GroupSlot& slot, WorkerReport& report) {
  GroupState* state = slot.state.get();
  if (!state || !state->nodeOf.empty()) return;
  // Only a fully clean group tears down: nothing parked, no unrepaired
  // corpse, no outstanding RPC ledger entry. A degraded empty group keeps
  // its state until quiesce()/audits drain it.
  if (state->session.parkedCount() != 0 ||
      state->session.undetectedCrashes() != 0)
    return;
  if (state->driver && state->driver->reconcilePending()) return;
  slot.state.reset();
  slot.dirty = true;
  ++slot.stats.teardowns;
  ++report.stats.teardowns;
}

void GroupManager::publish(GroupSlot& slot, GroupId group,
                           WorkerReport& report) {
  std::shared_ptr<const RouteTable> table;
  bool viaDelta = false;
  if (slot.state) {
    GroupState& state = *slot.state;
    OverlaySession& session = state.session;
    if (options_.deltaPublish && slot.lastTable && !slot.needsFullPublish &&
        !session.changeOverflow()) {
      const auto dirty = session.changedNodes();
      const auto maxEdits = static_cast<std::int64_t>(
          options_.deltaMaxFraction *
          static_cast<double>(slot.lastTable->size()));
      if (static_cast<std::int64_t>(dirty.size()) <= maxEdits) {
        auto patched = RouteTable::buildDelta(
            *slot.lastTable, session, state.hostOf, state.nodeOf, dirty,
            slot.epoch + 1, maxEdits, std::move(slot.spare));
        if (patched) {
          viaDelta = true;
          ++slot.epoch;
          if (options_.deltaVerify) {
            const auto full =
                RouteTable::build(session, state.hostOf, group, slot.epoch);
            OMT_CHECK(patched->identicalTo(*full),
                      "group " + std::to_string(group) +
                          ": delta-published table diverged from the full "
                          "rebuild");
          }
          table = std::move(patched);
        }
      }
    }
    if (!table)
      table = RouteTable::build(session, state.hostOf, group, ++slot.epoch,
                                std::move(slot.spare));
    session.clearChanges();
    slot.needsFullPublish = false;
  } else {
    table = std::make_shared<const RouteTable>(group, ++slot.epoch);
  }
  report.load += table->size() + 1;
  slot.stats.lastFingerprint = table->fingerprint();
  ++slot.stats.publishes;
  if (viaDelta) {
    ++slot.stats.deltaPublishes;
    ++report.stats.deltaPublishes;
  }
  slot.publishedSize = table->size();
  slot.lastTable = table;
  // The swap retires the table published two epochs ago: lastTable held the
  // only builder-side reference until the line above replaced it, so after
  // the swap our `spare` reference is the only one left outside readers.
  slot.spare = slot.table.store(std::move(table));
  slot.dirty = false;
  ++report.stats.publishes;
  if (options_.measureLatency) slot.publishStamp = wallNow();
}

template <class GroupOf, class Hint, class Fn>
GroupManager::WorkerReport GroupManager::claimEach(std::int64_t count,
                                                   const GroupOf& groupOf,
                                                   const Hint& hint,
                                                   const Fn& fn) {
  reports_.assign(reports_.size(), WorkerReport{});
  std::atomic<std::int64_t> cursor{0};
  std::atomic<bool> failed{false};

  // One loop per worker slot. A held item's group state is cold when it is
  // claimed, so each step up the window starts the next misses before the
  // loop needs them: the slot lines when an item is claimed (the third
  // ahead), then the objects the slot points at (the second ahead), then
  // the session's and tables' first lines and the item's own hints (the
  // next item). Everything read or prefetched belongs to an item this
  // worker claimed, so no other worker touches it during the pass. Claims
  // go out in index order, heaviest run first in apply(), so the items a
  // worker still holds once the cursor runs out are the lightest.
  const auto work = [&](WorkerReport& report) {
    struct Held {
      std::int64_t item;
      GroupSlot* slot;
    };
    std::array<Held, kClaimAhead + 1> held;
    int n = 0;
    bool more = true;
    const auto claim = [&] {
      if (!more || failed.load(std::memory_order_relaxed)) return false;
      const std::int64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        more = false;
        return false;
      }
      held[static_cast<std::size_t>(n++)] = {i, slotFor(groupOf(i))};
      return true;
    };
    constexpr auto kWrite = PrefetchFor::kWrite;
    const auto nearSlot = [](const Held& h) {
      prefetchRange(h.slot, sizeof(GroupSlot), kWrite);
    };
    const auto nearObjects = [](const Held& h) {
      if (const GroupState* state = h.slot->state.get())
        prefetchRange(state, sizeof(GroupState), kWrite);
      if (const RouteTable* table = h.slot->lastTable.get())
        prefetchRange(table, sizeof(RouteTable), kWrite);
      if (const RouteTable* table = h.slot->spare.get())
        prefetchRange(table, sizeof(RouteTable), kWrite);
    };
    const auto nearSession = [&](const Held& h) {
      if (const RouteTable* table = h.slot->lastTable.get())
        table->prefetch(PrefetchFor::kRead);
      if (const RouteTable* table = h.slot->spare.get())
        table->prefetch(kWrite);
      if (GroupState* state = h.slot->state.get()) {
        state->session.prefetch();
        hint(h.item, *state);
      }
    };

    // Prime the window: an item claimed straight into position p gets the
    // stages of every position from the third down to p at once.
    static_assert(kClaimAhead == 3, "one prefetch stage per position ahead");
    while (n <= kClaimAhead && claim()) {
    }
    for (int p = 1; p < n; ++p) nearSlot(held[static_cast<std::size_t>(p)]);
    for (int p = 1; p < std::min(n, 3); ++p)
      nearObjects(held[static_cast<std::size_t>(p)]);
    if (n > 1) nearSession(held[1]);
    // A throw anywhere stops every worker before its next item: the items
    // it holds are dropped unstarted, like items nobody claimed.
    while (n > 0 && !failed.load(std::memory_order_relaxed)) {
      try {
        fn(held[0].item, *held[0].slot, report);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
      std::move(held.begin() + 1, held.begin() + n, held.begin());
      --n;
      if (n > 2) nearObjects(held[2]);
      if (n > 1) nearSession(held[1]);
      if (claim()) nearSlot(held[static_cast<std::size_t>(n - 1)]);
    }
  };

  try {
    const auto loops =
        static_cast<int>(std::min<std::int64_t>(workers_, count));
    if (loops <= 1) {
      work(reports_[0]);
    } else {
      // One pool index per worker loop; the loops claim the items.
      globalPool().run(0, loops, loops, /*chunk=*/1,
                       [&](std::int64_t, std::int64_t, int slot) {
                         work(reports_[static_cast<std::size_t>(slot)]);
                       });
    }
  } catch (...) {
    foldReports();
    throw;
  }
  return foldReports();
}

GroupManager::WorkerReport GroupManager::foldReports() {
  WorkerReport total;
  for (std::size_t w = 0; w < reports_.size(); ++w) {
    addPassStats(total.stats, reports_[w].stats);
    total.degraded += reports_[w].degraded;
    total.created += reports_[w].created;
    workerLoad_[w] += reports_[w].load;
  }
  addPassStats(stats_, total.stats);
  liveGroups_ += total.created - total.stats.teardowns;
  flushStatsMetrics(total.stats);
  serviceMetrics().groups.set(static_cast<double>(liveGroups_));
  return total;
}

ApplyReport GroupManager::apply(std::span<const MembershipEvent> events) {
  const double arrival = options_.measureLatency ? wallNow() : 0.0;
  const obs::TraceSpan span("service_apply", "service");
  // Serial pre-pass on the writer thread, so the parallel phase makes no
  // structural change a concurrent reader could race with. A batch with an
  // id no event may carry is refused whole, before any slot is installed;
  // then every slot is installed and the batch grouped into one run per
  // touched group. A stable radix sort of (group, event index) pairs by
  // group lays each group's events out contiguously and in batch order.
  obs::TraceSpan partitionSpan("service_partition", "service", span.id());
  for (const MembershipEvent& event : events) {
    OMT_CHECK(event.group >= 0 && event.group < options_.maxGroups,
              "group id " + std::to_string(event.group) + " outside [0, " +
                  std::to_string(options_.maxGroups) + ")");
    // -1 and -2 are the tables' kNoHost and kNotMember.
    OMT_CHECK(event.host >= 0, "group " + std::to_string(event.group) +
                                   ": host id " + std::to_string(event.host) +
                                   " is negative");
  }
  order_.resize(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ensureSlot(events[i].group);
    order_[i] = {events[i].group, i};
  }
  radixSort(order_, orderScratch_,
            static_cast<std::uint64_t>(options_.maxGroups - 1),
            [](const std::pair<GroupId, std::size_t>& e) {
              return static_cast<std::uint64_t>(e.first);
            });
  runs_.clear();
  runs_.reserve(events.size());
  std::int64_t heaviest = 0;
  std::int64_t lightest = 0;
  for (std::size_t begin = 0, end = 0; begin < order_.size(); begin = end) {
    const GroupId group = order_[begin].first;
    while (end < order_.size() && order_[end].first == group) ++end;
    const std::int64_t weight = static_cast<std::int64_t>(end - begin) +
                                slotFor(group)->publishedSize;
    heaviest = runs_.empty() ? weight : std::max(heaviest, weight);
    lightest = runs_.empty() ? weight : std::min(lightest, weight);
    runs_.push_back({weight, group, begin, end});
  }
  // Heaviest first, ties by group id, so the long runs start early and
  // the short ones fill in around them: a stable sort of the
  // group-ascending runs by ascending (heaviest - weight).
  radixSort(runs_, runsScratch_,
            static_cast<std::uint64_t>(heaviest - lightest),
            [heaviest](const Run& run) {
              return static_cast<std::uint64_t>(heaviest - run.weight);
            });
  partitionSpan.end();

  obs::TraceSpan runsSpan("service_runs", "service", span.id());
  const WorkerReport total = claimEach(
      static_cast<std::int64_t>(runs_.size()),
      [&](std::int64_t r) { return runs_[static_cast<std::size_t>(r)].group; },
      [&](std::int64_t r, const GroupState& state) {
        // A leave or a crash reads the departing host's record first.
        const Run& run = runs_[static_cast<std::size_t>(r)];
        for (std::size_t k = run.begin; k < run.end; ++k) {
          const MembershipEvent& event = events[order_[k].second];
          if (event.kind == ServiceEventKind::kJoin) continue;
          state.session.prefetchHost(state.nodeOf.find(event.host));
        }
      },
      [&](std::int64_t r, GroupSlot& slot, WorkerReport& report) {
        const Run& run = runs_[static_cast<std::size_t>(r)];
        for (std::size_t k = run.begin; k < run.end; ++k)
          applyEvent(slot, events[order_[k].second], report);
        publish(slot, run.group, report);
      });
  runsSpan.end();

  ApplyReport result;
  result.events = static_cast<std::int64_t>(events.size());
  result.groupsTouched = total.stats.publishes;
  result.publishes = total.stats.publishes;
  result.deltaPublishes = total.stats.deltaPublishes;
  stats_.groupsCreated = static_cast<std::int64_t>(createdGroups_.size());
  if (options_.measureLatency) {
    // Every event's group publishes by the end of its batch, so the
    // latency is just that slot's stamp minus batch ingress — no
    // per-batch map, no per-event hash lookup.
    result.eventLatencies.reserve(events.size());
    auto& histogram = serviceMetrics().eventToRoute;
    for (const MembershipEvent& event : events) {
      const GroupSlot* slot = slotFor(event.group);
      const double latency =
          slot && slot->publishStamp > 0.0 ? slot->publishStamp - arrival : 0.0;
      result.eventLatencies.push_back(latency);
      histogram.observe(latency);
    }
  }
  return result;
}

bool GroupManager::quiesceGroup(GroupSlot& slot, GroupId group, double now,
                                int maxRounds, WorkerReport& report) {
  GroupState* state = slot.state.get();
  if (!state) return true;
  auto degraded = [&]() {
    return state->session.undetectedCrashes() != 0 ||
           state->session.parkedCount() != 0 ||
           (state->driver && state->driver->reconcilePending());
  };
  double t = std::max(now, state->lastEventTime);
  for (int round = 0; round < maxRounds && degraded(); ++round) {
    t += options_.auditPeriod;
    if (state->driver && state->driver->reconcilePending()) {
      state->driver->runAudit(t);
      ++report.stats.audits;
    }
    if (state->session.undetectedCrashes() != 0)
      state->session.detectAndRepair();
    slot.dirty = true;
  }
  maybeTearDown(slot, report);
  if (slot.dirty) publish(slot, group, report);
  return slot.state == nullptr || !degraded();
}

std::int64_t GroupManager::quiesce(double now, int maxRounds) {
  const obs::TraceSpan span("service_quiesce", "service");
  const auto groupOf = [&](std::int64_t i) {
    return createdGroups_[static_cast<std::size_t>(i)];
  };
  return claimEach(
             static_cast<std::int64_t>(createdGroups_.size()), groupOf,
             [](std::int64_t, const GroupState&) {},
             [&](std::int64_t i, GroupSlot& slot, WorkerReport& report) {
               if (!quiesceGroup(slot, groupOf(i), now, maxRounds, report))
                 ++report.degraded;
             })
      .degraded;
}

std::shared_ptr<const RouteTable> GroupManager::routes(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  if (!slot) return nullptr;
  return slot->table.load();
}

HostId GroupManager::parentOf(GroupId group, HostId host) const {
  const auto table = routes(group);
  return table ? table->parentOf(host) : kNotMember;
}

std::uint64_t GroupManager::epochOf(GroupId group) const {
  const auto table = routes(group);
  return table ? table->epoch() : 0;
}

std::int64_t GroupManager::liveMembersOf(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  if (!slot || !slot->state) return 0;
  return static_cast<std::int64_t>(slot->state->nodeOf.size());
}

GroupStats GroupManager::groupStats(GroupId group) const {
  const GroupSlot* slot = slotFor(group);
  return slot ? slot->stats : GroupStats{};
}

}  // namespace omt
