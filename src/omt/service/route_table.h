// Immutable per-group route table — the reader half of the service's
// epoch/snapshot scheme.
//
// A GroupManager builder thread materialises one RouteTable per publish
// from the group's live OverlaySession and swaps it into the group's
// atomic slot; readers that grabbed the previous table keep a shared_ptr
// and are never invalidated (RCU-style: old epochs die when the last
// reader drops them). Everything in a table is immutable after
// construction, so a reader can walk parents and children without any
// synchronisation beyond the initial pointer load.
//
// Storage: one slab per table (hosts, parents, CSR offsets and child
// storage carved out of a single byte block), and every build-time
// intermediate (DFS stack, edge list, host->index hash, degree cursors)
// comes from the builder thread's ScratchArena. The builders also accept a
// retired table to recycle: when no reader still holds it, its slab and
// control block are reused in place, so steady-state publication performs
// zero heap allocations.
//
// Tables are built two ways and the results are required to be
// bit-identical: build() walks the session from scratch, and buildDelta()
// patches the previous epoch's sorted arrays from the session's change
// journal (no session DFS, no sort). The GroupManager decides per publish
// which path to take; the differential oracle alternates them at random.
//
// Hosts are addressed by their service-wide HostId (the shared host
// population), not by session-internal node ids. The group's origin (the
// session's virtual root, which is not a real host) is not listed;
// members attached directly to it report kNoHost as their parent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "omt/common/prefetch.h"
#include "omt/protocol/overlay_session.h"

namespace omt {

/// Identifier of one multicast group; dense, 0-based.
using GroupId = std::int64_t;

/// Service-wide host identifier (shared across every group).
using HostId = std::int64_t;

/// Parent of a member attached directly to the group origin.
inline constexpr HostId kNoHost = -1;

/// parentOf() result for a host that is not a member of the group.
inline constexpr HostId kNotMember = -2;

/// Sorted flat host -> session-node index for one group's current members.
/// Groups are small (tens of members), so a contiguous sorted vector beats
/// a node-based hash map on every operation the event path performs: find
/// is a short binary search with no pointer chase, and insert/erase memmove
/// a few hundred bytes instead of touching the allocator per event.
class HostIndex {
 public:
  /// The member's current session node, or kNoNode when absent.
  NodeId find(HostId host) const {
    const auto it = lowerBound(host);
    return it != entries_.end() && it->first == host ? it->second : kNoNode;
  }
  bool contains(HostId host) const { return find(host) != kNoNode; }

  /// Precondition: `host` is not present.
  void insert(HostId host, NodeId node) {
    entries_.emplace(lowerBound(host), host, node);
  }

  /// Precondition: `host` is present.
  void erase(HostId host) { entries_.erase(lowerBound(host)); }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<HostId, NodeId>>::const_iterator lowerBound(
      HostId host) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), host,
        [](const std::pair<HostId, NodeId>& e, HostId h) { return e.first < h; });
  }
  std::vector<std::pair<HostId, NodeId>>::iterator lowerBound(HostId host) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), host,
        [](const std::pair<HostId, NodeId>& e, HostId h) { return e.first < h; });
  }

  std::vector<std::pair<HostId, NodeId>> entries_;
};

/// Outcome of RouteTable::checkConsistency().
struct RouteTableAudit {
  bool ok = true;
  std::string message;  ///< empty when ok; first violation otherwise
  explicit operator bool() const { return ok; }
};

class RouteTable {
 public:
  /// Audit depth for checkConsistency(). Both modes validate the full
  /// structure (sortedness, CSR/parent agreement, acyclicity, reachability,
  /// degree caps, fingerprint recomputation); kFull additionally rebuilds a
  /// second table from the host/parent arrays and compares every derived
  /// array — belt and braces at the cost of a slab allocation per audit.
  /// kQuick allocates nothing beyond arena scratch, which is what lets the
  /// snapshot reader hammer audit every observation under TSan.
  enum class AuditMode : std::uint8_t { kFull, kQuick };

  /// An empty table (group exists but has no attached members).
  RouteTable(GroupId group, std::uint64_t epoch);

  /// Builder-only: a shell with no slab yet (reset() follows immediately).
  /// The tag is private, so only build()/buildDelta() can reach this, but
  /// the constructor itself stays public for std::make_shared.
  class BuilderTag {
    friend class RouteTable;
    BuilderTag() = default;
  };
  RouteTable(BuilderTag, GroupId group, std::uint64_t epoch)
      : group_(group), epoch_(epoch) {}

  GroupId group() const { return group_; }
  /// Publish generation: bumped once per swap, strictly monotone per group.
  std::uint64_t epoch() const { return epoch_; }
  std::int64_t size() const { return static_cast<std::int64_t>(hosts_.size()); }
  bool empty() const { return hosts_.empty(); }

  /// Members in ascending HostId order.
  std::span<const HostId> hosts() const { return hosts_; }
  bool contains(HostId host) const { return indexOf(host) >= 0; }

  /// kNoHost for a member attached to the group origin, kNotMember for a
  /// host that is not in this group. O(log size).
  HostId parentOf(HostId host) const;

  /// The member's children (empty for kNotMember hosts). The span aliases
  /// the table — keep the shared_ptr alive while using it.
  std::span<const HostId> childrenOf(HostId host) const;

  /// Members attached directly to the group origin (the delivery roots).
  std::span<const HostId> originChildren() const { return originChildren_; }

  /// Structure hash over the sorted (host, parent) pairs; equal tables
  /// (same members, same edges) hash equal regardless of epoch or the
  /// worker count that built them.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Structural audit: parent/child symmetry, acyclicity, every member
  /// reachable from the origin, out-degrees within `maxOutDegree` (counting
  /// origin fan-out too; pass 0 to skip the cap check), and the stored
  /// fingerprint matching a recomputation (a torn or corrupted snapshot
  /// cannot pass). O(size); see AuditMode for the kFull/kQuick trade.
  RouteTableAudit checkConsistency(int maxOutDegree,
                                   AuditMode mode = AuditMode::kFull) const;

  /// Exact structural equality including arrays, fingerprint, group, and
  /// epoch — the delta-vs-full bit-identity oracle.
  bool identicalTo(const RouteTable& other) const;

  /// Prefetch hint for the first lines of each array in the slab (all of
  /// it for the small tables most groups publish): the delta path reads a
  /// previous epoch's arrays from the front (kRead), and a recycled
  /// table's slab is overwritten from the front (kWrite). Like
  /// OverlaySession::prefetch it reads only the table's own spans and
  /// changes no state.
  void prefetch(PrefetchFor intent) const {
    const auto head = [intent](const auto span) {
      prefetchRange(span.data(),
                    std::min(span.size_bytes(), 2 * kCacheLineBytes), intent);
    };
    head(hosts_);
    head(parent_);
    head(childStorage_);
    head(childOffset_);
    head(parentIdx_);
  }

  /// Build a table from the live, *attached* membership of `session`:
  /// parked hosts and pending crashes are not routable and are excluded.
  /// `hostOf[node]` maps session node ids to HostIds (hostOf[0] is the
  /// virtual root and is ignored). `recycle` may pass a retired table whose
  /// slab and control block are reused when no reader still holds it —
  /// steady-state publication then allocates nothing at all.
  static std::shared_ptr<const RouteTable> build(
      const OverlaySession& session, std::span<const HostId> hostOf,
      GroupId group, std::uint64_t epoch,
      std::shared_ptr<const RouteTable> recycle = nullptr);

  /// Patch `previous` into the session's current state using the change
  /// journal instead of re-walking the session: `dirtyNodes` is the
  /// session's changedNodes() since `previous` was built, and `members` is
  /// the authoritative host -> current-session-node index (a host can have
  /// stale dead nodes from earlier incarnations; only the current one
  /// decides its entry). Returns nullptr — caller falls back to build() —
  /// when the edit set exceeds `maxEdits`. A returned table is
  /// bit-identical to what build() would produce at the same epoch.
  static std::shared_ptr<const RouteTable> buildDelta(
      const RouteTable& previous, const OverlaySession& session,
      std::span<const HostId> hostOf, const HostIndex& members,
      std::span<const NodeId> dirtyNodes, std::uint64_t epoch,
      std::int64_t maxEdits,
      std::shared_ptr<const RouteTable> recycle = nullptr);

 private:
  std::int64_t indexOf(HostId host) const;
  void reset(std::size_t n);  ///< lay out (reusing the slab if big enough)
  void finalize();            ///< builds the CSR index and the fingerprint
  /// finalize() tail for builders that already filled parentIdx_: degree
  /// counts, CSR scatter, and the fingerprint, skipping the host->index
  /// hash pass entirely.
  void finalizeFromParentIdx();
  /// A mutable shell for the builders: the recycled table when this thread
  /// holds its only reference, else a freshly allocated one.
  static std::shared_ptr<RouteTable> makeShell(
      std::shared_ptr<const RouteTable>&& recycle, GroupId group,
      std::uint64_t epoch);

  GroupId group_ = 0;
  std::uint64_t epoch_ = 0;
  /// Single backing allocation: hosts | parents | child storage | offsets |
  /// parent indices. Kept (and reused) across recycled builds.
  std::unique_ptr<std::byte[]> slab_;
  std::size_t slabBytes_ = 0;
  std::span<HostId> hosts_;   ///< sorted ascending
  std::span<HostId> parent_;  ///< by index; kNoHost = origin-attached
  std::span<HostId> childStorage_;         ///< children_ then originChildren_
  std::span<std::int32_t> childOffset_;    ///< CSR into children_, size+1
  /// parent_ resolved to an index into hosts_ (-1 = origin). Not part of
  /// the logical table (derived, excluded from identicalTo); stored so the
  /// delta path can remap the previous epoch's indices without a hash.
  std::span<std::int32_t> parentIdx_;
  std::span<const HostId> children_;       ///< prefix of childStorage_
  std::span<const HostId> originChildren_; ///< suffix of childStorage_
  std::uint64_t fingerprint_ = 0;
};

}  // namespace omt
