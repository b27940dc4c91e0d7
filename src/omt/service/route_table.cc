#include "omt/service/route_table.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <utility>

#include "omt/common/error.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer over the running hash; matches the repo's other
  // structural fingerprints in spirit (order-sensitive, avalanching).
  h += v + 0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

std::uint64_t fingerprintOf(GroupId group, std::span<const HostId> hosts,
                            std::span<const HostId> parent) {
  std::uint64_t h =
      mix(0x0a11c0de5e12f1ceULL, static_cast<std::uint64_t>(group));
  h = mix(h, static_cast<std::uint64_t>(hosts.size()));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    h = mix(h, static_cast<std::uint64_t>(hosts[i]));
    h = mix(h, static_cast<std::uint64_t>(parent[i]) + 2);  // kNotMember-safe
  }
  return h;
}

std::uint64_t hashHost(HostId host) {
  std::uint64_t x = static_cast<std::uint64_t>(host);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

RouteTable::RouteTable(GroupId group, std::uint64_t epoch)
    : group_(group), epoch_(epoch) {
  reset(0);
  finalize();
}

void RouteTable::reset(std::size_t n) {
  // One slab: hosts | parents | child storage | CSR offsets | parent
  // indices. The int32 blocks sit last so every HostId block keeps 8-byte
  // alignment. A recycled slab is kept whenever it is big enough; every
  // cell is overwritten by the builder, so stale contents are harmless.
  const std::size_t hostBytes = n * sizeof(HostId);
  const std::size_t total =
      3 * hostBytes + (2 * n + 1) * sizeof(std::int32_t);
  if (total > slabBytes_ || !slab_) {
    slab_ = std::make_unique<std::byte[]>(total);
    slabBytes_ = total;
  }
  std::byte* base = slab_.get();
  hosts_ = {reinterpret_cast<HostId*>(base), n};
  parent_ = {reinterpret_cast<HostId*>(base + hostBytes), n};
  childStorage_ = {reinterpret_cast<HostId*>(base + 2 * hostBytes), n};
  childOffset_ = {reinterpret_cast<std::int32_t*>(base + 3 * hostBytes),
                  n + 1};
  parentIdx_ = {reinterpret_cast<std::int32_t*>(base + 3 * hostBytes) + n + 1,
                n};
  children_ = {};
  originChildren_ = {};
}

std::shared_ptr<RouteTable> RouteTable::makeShell(
    std::shared_ptr<const RouteTable>&& recycle, GroupId group,
    std::uint64_t epoch) {
  if (recycle && recycle.use_count() == 1) {
    // We hold the only reference and the snapshot slot no longer points at
    // this table, so no reader can mint a new one. The fence pairs with the
    // last reader's release-decrement of the refcount, ordering its reads
    // of the table before our in-place overwrite.
    std::atomic_thread_fence(std::memory_order_acquire);
#if defined(__SANITIZE_THREAD__)
    // ThreadSanitizer does not model fences. Taking and dropping a second
    // reference is an acquire-release read-modify-write of the same count,
    // which it does model.
    { const std::shared_ptr<const RouteTable> bump = recycle; }
#endif
    auto shell = std::const_pointer_cast<RouteTable>(std::move(recycle));
    shell->group_ = group;
    shell->epoch_ = epoch;
    return shell;
  }
  return std::make_shared<RouteTable>(BuilderTag{}, group, epoch);
}

std::int64_t RouteTable::indexOf(HostId host) const {
  const auto it = std::lower_bound(hosts_.begin(), hosts_.end(), host);
  if (it == hosts_.end() || *it != host) return -1;
  return it - hosts_.begin();
}

HostId RouteTable::parentOf(HostId host) const {
  const std::int64_t i = indexOf(host);
  return i < 0 ? kNotMember : parent_[static_cast<std::size_t>(i)];
}

std::span<const HostId> RouteTable::childrenOf(HostId host) const {
  const std::int64_t i = indexOf(host);
  if (i < 0) return {};
  const auto lo = static_cast<std::size_t>(childOffset_[static_cast<std::size_t>(i)]);
  const auto hi =
      static_cast<std::size_t>(childOffset_[static_cast<std::size_t>(i) + 1]);
  return children_.subspan(lo, hi - lo);
}

void RouteTable::finalize() {
  const std::size_t n = hosts_.size();
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);

  // Host -> index: one open-addressing pass instead of the former
  // O(log n) binary search per edge. hosts_ is duplicate-free (the
  // builders enforce it), so insertion never collides on equal keys.
  std::size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  const std::uint64_t mask = cap - 1;
  auto slots = arena.alloc<std::int32_t>(cap);
  std::fill(slots.begin(), slots.end(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t s = hashHost(hosts_[i]) & mask;
    while (slots[s] >= 0) s = (s + 1) & mask;
    slots[s] = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const HostId p = parent_[i];
    if (p == kNoHost) {
      parentIdx_[i] = -1;
      continue;
    }
    std::int32_t pi = -1;
    for (std::uint64_t s = hashHost(p) & mask;; s = (s + 1) & mask) {
      const std::int32_t cand = slots[s];
      OMT_CHECK(cand >= 0, "route table parent is not a member");
      if (hosts_[static_cast<std::size_t>(cand)] == p) {
        pi = cand;
        break;
      }
    }
    parentIdx_[i] = pi;
  }
  finalizeFromParentIdx();
}

void RouteTable::finalizeFromParentIdx() {
  const std::size_t n = hosts_.size();
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);

  // Degree counts (shifted by one, prefix-summed in place into the CSR),
  // folding the fingerprint into the same pass over (hosts, parents).
  std::fill(childOffset_.begin(), childOffset_.end(), 0);
  std::uint64_t h =
      mix(0x0a11c0de5e12f1ceULL, static_cast<std::uint64_t>(group_));
  h = mix(h, static_cast<std::uint64_t>(n));
  std::size_t originCount = 0;
  for (std::size_t i = 0; i < n; ++i) {
    h = mix(h, static_cast<std::uint64_t>(hosts_[i]));
    h = mix(h, static_cast<std::uint64_t>(parent_[i]) + 2);  // kNotMember-safe
    const std::int32_t pi = parentIdx_[i];
    if (pi < 0)
      ++originCount;
    else
      ++childOffset_[static_cast<std::size_t>(pi) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) childOffset_[i] += childOffset_[i - 1];
  children_ = childStorage_.first(static_cast<std::size_t>(childOffset_[n]));
  originChildren_ =
      childStorage_.subspan(children_.size(), originCount);

  // Scatter children in ascending member order: hosts_ is sorted, so each
  // parent's span (and the origin span) comes out ascending by HostId.
  auto cursor = arena.alloc<std::int32_t>(n);
  std::copy(childOffset_.begin(), childOffset_.end() - 1, cursor.begin());
  std::size_t origin = children_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t pi = parentIdx_[i];
    if (pi < 0)
      childStorage_[origin++] = hosts_[i];
    else
      childStorage_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(pi)]++)] =
          hosts_[i];
  }

  fingerprint_ = h;
}

bool RouteTable::identicalTo(const RouteTable& other) const {
  return group_ == other.group_ && epoch_ == other.epoch_ &&
         fingerprint_ == other.fingerprint_ &&
         std::equal(hosts_.begin(), hosts_.end(), other.hosts_.begin(),
                    other.hosts_.end()) &&
         std::equal(parent_.begin(), parent_.end(), other.parent_.begin(),
                    other.parent_.end()) &&
         std::equal(childOffset_.begin(), childOffset_.end(),
                    other.childOffset_.begin(), other.childOffset_.end()) &&
         std::equal(children_.begin(), children_.end(),
                    other.children_.begin(), other.children_.end()) &&
         std::equal(originChildren_.begin(), originChildren_.end(),
                    other.originChildren_.begin(),
                    other.originChildren_.end());
}

RouteTableAudit RouteTable::checkConsistency(int maxOutDegree,
                                             AuditMode mode) const {
  auto fail = [](std::string message) {
    return RouteTableAudit{false, std::move(message)};
  };
  const std::size_t n = hosts_.size();
  if (parent_.size() != n || childOffset_.size() != n + 1)
    return fail("route table arrays disagree on the member count");
  for (std::size_t i = 1; i < n; ++i) {
    if (hosts_[i - 1] >= hosts_[i])
      return fail("route table hosts are not strictly ascending");
  }

  // Recompute the fingerprint: a torn or bit-damaged snapshot cannot both
  // keep its stored hash and re-derive it from its own arrays.
  if (fingerprintOf(group_, hosts_, parent_) != fingerprint_)
    return fail("stored fingerprint does not match the table contents");

  // CSR/parent cross-validation without building a second table: offsets
  // monotone and complete, every child entry a member whose parent array
  // entry names exactly this parent, spans strictly ascending. n entries
  // total + parent-match uniqueness makes the index a permutation of the
  // membership, which is what a rebuild would produce.
  if (childOffset_[0] != 0)
    return fail("children index does not start at zero");
  for (std::size_t i = 0; i < n; ++i) {
    if (childOffset_[i + 1] < childOffset_[i])
      return fail("children index offsets are not monotone");
  }
  if (static_cast<std::size_t>(childOffset_[n]) != children_.size() ||
      children_.size() + originChildren_.size() != n)
    return fail("children index does not cover the membership");
  for (std::size_t i = 0; i < originChildren_.size(); ++i) {
    if (i > 0 && originChildren_[i - 1] >= originChildren_[i])
      return fail("origin children are not strictly ascending");
    const std::int64_t ci = indexOf(originChildren_[i]);
    if (ci < 0 || parent_[static_cast<std::size_t>(ci)] != kNoHost)
      return fail("origin child " + std::to_string(originChildren_[i]) +
                  " is not an origin-attached member");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = static_cast<std::size_t>(childOffset_[i]);
    const auto hi = static_cast<std::size_t>(childOffset_[i + 1]);
    for (std::size_t c = lo; c < hi; ++c) {
      if (c > lo && children_[c - 1] >= children_[c])
        return fail("children of host " + std::to_string(hosts_[i]) +
                    " are not strictly ascending");
      const std::int64_t ci = indexOf(children_[c]);
      if (ci < 0 || parent_[static_cast<std::size_t>(ci)] != hosts_[i])
        return fail("child entry " + std::to_string(children_[c]) +
                    " does not point back at host " +
                    std::to_string(hosts_[i]));
    }
  }

  if (mode == AuditMode::kFull && n > 0) {
    // Belt and braces: re-derive every array from (hosts, parents) alone
    // and require bit equality.
    RouteTable fresh(group_, epoch_);
    fresh.reset(n);
    std::copy(hosts_.begin(), hosts_.end(), fresh.hosts_.begin());
    std::copy(parent_.begin(), parent_.end(), fresh.parent_.begin());
    fresh.finalize();
    if (!identicalTo(fresh))
      return fail("children index does not match a rebuilt table");
  }

  // Every member must reach the origin through member parents without a
  // cycle; walking each parent chain with a visit stamp is O(n) total.
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  auto state = arena.alloc<std::int64_t>(n);  // 0 unvisited, <0 walking, 1 done
  std::fill(state.begin(), state.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == 1) continue;
    std::size_t walk = i;
    const std::int64_t stamp = -static_cast<std::int64_t>(i) - 2;
    while (true) {
      if (state[walk] == stamp)
        return fail("cycle through host " + std::to_string(hosts_[walk]));
      if (state[walk] == 1) break;
      state[walk] = stamp;
      const HostId p = parent_[walk];
      if (p == kNoHost) break;
      const std::int64_t pi = indexOf(p);
      if (pi < 0)
        return fail("host " + std::to_string(hosts_[walk]) +
                    " has non-member parent " + std::to_string(p));
      walk = static_cast<std::size_t>(pi);
    }
    // Mark the walked chain resolved.
    walk = i;
    while (walk < n && state[walk] == stamp) {
      state[walk] = 1;
      const HostId p = parent_[walk];
      if (p == kNoHost) break;
      walk = static_cast<std::size_t>(indexOf(p));
    }
  }

  if (maxOutDegree > 0) {
    if (static_cast<std::int64_t>(originChildren_.size()) > maxOutDegree)
      return fail("origin fan-out " + std::to_string(originChildren_.size()) +
                  " exceeds the degree cap");
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t deg = childOffset_[i + 1] - childOffset_[i];
      if (deg > maxOutDegree)
        return fail("host " + std::to_string(hosts_[i]) + " out-degree " +
                    std::to_string(deg) + " exceeds the degree cap");
    }
  }
  return {};
}

std::shared_ptr<const RouteTable> RouteTable::build(
    const OverlaySession& session, std::span<const HostId> hostOf,
    GroupId group, std::uint64_t epoch,
    std::shared_ptr<const RouteTable> recycle) {
  OMT_CHECK(static_cast<std::int64_t>(hostOf.size()) == session.hostCount(),
            "hostOf does not cover the session id space");
  // Only the subtree reachable from the virtual root through live,
  // unparked hosts is routable: a subtree hanging below a parked host or
  // an unrepaired corpse is attached in session terms but cannot receive
  // data, so it stays out of the published snapshot until repair re-homes
  // it (mirroring what the data plane could actually deliver to).
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  const std::size_t idSpace = hostOf.size();
  auto stack = arena.alloc<NodeId>(idSpace + 1);
  auto edges = arena.alloc<std::pair<HostId, HostId>>(idSpace);
  std::size_t top = 0;
  std::size_t m = 0;
  stack[top++] = 0;
  while (top > 0) {
    const NodeId node = stack[--top];
    for (const NodeId child : session.childrenOf(node)) {
      if (!session.isLive(child) || session.isParked(child)) continue;
      edges[m++] = {hostOf[static_cast<std::size_t>(child)],
                    node == 0 ? kNoHost
                              : hostOf[static_cast<std::size_t>(node)]};
      stack[top++] = child;
    }
  }
  std::sort(edges.begin(), edges.begin() + static_cast<std::ptrdiff_t>(m));

  auto table = makeShell(std::move(recycle), group, epoch);
  table->reset(m);
  for (std::size_t i = 0; i < m; ++i) {
    OMT_CHECK(i == 0 || table->hosts_[i - 1] != edges[i].first,
              "duplicate host id in one group");
    table->hosts_[i] = edges[i].first;
    table->parent_[i] = edges[i].second;
  }
  table->finalize();
  return table;
}

std::shared_ptr<const RouteTable> RouteTable::buildDelta(
    const RouteTable& previous, const OverlaySession& session,
    std::span<const HostId> hostOf, const HostIndex& members,
    std::span<const NodeId> dirtyNodes, std::uint64_t epoch,
    std::int64_t maxEdits, std::shared_ptr<const RouteTable> recycle) {
  OMT_CHECK(static_cast<std::int64_t>(hostOf.size()) == session.hostCount(),
            "hostOf does not cover the session id space");
  maxEdits = std::min(maxEdits, previous.size() +
                                    static_cast<std::int64_t>(dirtyNodes.size()));
  if (static_cast<std::int64_t>(dirtyNodes.size()) > maxEdits) return nullptr;

  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  const std::size_t idSpace = hostOf.size();

  // A node contributes an entry iff it is live, unparked, and its whole
  // parent chain up to the virtual root is live and unparked (exactly the
  // set build()'s root DFS reaches).
  const auto reachable = [&](NodeId node) {
    if (node <= 0 || !session.isLive(node) || session.isParked(node))
      return false;
    for (NodeId a = session.parentOf(node); a != 0;
         a = session.parentOf(a)) {
      if (a == kNoNode || !session.isLive(a) || session.isParked(a))
        return false;
    }
    return true;
  };

  // Candidate hosts whose entry may differ from `previous`: every dirty
  // node, plus — when a dirty node's membership flipped — its whole
  // current live/unparked subtree (the nodes build() would newly include
  // or newly skip without any of them having changed their own links).
  // Every push (bar the seed) follows a successful add(), so the DFS
  // stack never outgrows the edit cap — no need to size it to the whole
  // id space.
  const std::size_t cap = static_cast<std::size_t>(maxEdits);
  auto candidates = arena.alloc<HostId>(cap + 1);
  auto stack = arena.alloc<NodeId>(cap + 2);
  std::size_t count = 0;
  bool overflow = false;
  const auto add = [&](HostId h) {
    if (count >= cap) {
      overflow = true;
      return;
    }
    candidates[count++] = h;
  };
  for (const NodeId d : dirtyNodes) {
    if (overflow) break;
    if (d <= 0 || static_cast<std::size_t>(d) >= idSpace) continue;
    const HostId host = hostOf[static_cast<std::size_t>(d)];
    add(host);
    if (reachable(d) == previous.contains(host)) continue;
    std::size_t top = 0;
    stack[top++] = d;
    while (top > 0 && !overflow) {
      const NodeId node = stack[--top];
      for (const NodeId child : session.childrenOf(node)) {
        if (!session.isLive(child) || session.isParked(child)) continue;
        add(hostOf[static_cast<std::size_t>(child)]);
        if (overflow) break;
        stack[top++] = child;
      }
    }
  }
  if (overflow) return nullptr;

  // Resolve each candidate host authoritatively against the session: the
  // host's *current* member node decides presence and parent (stale dead
  // nodes from earlier incarnations of a re-joined host never win).
  struct Edit {
    HostId host;
    HostId parent;
    bool present;
  };
  std::sort(candidates.begin(),
            candidates.begin() + static_cast<std::ptrdiff_t>(count));
  auto edits = arena.alloc<Edit>(count);
  std::size_t editCount = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && candidates[i] == candidates[i - 1]) continue;
    const HostId host = candidates[i];
    Edit edit{host, kNoHost, false};
    const NodeId node = members.find(host);
    if (node != kNoNode && reachable(node)) {
      edit.present = true;
      const NodeId p = session.parentOf(node);
      edit.parent = p == 0 ? kNoHost : hostOf[static_cast<std::size_t>(p)];
    }
    edits[editCount++] = edit;
  }

  // Splice the edits into the previous sorted host/parent arrays in one
  // linear merge (sortedness is preserved, so no DFS and no sort),
  // recording per entry where it came from and how the previous epoch's
  // indices shift, so the CSR can be re-derived from the previous epoch's
  // parent indices without any host->index hashing.
  const std::size_t prevN = previous.hosts_.size();
  auto newHosts = arena.alloc<HostId>(prevN + editCount);
  auto newParent = arena.alloc<HostId>(prevN + editCount);
  // fromPrev[j] >= 0: copied from previous index; -(e+1): from edits[e].
  auto fromPrev = arena.alloc<std::int32_t>(prevN + editCount);
  auto remap = arena.alloc<std::int32_t>(prevN);  ///< prev index -> new, -1 gone
  std::size_t n = 0;
  std::size_t pi = 0;
  std::size_t ei = 0;
  while (pi < prevN || ei < editCount) {
    const bool takePrev =
        ei == editCount ||
        (pi < prevN && previous.hosts_[pi] < edits[ei].host);
    if (takePrev) {
      newHosts[n] = previous.hosts_[pi];
      newParent[n] = previous.parent_[pi];
      fromPrev[n] = static_cast<std::int32_t>(pi);
      remap[pi] = static_cast<std::int32_t>(n);
      ++n;
      ++pi;
      continue;
    }
    if (pi < prevN && previous.hosts_[pi] == edits[ei].host)
      remap[pi++] = edits[ei].present ? static_cast<std::int32_t>(n) : -1;
    if (edits[ei].present) {
      newHosts[n] = edits[ei].host;
      newParent[n] = edits[ei].parent;
      fromPrev[n] = -static_cast<std::int32_t>(ei) - 1;
      ++n;
    }
    ++ei;
  }

  auto table = makeShell(std::move(recycle), previous.group_, epoch);
  table->reset(n);
  std::copy(newHosts.begin(), newHosts.begin() + static_cast<std::ptrdiff_t>(n),
            table->hosts_.begin());
  std::copy(newParent.begin(),
            newParent.begin() + static_cast<std::ptrdiff_t>(n),
            table->parent_.begin());

  // Parent indices: entries copied from the previous epoch remap its
  // stored index (an unchanged member's parent cannot have left without
  // the member itself turning dirty, but fall back to the full rebuild
  // rather than trust that invariant blindly); fresh edits resolve their
  // parent host with one binary search each.
  for (std::size_t j = 0; j < n; ++j) {
    const std::int32_t src = fromPrev[j];
    const HostId p = table->parent_[j];
    if (p == kNoHost) {
      table->parentIdx_[j] = -1;
      continue;
    }
    std::int32_t pj = -1;
    if (src >= 0) {
      const std::int32_t old =
          previous.parentIdx_[static_cast<std::size_t>(src)];
      if (old >= 0) pj = remap[static_cast<std::size_t>(old)];
    } else {
      const std::int64_t found = table->indexOf(p);
      pj = found < 0 ? -1 : static_cast<std::int32_t>(found);
    }
    if (pj < 0 || table->hosts_[static_cast<std::size_t>(pj)] != p)
      return nullptr;
    table->parentIdx_[j] = pj;
  }
  table->finalizeFromParentIdx();
  return table;
}

}  // namespace omt
