#include "omt/bisection/bisection.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "omt/common/error.h"
#include "omt/geometry/bounding.h"
#include "omt/kernels/polar_batch.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"
#include "omt/parallel/parallel_for.h"
#include "omt/parallel/scratch_arena.h"

namespace omt {

int relayLayers(int dim, int maxChildren) {
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "dimension out of range");
  OMT_CHECK(maxChildren >= 2, "fan-out must be at least 2");
  const std::uint64_t target = std::uint64_t{1} << dim;  // 2^d sub-segments
  int layers = 0;
  std::uint64_t reach = 1;
  while (reach < target) {
    reach *= static_cast<std::uint64_t>(maxChildren);
    ++layers;
  }
  return layers;
}

namespace {

/// One pending recursion step: connect the members at positions
/// order[begin, end) (positions index bisectConnect's member spans) under
/// `root`, inside `segment`. The range holds the members in the order a
/// per-step member list would, so the degenerate fan sees the same order.
struct Job {
  NodeId root = kNoNode;
  double rootRadius = 0.0;
  RingSegment segment;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  int depth = 0;
};

/// 2^d sub-segments for d <= kMaxDim, so a sub-segment index fits a byte.
constexpr int kMaxSubsegments = 1 << kMaxDim;
static_assert(kMaxSubsegments <= 256);

/// Sentinel member position: nothing left to extract.
constexpr std::uint32_t kNoPosition = std::numeric_limits<std::uint32_t>::max();

/// Past this depth (or below this segment extent) the point set is
/// effectively degenerate (coincident points); fall back to a balanced
/// m-ary fan, which is feasible for any degree cap and adds only
/// zero-length (or near-zero) hops.
constexpr int kMaxDepth = 192;

/// One job's members partitioned by sub-segment: bucket b is
/// order[begin[b], end[b]). Removing a member moves the bucket's last live
/// member into its slot and shrinks `end`, exactly like erasing from a
/// vector by swapping with back(). Only the first 2^d entries are set and
/// read; the rest stay uninitialised rather than clearing 2 KiB per job.
struct Buckets {
  std::array<std::uint32_t, kMaxSubsegments> begin;
  std::array<std::uint32_t, kMaxSubsegments> end;
};

/// Everything one bisectConnect call works on. `order` is the permutation
/// of member positions that jobs partition in place; `scratch` and `sub`
/// are the counting sort's target and per-position sub-segment indices.
struct Workspace {
  MulticastTree& tree;
  std::span<const NodeId> members;
  std::span<const PolarCoords> polar;
  std::span<std::uint32_t> order;
  std::span<std::uint32_t> scratch;
  std::span<std::uint8_t> sub;
  std::vector<Job>& stack;
  int m;

  NodeId nodeAt(std::uint32_t pos) const { return members[order[pos]]; }
  double radiusAt(std::uint32_t pos) const { return polar[order[pos]].radius; }
};

std::uint32_t takeAt(Workspace& w, Buckets& buckets, int b, std::uint32_t pos) {
  const std::uint32_t member = w.order[pos];
  w.order[pos] = w.order[--buckets.end[static_cast<std::size_t>(b)]];
  return member;
}

void attachFan(Workspace& w, NodeId root, std::uint32_t begin,
               std::uint32_t end) {
  const auto m = static_cast<std::uint32_t>(w.m);
  for (std::uint32_t i = 0; i < end - begin; ++i) {
    const NodeId parent = i == 0 ? root : w.nodeAt(begin + (i - 1) / m);
    w.tree.attach(w.nodeAt(begin + i), parent, EdgeKind::kLocal);
  }
}

/// Remove and return the member whose radius is closest to `radius` from
/// the listed buckets; kNoPosition when every listed bucket is empty.
std::uint32_t extractClosestRadius(Workspace& w, Buckets& buckets,
                                   std::span<const std::uint8_t> bucketIds,
                                   double radius) {
  int bestBucket = -1;
  std::uint32_t bestPos = 0;
  double bestDist = kInf;
  NodeId bestNode = kNoNode;
  for (const int b : bucketIds) {
    const auto ub = static_cast<std::size_t>(b);
    for (std::uint32_t p = buckets.begin[ub]; p < buckets.end[ub]; ++p) {
      const double dist = std::abs(w.radiusAt(p) - radius);
      const NodeId node = w.nodeAt(p);
      // Tie-break on node id for determinism.
      if (dist < bestDist || (dist == bestDist && node < bestNode)) {
        bestDist = dist;
        bestBucket = b;
        bestPos = p;
        bestNode = node;
      }
    }
  }
  if (bestBucket < 0) return kNoPosition;
  return takeAt(w, buckets, bestBucket, bestPos);
}

/// Connect the given buckets under `root`: directly when they fit the
/// fan-out, through a cascade of relay points otherwise (the paper's
/// out-degree-2 construction, generalised to m-ary relays). Sub-segment
/// jobs for the next recursion level are pushed onto the job stack.
void connectBuckets(Workspace& w, Buckets& buckets,
                    std::span<const std::uint8_t> bucketIds, NodeId root,
                    double rootRadius, const RingSegment& segment, int depth) {
  if (static_cast<int>(bucketIds.size()) <= w.m) {
    for (const int b : bucketIds) {
      const auto ub = static_cast<std::size_t>(b);
      const std::uint32_t begin = buckets.begin[ub];
      if (buckets.end[ub] == begin) continue;  // drained by relay extraction
      // Representative: radius closest to the local source's radius.
      std::uint32_t repPos = begin;
      for (std::uint32_t p = begin + 1; p < buckets.end[ub]; ++p) {
        const double cur = std::abs(w.radiusAt(p) - rootRadius);
        const double best = std::abs(w.radiusAt(repPos) - rootRadius);
        if (cur < best || (cur == best && w.nodeAt(p) < w.nodeAt(repPos)))
          repPos = p;
      }
      const std::uint32_t rep = takeAt(w, buckets, b, repPos);
      const NodeId repNode = w.members[rep];
      w.tree.attach(repNode, root, EdgeKind::kLocal);
      w.stack.push_back(Job{repNode, w.polar[rep].radius,
                            segment.subsegment(b), begin, buckets.end[ub],
                            depth + 1});
      buckets.end[ub] = begin;  // the job owns the rest of the bucket
    }
    return;
  }

  // More buckets than fan-out: split them into m balanced contiguous groups
  // and delegate each group to a relay chosen (like the paper's
  // out-degree-2 version) with radius closest to the local source.
  const std::size_t total = bucketIds.size();
  const auto groups = static_cast<std::size_t>(w.m);
  std::size_t begin = 0;
  for (std::size_t g = 0; g < groups && begin < total; ++g) {
    const std::size_t size = (total - begin + (groups - g) - 1) / (groups - g);
    const std::span<const std::uint8_t> group = bucketIds.subspan(begin, size);
    begin += size;
    const std::uint32_t relay =
        extractClosestRadius(w, buckets, group, rootRadius);
    if (relay == kNoPosition) continue;  // nothing left in this group
    w.tree.attach(w.members[relay], root, EdgeKind::kLocal);
    connectBuckets(w, buckets, group, w.members[relay], w.polar[relay].radius,
                   segment, depth);
  }
}

void processJob(Workspace& w, const Job& job) {
  const std::uint32_t size = job.end - job.begin;
  if (size == 0) return;
  if (size <= static_cast<std::uint32_t>(w.m)) {
    for (std::uint32_t p = job.begin; p < job.end; ++p)
      w.tree.attach(w.nodeAt(p), job.root, EdgeKind::kLocal);
    return;
  }
  const double scale = 1.0 + job.segment.radial().hi;
  if (job.depth > kMaxDepth || job.segment.extentMeasure() < 1e-12 * scale) {
    attachFan(w, job.root, job.begin, job.end);
    return;
  }

  // Stable counting sort of the range by sub-segment, so every bucket
  // lists its members in range order.
  const auto count = static_cast<std::size_t>(job.segment.subsegmentCount());
  Buckets buckets;
  std::fill_n(buckets.end.begin(), count, 0u);  // per-bucket sizes first
  for (std::uint32_t p = job.begin; p < job.end; ++p) {
    const int b = job.segment.subsegmentIndex(w.polar[w.order[p]]);
    w.sub[p] = static_cast<std::uint8_t>(b);
    ++buckets.end[static_cast<std::size_t>(b)];
  }
  std::uint32_t offset = job.begin;
  for (std::size_t b = 0; b < count; ++b) {
    const std::uint32_t bucketSize = buckets.end[b];
    buckets.begin[b] = offset;
    buckets.end[b] = offset;
    offset += bucketSize;
  }
  for (std::uint32_t p = job.begin; p < job.end; ++p)
    w.scratch[buckets.end[w.sub[p]]++] = w.order[p];
  std::copy(w.scratch.begin() + job.begin, w.scratch.begin() + job.end,
            w.order.begin() + job.begin);

  std::array<std::uint8_t, kMaxSubsegments> nonEmpty;
  std::size_t occupied = 0;
  for (std::size_t b = 0; b < count; ++b) {
    if (buckets.end[b] > buckets.begin[b])
      nonEmpty[occupied++] = static_cast<std::uint8_t>(b);
  }
  connectBuckets(w, buckets,
                 std::span<const std::uint8_t>(nonEmpty.data(), occupied),
                 job.root, job.rootRadius, job.segment, job.depth);
}

}  // namespace

void bisectConnect(MulticastTree& tree, std::span<const NodeId> members,
                   std::span<const PolarCoords> memberPolar, NodeId rootNode,
                   double rootRadius, const RingSegment& segment,
                   int maxChildren) {
  OMT_CHECK(maxChildren >= 2, "fan-out must be at least 2");
  OMT_CHECK(members.size() == memberPolar.size(),
            "one polar coordinate per member required");
  if (members.empty()) return;
  OMT_CHECK(members.size() < kNoPosition, "too many members for one call");

  // One add per invocation/member keeps these deterministic under the
  // parallel per-cell callers. No span here: a span per cell would swamp
  // the trace at production sizes.
  {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& connects =
        registry.counter("omt_bisection_connects_total");
    static obs::Counter& connected =
        registry.counter("omt_bisection_members_total");
    connects.add();
    connected.add(static_cast<std::int64_t>(members.size()));
  }

  for (const PolarCoords& polar : memberPolar) {
    OMT_CHECK(segment.contains(polar, 1e-9 * (1.0 + segment.radial().hi)),
              "member outside the bisection segment");
  }

  // Per-call scratch comes from this thread's arena and the job stack is
  // kept per thread, so after warm-up a call allocates nothing.
  thread_local std::vector<Job> jobStack;
  ScratchArena& arena = workerArena();
  ScratchArena::Scope scope(arena);
  const auto count = static_cast<std::uint32_t>(members.size());
  Workspace w{.tree = tree,
              .members = members,
              .polar = memberPolar,
              .order = arena.alloc<std::uint32_t>(count),
              .scratch = arena.alloc<std::uint32_t>(count),
              .sub = arena.alloc<std::uint8_t>(count),
              .stack = jobStack,
              .m = maxChildren};
  std::iota(w.order.begin(), w.order.end(), 0u);
  w.stack.clear();  // a call that threw may have left jobs behind
  w.stack.push_back(Job{rootNode, rootRadius, segment, 0, count, 0});
  while (!w.stack.empty()) {
    const Job job = w.stack.back();
    w.stack.pop_back();
    processJob(w, job);
  }
}

BisectionTreeResult buildBisectionTree(std::span<const Point> points,
                                       NodeId source,
                                       const BisectionTreeOptions& options) {
  const auto n = static_cast<NodeId>(points.size());
  OMT_CHECK(n >= 1, "empty point set");
  OMT_CHECK(source >= 0 && source < n, "source index out of range");
  OMT_CHECK(options.maxOutDegree >= 2, "out-degree cap must be at least 2");
  const int d = points.front().dim();

  const obs::TraceSpan span("build_bisection_tree", "bisection");
  BisectionTreeResult result{.tree = MulticastTree(n, source),
                             .ringCenter = Point(d)};
  result.ringCenter = farRingCenter(points);
  const RingSegment segment = tightSegment(points, result.ringCenter);

  std::vector<PolarCoords> polar(points.size());
  const int workers = resolveWorkers(options.workers);
  // Batched conversion: the same doubles as per-point toPolar.
  parallelForChunks(0, n, workers, [&](std::int64_t lo, std::int64_t hi, int) {
    ScratchArena& arena = workerArena();
    ScratchArena::Scope scope(arena);
    const auto ulo = static_cast<std::size_t>(lo);
    const auto len = static_cast<std::size_t>(hi - lo);
    kernels::PolarLanes lanes;
    lanes.radius = arena.alloc<double>(len);
    for (int j = 0; j < d - 1; ++j)
      lanes.cube[static_cast<std::size_t>(j)] = arena.alloc<double>(len);
    kernels::polarOfPointsBatch(
        points.subspan(ulo, len), result.ringCenter, lanes,
        std::span<PolarCoords>(polar).subspan(ulo, len));
  });

  // Every point but the source, in index order; the source's polar entry
  // is erased in place rather than copying the rest.
  const double q = polar[static_cast<std::size_t>(source)].radius;
  polar.erase(polar.begin() + source);
  std::vector<NodeId> members(points.size() - 1);
  std::iota(members.begin(), members.begin() + source, NodeId{0});
  std::iota(members.begin() + source, members.end(), source + 1);
  bisectConnect(result.tree, members, polar, source, q, segment,
                options.maxOutDegree);
  result.tree.finalize();

  const double r = segment.radial().lo;
  const double bigR = segment.radial().hi;
  const double a = segment.angleSpan();
  result.segmentInnerRadius = r;
  result.segmentOuterRadius = bigR;
  result.segmentAngle = a;
  result.sourceRadius = q;
  const double radialTerm = std::max(bigR - q, q - r);
  result.pathBound =
      radialTerm + 2.0 * relayLayers(d, options.maxOutDegree) * bigR * a;
  result.lowerBound =
      std::max({radialTerm, r * std::sin(std::min(a, 1.0))});
  return result;
}

}  // namespace omt
