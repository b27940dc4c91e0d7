#include "omt/grid/polar_grid.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "omt/common/error.h"

namespace omt {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

}  // namespace

PolarGrid::PolarGrid(int dim, int rings, double outerRadius)
    : dim_(dim), rings_(rings), outerRadius_(outerRadius) {
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "grid dimension out of range");
  OMT_CHECK(rings >= 1 && rings <= kMaxRings, "ring count out of range");
  OMT_CHECK(outerRadius > 0.0, "outer radius must be positive");
}

double PolarGrid::ringRadius(int i) const {
  OMT_ASSERT(i >= 0 && i <= rings_, "ring index out of range");
  // r_i = R * 2^{-(k - i)/d}; exact at i == rings.
  return outerRadius_ *
         std::exp2(-static_cast<double>(rings_ - i) / static_cast<double>(dim_));
}

int PolarGrid::ringOf(double radius) const {
  OMT_CHECK(radius >= 0.0, "negative radius");
  OMT_CHECK(radius <= outerRadius_ * (1.0 + 1e-9) + kGeomEps,
            "radius outside the grid");
  if (radius <= 0.0) return 0;
  // Solve radius <= r_i for the smallest i, then fix up against the exact
  // boundary values to keep assignment consistent with ringRadius().
  const double x = static_cast<double>(rings_) +
                   static_cast<double>(dim_) * std::log2(radius / outerRadius_);
  int i = static_cast<int>(std::ceil(x));
  i = std::max(0, std::min(rings_, i));
  while (i > 0 && radius <= ringRadius(i - 1)) --i;
  while (i < rings_ && radius > ringRadius(i)) ++i;
  return i;
}

std::uint64_t PolarGrid::cellOf(const PolarCoords& polar, int ring) const {
  OMT_ASSERT(polar.dim == dim_, "dimension mismatch");
  OMT_ASSERT(ring >= 0 && ring <= rings_, "ring index out of range");
  std::uint64_t cell = 0;
  std::array<double, kMaxDim - 1> frac = polar.cube;
  const int axes = dim_ - 1;
  for (int s = 0; s < ring; ++s) {
    auto& f = frac[static_cast<std::size_t>(s % axes)];
    f *= 2.0;
    std::uint64_t bit = 0;
    if (f >= 1.0) {
      bit = 1;
      f = std::min(f - 1.0, 1.0);  // clamp guards u == 1.0 exactly
    }
    cell = (cell << 1) | bit;
  }
  return cell;
}

std::uint64_t PolarGrid::heapId(int ring, std::uint64_t cell) const {
  OMT_ASSERT(ring >= 0 && ring <= rings_, "ring index out of range");
  OMT_ASSERT(cell < cellsInRing(ring), "cell index out of range");
  return ring == 0 ? 1 : (std::uint64_t{1} << ring) + cell;
}

int PolarGrid::ringOfHeapId(std::uint64_t id) const {
  OMT_ASSERT(id >= 1 && id < heapIdCount(), "heap id out of range");
  return std::bit_width(id) - 1;
}

std::uint64_t PolarGrid::cellOfHeapId(std::uint64_t id) const {
  const int ring = ringOfHeapId(id);
  return id - (std::uint64_t{1} << ring);
}

RingSegment PolarGrid::cellSegment(int ring, std::uint64_t cell) const {
  OMT_ASSERT(ring >= 0 && ring <= rings_, "ring index out of range");
  OMT_ASSERT(cell < cellsInRing(ring), "cell index out of range");

  const Interval radial{ring == 0 ? 0.0 : ringRadius(ring - 1),
                        ringRadius(ring)};
  std::array<Interval, kMaxDim - 1> cube;
  const int axes = dim_ - 1;
  for (int j = 0; j < axes; ++j)
    cube[static_cast<std::size_t>(j)] = Interval{0.0, 1.0};
  for (int s = 0; s < ring; ++s) {
    const int bit = static_cast<int>((cell >> (ring - 1 - s)) & 1);
    auto& iv = cube[static_cast<std::size_t>(s % axes)];
    iv = iv.half(bit);
  }
  return RingSegment(
      dim_, radial,
      std::span<const Interval>(cube.data(), static_cast<std::size_t>(axes)));
}

PolarCoords PolarGrid::arcMidpoint(int ring, std::uint64_t cell,
                                   bool outer) const {
  const RingSegment segment = cellSegment(ring, cell);
  PolarCoords mid;
  mid.dim = dim_;
  mid.radius = outer ? segment.radial().hi : segment.radial().lo;
  for (int j = 0; j < segment.cubeAxes(); ++j) {
    double m = segment.cubeAxis(j).mid();
    if (j == azimuthAxis(dim_)) m -= std::floor(m);  // wrap into [0, 1)
    mid.cube[static_cast<std::size_t>(j)] = m;
  }
  return mid;
}

PolarGrid PolarGrid::afterSplit() const {
  OMT_CHECK(rings_ < kMaxRings, "split exceeds kMaxRings");
  return PolarGrid(dim_, rings_ + 1, outerRadius_);
}

PolarGrid PolarGrid::afterMerge() const {
  OMT_CHECK(rings_ >= 2, "merge needs at least two rings");
  return PolarGrid(dim_, rings_ - 1, outerRadius_);
}

PolarGrid PolarGrid::afterExtend(int extraRings) const {
  OMT_CHECK(extraRings >= 1, "extend needs at least one extra ring");
  OMT_CHECK(rings_ + extraRings <= kMaxRings, "extend exceeds kMaxRings");
  const double grown =
      outerRadius_ *
      std::exp2(static_cast<double>(extraRings) / static_cast<double>(dim_));
  return PolarGrid(dim_, rings_ + extraRings, grown);
}

std::uint64_t PolarGrid::splitTargetOf(std::uint64_t id,
                                       const PolarCoords& polar,
                                       double radius) const {
  const int ring = ringOfHeapId(id);
  if (ring == 0) {
    // The old central ball covers new rings 0 and 1: the new r'_0 equals
    // this grid's would-be boundary below r_0.
    const double innerBoundary =
        outerRadius_ * std::exp2(-static_cast<double>(rings_ + 1) /
                                 static_cast<double>(dim_));
    if (radius <= innerBoundary) return 1;
    return 2 + (cellOf(polar, 1) & 1);
  }
  // One more angular bit; the top `ring` bits are the old cell, so the new
  // heap id is 2*id + lastBit. The bit is evaluated against the split grid
  // (ring + 1 exceeds this grid's ring range for outermost-ring cells).
  return (id << 1) | (afterSplit().cellOf(polar, ring + 1) & 1);
}

std::uint64_t PolarGrid::mergeTargetOf(std::uint64_t id) const {
  OMT_ASSERT(id >= 1 && id < heapIdCount(), "heap id out of range");
  return id <= 3 ? 1 : id >> 1;
}

double PolarGrid::arcLength(int ring) const {
  OMT_ASSERT(ring >= 0 && ring <= rings_, "ring index out of range");
  // Azimuth axis receives ceil((ring - azimuthAxis) / axes) of the `ring`
  // splits; in 2D that is all of them, giving the paper's 2*pi*r_i / 2^i.
  const int axes = dim_ - 1;
  const int az = azimuthAxis(dim_);
  int azSplits = 0;
  for (int s = 0; s < ring; ++s) {
    if (s % axes == az) ++azSplits;
  }
  return kTwoPi * ringRadius(ring) / std::exp2(azSplits);
}

}  // namespace omt
