// The polar grid of Algorithm Polar_Grid (Section III-A, generalised to any
// dimension per Section IV-B).
//
// A grid with k rings over outer radius R in dimension d consists of:
//  * ring 0 — the central ball of radius r_0, a single cell holding the
//    source;
//  * rings i = 1..k — the shells between boundary radii r_{i-1} and r_i,
//    where r_i = R * 2^{-(k-i)/d} (each shell has twice the volume of the
//    previous one; for d = 2 this is the paper's r_i = 1/sqrt(2)^{k-i});
//  * ring i is divided into 2^i equal-volume cells by i binary splits of the
//    angular cube (axis cycling), so every cell of every ring has the same
//    volume and each ring-i cell is aligned with exactly two ring-(i+1)
//    cells — the paper's grid properties 1) and 2).
//
// Cells are addressed by *heap ids*: ring 0's cell is id 1 and ring-i cell c
// is id 2^i + c, so the two aligned children of id h are 2h and 2h+1 and the
// parent is h/2 — exactly the core-network topology of Section III-B.
#pragma once

#include <cstdint>

#include "omt/common/types.h"
#include "omt/geometry/angular_cube.h"
#include "omt/geometry/ring_segment.h"

namespace omt {

class PolarGrid {
 public:
  /// Upper limit on k accepted by this implementation (heap ids use
  /// 2^(k+1) values; 40 rings is far beyond any realistic point count).
  static constexpr int kMaxRings = 40;

  PolarGrid(int dim, int rings, double outerRadius);

  int dim() const { return dim_; }
  int rings() const { return rings_; }
  double outerRadius() const { return outerRadius_; }

  /// Boundary radius r_i for i in [0, rings]; ringRadius(rings) is the
  /// outer radius R itself.
  double ringRadius(int i) const;

  /// Ring index of a radius: 0 if radius <= r_0, rings if radius is in the
  /// outermost shell; radius must be <= R (within rounding).
  int ringOf(double radius) const;

  std::uint64_t cellsInRing(int ring) const {
    return ring == 0 ? 1 : std::uint64_t{1} << ring;
  }

  /// Which ring-`ring` cell the direction of `polar` falls into (the first
  /// `ring` binary digits of its angular-cube coordinates, axis-cycled).
  /// Valid for any ring in [0, rings]; ring 0 always returns 0.
  std::uint64_t cellOf(const PolarCoords& polar, int ring) const;

  /// (ring, cell) -> heap id; ring 0 maps to id 1.
  std::uint64_t heapId(int ring, std::uint64_t cell) const;

  /// heap id -> ring (floor(log2(id))).
  int ringOfHeapId(std::uint64_t id) const;

  /// heap id -> cell within its ring.
  std::uint64_t cellOfHeapId(std::uint64_t id) const;

  /// One past the largest valid heap id (= 2^(rings+1)).
  std::uint64_t heapIdCount() const { return std::uint64_t{1} << (rings_ + 1); }

  /// The region of a cell as a RingSegment (ring 0 is the central ball).
  RingSegment cellSegment(int ring, std::uint64_t cell) const;

  /// Polar coordinates of the midpoint of a cell's inner (radius
  /// r_{ring-1}) or outer (r_ring) boundary arc, at the cell's angular
  /// centre, with the azimuth wrapped into [0, 1). The inner-arc midpoint
  /// anchors the cell's representative (Section III-B: the point "closest
  /// to the center on the inner arc of the segment"); the outer one is
  /// where next-ring relays aim, since the two child representatives sit
  /// on the cell's outer boundary. Callers pick the polar -> Cartesian
  /// conversion.
  PolarCoords arcMidpoint(int ring, std::uint64_t cell, bool outer) const;

  /// The paper's Delta_i (2D): arc length of one ring-i cell on its outer
  /// boundary circle, 2*pi*r_i / 2^i. Defined for every dimension as the
  /// azimuthal arc of a cell at the outer boundary radius.
  double arcLength(int ring) const;

  // --- Incremental maintenance algebra (ROADMAP item 3) -------------------
  //
  // Because r_i = R * 2^{-(k-i)/d}, the three structural moves below reuse
  // the existing boundary radii instead of re-deriving them, which is what
  // makes cell-local host relabelling sound:
  //  * split  (k -> k+1, R fixed): every old boundary r_i equals the new
  //    boundary r'_{i+1} *bitwise* (identical exp2 expression), so ring-i
  //    hosts land in ring i+1 and each cell gains one angular bit;
  //  * merge  (k -> k-1, R fixed): the inverse; sibling cells 2h and 2h+1
  //    coalesce into h, rings 0..1 collapse into the new central ball;
  //  * extend (k -> k+j, R -> R * 2^{j/d}): every existing boundary keeps
  //    its value (up to fp ulps) and every existing heap id is unchanged —
  //    j fresh outer shells are appended, no host moves at all.

  /// The k+1-ring grid over the same outer radius.
  PolarGrid afterSplit() const;

  /// The k-1-ring grid over the same outer radius; requires rings() >= 2.
  PolarGrid afterMerge() const;

  /// The k+extraRings grid whose inner boundaries coincide with this grid's
  /// (outer radius grows by 2^{extraRings/d}); extraRings >= 1.
  PolarGrid afterExtend(int extraRings) const;

  /// Heap id of the cell a host moves to under afterSplit(). `polar` and
  /// `radius` describe the host; `id` is its current cell. Ring-0 hosts
  /// split radially into {1, 2, 3}; all others map to 2*id or 2*id + 1.
  std::uint64_t splitTargetOf(std::uint64_t id, const PolarCoords& polar,
                              double radius) const;

  /// Heap id of the cell a host moves to under afterMerge(): 1 for ids
  /// 1..3, id/2 otherwise.
  std::uint64_t mergeTargetOf(std::uint64_t id) const;

 private:
  int dim_;
  int rings_;
  double outerRadius_;
};

}  // namespace omt
