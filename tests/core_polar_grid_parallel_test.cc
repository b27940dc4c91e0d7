// Determinism suite for the parallel Polar_Grid construction pipeline: the
// tree built with any worker count must be byte-identical — same parents,
// edge kinds, and out-degrees — to the workers=1 build, across dimensions,
// degree policies, sizes, and thread counts (including counts above the
// hardware's). The grid-level outputs (coreEdgeCount, occupiedCells, the
// eq. (7) bound) must match too. Under OMT_SANITIZE this doubles as the
// race detector for the per-cell wiring partitioning.
//
// A build runs on at most one worker per kPointsPerWorker points, so the
// cases of n <= 1,000 run on one worker whatever they request, and the
// 20,000-point cases are the ones that run 2, 7 and 16 workers at every
// degree.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "omt/core/polar_grid_tree.h"
#include "omt/grid/assignment.h"
#include "omt/random/samplers.h"
#include "omt/tree/validation.h"

namespace omt {
namespace {

/// FNV-1a over parents, edge kinds, and out-degrees — strictly stronger
/// than the golden tests' parent-only fingerprint.
std::uint64_t fullFingerprint(const MulticastTree& tree) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (x >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  for (NodeId v = 0; v < tree.size(); ++v) {
    mix(static_cast<std::uint64_t>(tree.parentOf(v) + 1));
    mix(tree.attached(v) && v != tree.root()
            ? static_cast<std::uint64_t>(tree.edgeKindOf(v))
            : 0xffULL);
    mix(static_cast<std::uint64_t>(tree.outDegree(v)));
  }
  return hash;
}

void expectDeterministic(std::int64_t n, int dim, int degree,
                         std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Point> points = sampleDiskWithCenterSource(rng, n, dim);

  const PolarGridResult reference =
      buildPolarGridTree(points, 0, {.maxOutDegree = degree, .workers = 1});
  const ValidationResult valid =
      validate(reference.tree, {.maxOutDegree = degree});
  ASSERT_TRUE(valid.ok) << valid.message;
  const std::uint64_t want = fullFingerprint(reference.tree);

  for (const int workers : {2, 7, 16}) {
    const PolarGridResult got = buildPolarGridTree(
        points, 0, {.maxOutDegree = degree, .workers = workers});
    EXPECT_EQ(fullFingerprint(got.tree), want)
        << "n=" << n << " dim=" << dim << " degree=" << degree
        << " workers=" << workers;
    EXPECT_EQ(got.coreEdgeCount, reference.coreEdgeCount);
    EXPECT_EQ(got.occupiedCells, reference.occupiedCells);
    EXPECT_EQ(got.rings(), reference.rings());
    EXPECT_DOUBLE_EQ(got.upperBound, reference.upperBound);
  }
}

TEST(PolarGridParallelTest, TinyInputs) {
  expectDeterministic(1, 2, 6, 900);
  expectDeterministic(2, 2, 6, 901);
  expectDeterministic(37, 2, 6, 902);
  expectDeterministic(37, 3, 10, 903);
}

TEST(PolarGridParallelTest, TwoDimensionsAcrossDegrees) {
  for (const int degree : {2, 3, 6, 10}) {
    expectDeterministic(1000, 2, degree, 904);
    expectDeterministic(10000, 2, degree, 905);
  }
}

TEST(PolarGridParallelTest, ThreeDimensionsAcrossDegrees) {
  for (const int degree : {2, 3, 6, 10}) {
    expectDeterministic(1000, 3, degree, 906);
    expectDeterministic(10000, 3, degree, 907);
  }
}

TEST(PolarGridParallelTest, WorkerCountIsCappedBySize) {
  EXPECT_EQ(gridBuildWorkers(16, 100), 1);
  EXPECT_EQ(gridBuildWorkers(16, 1999), 1);
  EXPECT_EQ(gridBuildWorkers(16, 2000), 2);
  EXPECT_EQ(gridBuildWorkers(16, 7500), 7);
  EXPECT_EQ(gridBuildWorkers(16, 20000), 16);
  EXPECT_EQ(gridBuildWorkers(2, 1000000), 2);
}

TEST(PolarGridParallelTest, AboveTheWorkerCapAcrossDegrees) {
  for (const int degree : {2, 3, 6, 10}) {
    expectDeterministic(20000, 2, degree, 909);
    expectDeterministic(20000, 3, degree, 910);
  }
}

TEST(PolarGridParallelTest, LargeTwoDimensional) {
  expectDeterministic(100000, 2, 6, 908);
}

TEST(PolarGridParallelTest, MatchesGoldenFingerprintAnyWorkerCount) {
  // The parallel build must preserve the sequential golden behaviour, not
  // just internal consistency: pin one cross-check against the golden
  // suite's constant (parent-only FNV, see golden_test.cc).
  Rng rng(12345);
  const auto points = sampleDiskWithCenterSource(rng, 200, 2);
  for (const int workers : {1, 16}) {
    const auto result = buildPolarGridTree(
        points, 0, {.maxOutDegree = 6, .workers = workers});
    std::uint64_t hash = 1469598103934665603ULL;
    for (NodeId v = 0; v < result.tree.size(); ++v) {
      const auto x = static_cast<std::uint64_t>(result.tree.parentOf(v) + 1);
      for (int b = 0; b < 8; ++b) {
        hash ^= (x >> (8 * b)) & 0xff;
        hash *= 1099511628211ULL;
      }
    }
    EXPECT_EQ(hash, 0xbf78c6a4119ea1a0ULL) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace omt
