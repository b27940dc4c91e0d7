#include "omt/io/serialization.h"

#include <sstream>

#include <gtest/gtest.h>

#include "omt/core/polar_grid_tree.h"
#include "omt/protocol/overlay_session.h"
#include "omt/random/samplers.h"
#include "omt/tree/validation.h"

namespace omt {
namespace {

TEST(PointsIoTest, RoundTripPreservesCoordinatesExactly) {
  Rng rng(1);
  const auto points = sampleDiskWithCenterSource(rng, 200, 3);
  std::stringstream stream;
  savePoints(stream, points);
  const auto loaded = loadPoints(stream);
  ASSERT_EQ(loaded.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(loaded[i], points[i]) << "point " << i;  // bit-exact (%.17g)
  }
}

TEST(PointsIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream stream;
  stream << "# a workload\n\nomt-points 1 2 2\n# first\n1.5 2.5\n\n-1 0\n";
  const auto loaded = loadPoints(stream);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], (Point{1.5, 2.5}));
  EXPECT_EQ(loaded[1], (Point{-1.0, 0.0}));
}

TEST(PointsIoTest, RejectsMalformedInput) {
  const auto load = [](const std::string& text) {
    std::stringstream stream(text);
    return loadPoints(stream);
  };
  EXPECT_THROW(load(""), InvalidArgument);
  EXPECT_THROW(load("not-points 1 1 2\n0 0\n"), InvalidArgument);
  EXPECT_THROW(load("omt-points 9 1 2\n0 0\n"), InvalidArgument);  // version
  EXPECT_THROW(load("omt-points 1 0 2\n"), InvalidArgument);       // n = 0
  EXPECT_THROW(load("omt-points 1 1 99\n0 0\n"), InvalidArgument); // dim
  EXPECT_THROW(load("omt-points 1 2 2\n0 0\n"), InvalidArgument);  // short
  EXPECT_THROW(load("omt-points 1 1 2\n0 abc\n"), InvalidArgument);
}

TEST(PointsIoTest, HugeHeaderCountIsTruncationNotAllocation) {
  // 2^40 points would take 72 TiB; two records must end in the typed
  // truncation error, not in an allocation sized from the header.
  std::stringstream stream("omt-points 1 1099511627776 2\n0 0\n1 1\n");
  EXPECT_THROW(loadPoints(stream), InvalidArgument);
}

TEST(PointsIoTest, RefusesEmptySave) {
  std::stringstream stream;
  EXPECT_THROW(savePoints(stream, {}), InvalidArgument);
}

TEST(TreeIoTest, RoundTripPreservesStructureAndKinds) {
  Rng rng(2);
  const auto points = sampleDiskWithCenterSource(rng, 500, 2);
  const PolarGridResult built = buildPolarGridTree(points, 0);
  std::stringstream stream;
  saveTree(stream, built.tree);
  const MulticastTree loaded = loadTree(stream);
  ASSERT_EQ(loaded.size(), built.tree.size());
  EXPECT_EQ(loaded.root(), built.tree.root());
  for (NodeId v = 0; v < loaded.size(); ++v) {
    EXPECT_EQ(loaded.parentOf(v), built.tree.parentOf(v));
    if (v != loaded.root()) {
      EXPECT_EQ(loaded.edgeKindOf(v), built.tree.edgeKindOf(v));
    }
  }
  EXPECT_TRUE(validate(loaded, {.maxOutDegree = 6}));
}

TEST(TreeIoTest, RejectsMalformedInput) {
  const auto load = [](const std::string& text) {
    std::stringstream stream(text);
    return loadTree(stream);
  };
  EXPECT_THROW(load(""), InvalidArgument);
  EXPECT_THROW(load("omt-tree 1 2 5\n-1 1\n0 1\n"), InvalidArgument);  // root
  EXPECT_THROW(load("omt-tree 1 2 0\n0 1\n0 1\n"), InvalidArgument);  // root parent
  EXPECT_THROW(load("omt-tree 1 2 0\n-1 1\n7 1\n"), InvalidArgument);  // range
  EXPECT_THROW(load("omt-tree 1 2 0\n-1 1\n0 9\n"), InvalidArgument);  // kind
  EXPECT_THROW(load("omt-tree 1 3 0\n-1 1\n0 1\n"), InvalidArgument);  // short
  EXPECT_THROW(load("omt-tree 1 2 0\n-1 1\n1 1\n"), InvalidArgument);  // self
}

TEST(TreeIoTest, HugeHeaderCountIsTruncationNotAllocation) {
  // A tree of 2^40 nodes would take about 18 TiB; the loader must read the
  // records before it sizes the tree.
  std::stringstream stream("omt-tree 1 1099511627776 0\n-1 1\n0 1\n");
  EXPECT_THROW(loadTree(stream), InvalidArgument);
}

TEST(TreeIoTest, LoadedCycleFailsValidationNotLoading) {
  // 1 <-> 2 cycle: structurally loadable, caught by validate().
  std::stringstream stream("omt-tree 1 3 0\n-1 1\n2 1\n1 1\n");
  const MulticastTree tree = loadTree(stream);
  const ValidationResult valid = validate(tree);
  EXPECT_FALSE(valid.ok);
}

TEST(FileIoTest, FileRoundTrip) {
  Rng rng(3);
  const auto points = sampleDiskWithCenterSource(rng, 100, 2);
  const std::string dir = ::testing::TempDir();
  savePointsFile(dir + "/omt_points_test.txt", points);
  const auto loaded = loadPointsFile(dir + "/omt_points_test.txt");
  EXPECT_EQ(loaded, points);

  const PolarGridResult built = buildPolarGridTree(points, 0);
  saveTreeFile(dir + "/omt_tree_test.txt", built.tree);
  const MulticastTree tree = loadTreeFile(dir + "/omt_tree_test.txt");
  EXPECT_EQ(tree.size(), built.tree.size());
  EXPECT_THROW(loadPointsFile(dir + "/does_not_exist.txt"), InvalidArgument);
}

/// A small deterministic churned session: joins, leaves, and repaired
/// crashes with a fixed seed, so its snapshot is reproducible bit-for-bit.
SessionSnapshot churnedSnapshot() {
  Rng rng(77);
  SessionOptions options;
  options.maxOutDegree = 4;
  OverlaySession session(Point{0.0, 0.0}, options);
  std::vector<NodeId> live;
  for (int step = 0; step < 400; ++step) {
    const double dice = rng.uniform();
    if (live.size() < 20 || dice < 0.55) {
      live.push_back(session.join(sampleUnitBall(rng, 2)));
    } else if (dice < 0.8) {
      const std::size_t pick = rng.uniformInt(live.size());
      session.leave(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::size_t pick = rng.uniformInt(live.size());
      session.crash(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  session.detectAndRepair();
  return session.snapshot();
}

TEST(SessionIoTest, RoundTripPreservesAllComponents) {
  const SessionSnapshot snap = churnedSnapshot();
  std::stringstream stream;
  saveSessionSnapshot(stream, snap.tree, snap.sessionIds, snap.positions);
  const LoadedSessionSnapshot loaded = loadSessionSnapshot(stream);

  ASSERT_EQ(loaded.tree.size(), snap.tree.size());
  EXPECT_EQ(loaded.tree.root(), snap.tree.root());
  for (NodeId v = 0; v < loaded.tree.size(); ++v) {
    EXPECT_EQ(loaded.tree.parentOf(v), snap.tree.parentOf(v));
    if (v != loaded.tree.root()) {
      EXPECT_EQ(loaded.tree.edgeKindOf(v), snap.tree.edgeKindOf(v));
    }
  }
  ASSERT_EQ(loaded.sessionIds.size(), snap.sessionIds.size());
  ASSERT_EQ(loaded.positions.size(), snap.positions.size());
  for (std::size_t i = 0; i < snap.sessionIds.size(); ++i) {
    EXPECT_EQ(loaded.sessionIds[i], snap.sessionIds[i]) << "index " << i;
    EXPECT_EQ(loaded.positions[i], snap.positions[i]) << "index " << i;
  }
  EXPECT_TRUE(validate(loaded.tree, {.maxOutDegree = 4}));
}

TEST(SessionIoTest, FileRoundTrip) {
  const SessionSnapshot snap = churnedSnapshot();
  const std::string path =
      ::testing::TempDir() + "/omt_session_snapshot_test.txt";
  saveSessionSnapshotFile(path, snap.tree, snap.sessionIds, snap.positions);
  const LoadedSessionSnapshot loaded = loadSessionSnapshotFile(path);
  EXPECT_EQ(loaded.sessionIds, snap.sessionIds);
  EXPECT_EQ(loaded.tree.size(), snap.tree.size());
  EXPECT_THROW(loadSessionSnapshotFile(::testing::TempDir() + "/missing.txt"),
               InvalidArgument);
}

TEST(SessionIoTest, RejectsMalformedInput) {
  const auto load = [](const std::string& text) {
    std::stringstream stream(text);
    return loadSessionSnapshot(stream);
  };
  EXPECT_THROW(load(""), InvalidArgument);
  EXPECT_THROW(load("omt-tree 1 1 0\n-1 1\n"), InvalidArgument);  // not a session
  EXPECT_THROW(load("omt-session 9 1\n0\nomt-tree 1 1 0\n-1 1\n"
                    "omt-points 1 1 2\n0 0\n"),
               InvalidArgument);  // version
  EXPECT_THROW(load("omt-session 1 1\n-3\nomt-tree 1 1 0\n-1 1\n"
                    "omt-points 1 1 2\n0 0\n"),
               InvalidArgument);  // negative session id
  EXPECT_THROW(load("omt-session 1 2\n0\n1\nomt-tree 1 1 0\n-1 1\n"
                    "omt-points 1 1 2\n0 0\n"),
               InvalidArgument);  // tree size disagrees with n
  EXPECT_THROW(load("omt-session 1 1\n0\nomt-tree 1 1 0\n-1 1\n"
                    "omt-points 1 2 2\n0 0\n1 1\n"),
               InvalidArgument);  // points count disagrees with n
}

TEST(SessionIoTest, HugeHeaderCountIsTruncationNotAllocation) {
  std::stringstream stream("omt-session 1 1099511627776\n5\n6\n");
  EXPECT_THROW(loadSessionSnapshot(stream), InvalidArgument);
}

/// FNV-1a over the snapshot's structural content (session ids, parents in
/// tree-index space, edge kinds) — the golden fingerprint below pins the
/// save/load/churn pipeline end to end.
std::uint64_t fingerprint(const LoadedSessionSnapshot& snap) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  for (NodeId v = 0; v < snap.tree.size(); ++v) {
    mix(snap.sessionIds[static_cast<std::size_t>(v)]);
    mix(snap.tree.parentOf(v));
    mix(v == snap.tree.root()
            ? -1
            : static_cast<std::int64_t>(snap.tree.edgeKindOf(v)));
  }
  return hash;
}

TEST(SessionIoTest, GoldenFingerprintIsStable) {
  // Churned session -> snapshot -> text -> loaded: the structural
  // fingerprint must never drift without a deliberate format or protocol
  // change (update the constant when one happens, with a CHANGES.md note).
  const SessionSnapshot snap = churnedSnapshot();
  std::stringstream stream;
  saveSessionSnapshot(stream, snap.tree, snap.sessionIds, snap.positions);
  const LoadedSessionSnapshot loaded = loadSessionSnapshot(stream);
  EXPECT_EQ(fingerprint(loaded), 0x5f87d4c42151bae9ULL);
}

}  // namespace
}  // namespace omt
