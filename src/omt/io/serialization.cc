#include "omt/io/serialization.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "omt/common/error.h"

namespace omt {
namespace {

constexpr int kFormatVersion = 1;

/// Next non-empty, non-comment line; false at EOF.
bool nextRecord(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto firstNonSpace = line.find_first_not_of(" \t\r");
    if (firstNonSpace == std::string::npos) continue;
    if (line[firstNonSpace] == '#') continue;
    return true;
  }
  return false;
}

std::ifstream openInput(const std::string& path) {
  std::ifstream in(path);
  OMT_CHECK(in.good(), "cannot open " + path + " for reading");
  return in;
}

std::ofstream openOutput(const std::string& path) {
  std::ofstream out(path);
  OMT_CHECK(out.good(), "cannot open " + path + " for writing");
  return out;
}

}  // namespace

void savePoints(std::ostream& out, std::span<const Point> points) {
  OMT_CHECK(!points.empty(), "refusing to save an empty point set");
  const int dim = points.front().dim();
  out << "omt-points " << kFormatVersion << ' ' << points.size() << ' '
      << dim << '\n';
  out << std::setprecision(17);
  for (const Point& p : points) {
    OMT_CHECK(p.dim() == dim, "mixed dimensions in point set");
    for (int c = 0; c < dim; ++c) {
      if (c > 0) out << ' ';
      out << p[c];
    }
    out << '\n';
  }
  OMT_CHECK(out.good(), "write failure while saving points");
}

std::vector<Point> loadPoints(std::istream& in) {
  std::string line;
  OMT_CHECK(nextRecord(in, line), "missing points header");
  std::istringstream header(line);
  std::string magic;
  int version = 0;
  std::int64_t n = 0;
  int dim = 0;
  header >> magic >> version >> n >> dim;
  OMT_CHECK(!header.fail() && magic == "omt-points",
            "not an omt-points stream");
  OMT_CHECK(version == kFormatVersion, "unsupported points format version");
  OMT_CHECK(n >= 1, "point count must be positive");
  OMT_CHECK(dim >= 1 && dim <= kMaxDim, "dimension out of range");

  // Storage grows with the records actually read, never from the header's
  // count, which a hostile or corrupt stream can set to anything.
  std::vector<Point> points;
  for (std::int64_t i = 0; i < n; ++i) {
    OMT_CHECK(nextRecord(in, line),
              "truncated points stream at record " + std::to_string(i));
    std::istringstream row(line);
    Point p(dim);
    for (int c = 0; c < dim; ++c) {
      row >> p[c];
      OMT_CHECK(!row.fail(),
                "malformed coordinate at record " + std::to_string(i));
    }
    points.push_back(p);
  }
  return points;
}

void saveTree(std::ostream& out, const MulticastTree& tree) {
  out << "omt-tree " << kFormatVersion << ' ' << tree.size() << ' '
      << tree.root() << '\n';
  for (NodeId v = 0; v < tree.size(); ++v) {
    const NodeId parent = tree.parentOf(v);
    const int kind =
        (v == tree.root() || parent == kNoNode)
            ? 1
            : (tree.edgeKindOf(v) == EdgeKind::kCore ? 0 : 1);
    out << parent << ' ' << kind << '\n';
  }
  OMT_CHECK(out.good(), "write failure while saving tree");
}

MulticastTree loadTree(std::istream& in) {
  std::string line;
  OMT_CHECK(nextRecord(in, line), "missing tree header");
  std::istringstream header(line);
  std::string magic;
  int version = 0;
  NodeId n = 0;
  NodeId root = kNoNode;
  header >> magic >> version >> n >> root;
  OMT_CHECK(!header.fail() && magic == "omt-tree", "not an omt-tree stream");
  OMT_CHECK(version == kFormatVersion, "unsupported tree format version");
  OMT_CHECK(n >= 1, "node count must be positive");
  OMT_CHECK(root >= 0 && root < n, "root out of range");

  // Read all n records before sizing the tree: its arrays follow the
  // header's count, and a truncated stream must fail on its missing
  // records, not on an allocation for records it never had.
  std::vector<NodeId> parents;
  std::vector<EdgeKind> kinds;
  for (NodeId v = 0; v < n; ++v) {
    OMT_CHECK(nextRecord(in, line),
              "truncated tree stream at node " + std::to_string(v));
    std::istringstream row(line);
    NodeId parent = kNoNode;
    int kind = 1;
    row >> parent >> kind;
    OMT_CHECK(!row.fail(), "malformed tree record " + std::to_string(v));
    OMT_CHECK(kind == 0 || kind == 1, "unknown edge kind");
    if (v == root) {
      OMT_CHECK(parent == kNoNode, "root must have parent -1");
    } else {
      OMT_CHECK(parent >= 0 && parent < n,
                "parent out of range at node " + std::to_string(v));
      OMT_CHECK(parent != v, "self-loop");
    }
    parents.push_back(parent);
    kinds.push_back(kind == 0 ? EdgeKind::kCore : EdgeKind::kLocal);
  }

  MulticastTree tree(n, root);
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    tree.attach(v, parents[static_cast<std::size_t>(v)],
                kinds[static_cast<std::size_t>(v)]);
  }
  tree.finalize();
  return tree;
}

void saveSessionSnapshot(std::ostream& out, const MulticastTree& tree,
                         std::span<const NodeId> sessionIds,
                         std::span<const Point> positions) {
  OMT_CHECK(static_cast<std::size_t>(tree.size()) == sessionIds.size() &&
                sessionIds.size() == positions.size(),
            "snapshot components disagree on the host count");
  out << "omt-session " << kFormatVersion << ' ' << sessionIds.size() << '\n';
  for (const NodeId id : sessionIds) {
    OMT_CHECK(id >= 0, "negative session id");
    out << id << '\n';
  }
  saveTree(out, tree);
  savePoints(out, positions);
  OMT_CHECK(out.good(), "write failure while saving session snapshot");
}

LoadedSessionSnapshot loadSessionSnapshot(std::istream& in) {
  std::string line;
  OMT_CHECK(nextRecord(in, line), "missing session header");
  std::istringstream header(line);
  std::string magic;
  int version = 0;
  std::int64_t n = 0;
  header >> magic >> version >> n;
  OMT_CHECK(!header.fail() && magic == "omt-session",
            "not an omt-session stream");
  OMT_CHECK(version == kFormatVersion, "unsupported session format version");
  OMT_CHECK(n >= 1, "session host count must be positive");

  std::vector<NodeId> sessionIds;  // grows with the records read
  for (std::int64_t i = 0; i < n; ++i) {
    OMT_CHECK(nextRecord(in, line),
              "truncated session stream at id " + std::to_string(i));
    std::istringstream row(line);
    NodeId id = kNoNode;
    row >> id;
    OMT_CHECK(!row.fail() && id >= 0,
              "malformed session id at record " + std::to_string(i));
    sessionIds.push_back(id);
  }

  LoadedSessionSnapshot snapshot{.tree = loadTree(in),
                                 .sessionIds = std::move(sessionIds),
                                 .positions = loadPoints(in)};
  OMT_CHECK(static_cast<std::int64_t>(snapshot.tree.size()) == n &&
                static_cast<std::int64_t>(snapshot.positions.size()) == n,
            "session snapshot components disagree on the host count");
  return snapshot;
}

void savePointsFile(const std::string& path, std::span<const Point> points) {
  auto out = openOutput(path);
  savePoints(out, points);
}

std::vector<Point> loadPointsFile(const std::string& path) {
  auto in = openInput(path);
  return loadPoints(in);
}

void saveTreeFile(const std::string& path, const MulticastTree& tree) {
  auto out = openOutput(path);
  saveTree(out, tree);
}

MulticastTree loadTreeFile(const std::string& path) {
  auto in = openInput(path);
  return loadTree(in);
}

void saveSessionSnapshotFile(const std::string& path,
                             const MulticastTree& tree,
                             std::span<const NodeId> sessionIds,
                             std::span<const Point> positions) {
  auto out = openOutput(path);
  saveSessionSnapshot(out, tree, sessionIds, positions);
}

LoadedSessionSnapshot loadSessionSnapshotFile(const std::string& path) {
  auto in = openInput(path);
  return loadSessionSnapshot(in);
}

}  // namespace omt
