// DefaultInitVector's storage policy: a request of 2 MiB or more is its own
// huge-page-aligned mapping advised MADV_HUGEPAGE (std::allocator under
// AddressSanitizer), smaller ones come from std::allocator, and contents
// survive every move between the two through growth, shrinking, copies and
// moves.
#include "omt/common/default_init.h"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "omt/random/rng.h"
#include "omt/tree/multicast_tree.h"

namespace omt {
namespace {

bool hugePageAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

/// The VmFlags line of the /proc/self/smaps mapping holding `address`, or
/// nullopt when no mapping holds it.
std::optional<std::string> vmFlagsOf(const void* address) {
  const auto target = reinterpret_cast<std::uintptr_t>(address);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    // A mapping's header reads "start-end perms offset dev inode [path]";
    // its attribute lines ("Size:", "VmFlags:", ...) follow it.
    std::uintptr_t start = 0;
    std::uintptr_t end = 0;
    char dash = 0;
    std::istringstream header(line);
    if (header >> std::hex >> start >> dash >> end && dash == '-') {
      inside = start <= target && target < end;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return std::nullopt;
}

TEST(DefaultInitAllocatorTest, LargeRequestsStartOnHugePageBoundary) {
  if (!kMapLargeArrays)
    GTEST_SKIP() << "AddressSanitizer build: every request on its heap";
  DefaultInitAllocator<double> alloc;
  // Exactly one huge page, one element more, and a multi-page request; each
  // is writable up to its last element.
  for (const std::size_t n :
       {kHugePageBytes / sizeof(double), kHugePageBytes / sizeof(double) + 1,
        5 * kHugePageBytes / sizeof(double) + 3}) {
    double* p = alloc.allocate(n);
    EXPECT_TRUE(hugePageAligned(p)) << "n=" << n;
    p[0] = 1.0;
    p[n - 1] = 2.0;
    EXPECT_EQ(p[0] + p[n - 1], 3.0);
    alloc.deallocate(p, n);
  }
  // A request of other element sizes crosses the threshold at 2 MiB too.
  DefaultInitAllocator<std::uint8_t> bytes;
  std::uint8_t* b = bytes.allocate(kHugePageBytes);
  EXPECT_TRUE(hugePageAligned(b));
  bytes.deallocate(b, kHugePageBytes);
}

TEST(DefaultInitVectorTest, PushBackPastHugePageThenShrinkKeepsContents) {
  const auto value = [](std::size_t i) {
    return static_cast<std::int64_t>(i * 2654435761ULL % 1000003);
  };
  const std::size_t past = 3 * kHugePageBytes / sizeof(std::int64_t) / 2;
  DefaultInitVector<std::int64_t> v;
  for (std::size_t i = 0; i < past; ++i) v.push_back(value(i));
  ASSERT_EQ(v.size(), past);
  ASSERT_GT(v.capacity() * sizeof(std::int64_t), kHugePageBytes);
  const auto expectPrefix = [&](std::size_t size) {
    ASSERT_EQ(v.size(), size);
    for (std::size_t i = 0; i < size; ++i)
      ASSERT_EQ(v[i], value(i)) << "i=" << i << " size=" << size;
  };
  expectPrefix(past);

  // Mapped to a smaller mapping, then from a mapping to the heap.
  v.shrink_to_fit();
  EXPECT_EQ(v.capacity(), past);
  expectPrefix(past);
  const std::size_t small = 1000;
  v.resize(small);
  v.shrink_to_fit();
  EXPECT_EQ(v.capacity(), small);
  expectPrefix(small);
}

// At n = 300,000 the parent, CSR and BFS arrays are mapped and the
// out-degree and edge-kind arrays are not; a copy must own its own arrays,
// and a move must carry them.
TEST(DefaultInitVectorTest, MappedTreeSurvivesCopyAndMove) {
  constexpr NodeId n = 300'000;
  ASSERT_GE(static_cast<std::size_t>(n) * sizeof(NodeId), kHugePageBytes);
  std::optional<MulticastTree> original(std::in_place, n, 0);
  Rng rng(2024);
  for (NodeId v = 1; v < n; ++v) {
    const auto parent = static_cast<NodeId>(
        rng.uniformInt(static_cast<std::uint64_t>(v)));
    original->attach(v, parent,
                     v % 3 == 0 ? EdgeKind::kCore : EdgeKind::kLocal);
  }
  original->finalize();

  std::vector<NodeId> parents;
  std::vector<std::vector<NodeId>> children;
  for (NodeId v = 0; v < n; ++v) {
    parents.push_back(original->parentOf(v));
    const auto c = original->childrenOf(v);
    children.emplace_back(c.begin(), c.end());
  }
  const auto bfs = original->bfsOrder();
  const std::vector<NodeId> order(bfs.begin(), bfs.end());
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));

  const auto expectSame = [&](const MulticastTree& tree, const char* what) {
    ASSERT_EQ(tree.size(), n) << what;
    for (NodeId v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      ASSERT_EQ(tree.parentOf(v), parents[i]) << what << " v=" << v;
      const auto c = tree.childrenOf(v);
      ASSERT_EQ(std::vector<NodeId>(c.begin(), c.end()), children[i])
          << what << " v=" << v;
    }
    const auto got = tree.bfsOrder();
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), order) << what;
  };

  MulticastTree copy = *original;
  EXPECT_NE(copy.bfsOrder().data(), original->bfsOrder().data());
  original.reset();  // the copy must not share the freed arrays
  expectSame(copy, "copy");

  MulticastTree assigned(1, 0);
  assigned = copy;
  expectSame(assigned, "copy-assigned");

  const NodeId* bfsStorage = copy.bfsOrder().data();
  MulticastTree moved = std::move(copy);
  EXPECT_EQ(moved.bfsOrder().data(), bfsStorage);
  expectSame(moved, "moved");

  MulticastTree moveAssigned(1, 0);
  moveAssigned = std::move(moved);
  expectSame(moveAssigned, "move-assigned");
}

// The advice, not its outcome: whether the kernel found free huge pages is
// its business, but a mapped array's mapping must carry the "hg"
// (MADV_HUGEPAGE) flag, and under AddressSanitizer, which keeps large
// arrays on its own heap, must not.
TEST(DefaultInitVectorTest, LargeArrayMappingIsAdvisedHugePages) {
  const std::string mode = transparentHugePageMode();
  if (mode == "unavailable" || mode == "never")
    GTEST_SKIP() << "transparent huge pages " << mode;
  DefaultInitVector<std::int64_t> v(2 * kHugePageBytes / sizeof(std::int64_t),
                                    7);
  const std::optional<std::string> flags = vmFlagsOf(v.data());
  ASSERT_TRUE(flags.has_value()) << "no mapping holds the array";
  const bool advised = (*flags + " ").find(" hg ") != std::string::npos;
  EXPECT_EQ(advised, kMapLargeArrays) << *flags;
}

}  // namespace
}  // namespace omt
