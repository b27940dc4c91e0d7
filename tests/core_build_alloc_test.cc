// Allocation regression test for construction: once a first build has
// warmed the thread pool, the worker arenas and the per-thread job stacks,
// an identical second build makes a number of heap allocations that does
// not grow with the host count — the result's own arrays, a few per
// parallel pass, and per-chunk gather buffers — not one or more per host.
//
// The counting replacement of the global allocation functions below is
// visible to the whole binary, which is why this suite has a binary of its
// own. The counter is global and atomic, so pool workers' allocations count
// too.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "omt/bisection/bisection.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/random/samplers.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::int64_t> gAllocations{0};

void* countedAlloc(std::size_t size, std::size_t align) {
  if (gCounting.load(std::memory_order_relaxed))
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  for (;;) {
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p != nullptr) return p;
    const std::new_handler handler = std::get_new_handler();
    if (!handler) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

// libstdc++ routes the array and nothrow forms through these two.
void* operator new(std::size_t size) {
  return countedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace omt {
namespace {

/// Far below one allocation per host at n = 100,000.
constexpr std::int64_t kMaxAllocations = 1000;
constexpr std::int64_t kHosts = 100000;

/// Heap allocations made by one call of `build`.
template <typename Build>
std::int64_t countAllocations(const Build& build) {
  gAllocations.store(0, std::memory_order_relaxed);
  gCounting.store(true, std::memory_order_relaxed);
  build();
  gCounting.store(false, std::memory_order_relaxed);
  return gAllocations.load(std::memory_order_relaxed);
}

TEST(PolarGridAllocTest, SecondBuildAllocatesPerCellNotPerHost) {
  for (const int dim : {2, 3}) {
    Rng rng(0xa110c000ULL + static_cast<std::uint64_t>(dim));
    const std::vector<Point> points =
        sampleDiskWithCenterSource(rng, kHosts, dim);
    for (const int degree : {2, 6}) {
      for (const int workers : {1, 4}) {
        const PolarGridOptions options{.maxOutDegree = degree,
                                       .workers = workers};
        const auto build = [&] {
          const PolarGridResult result =
              buildPolarGridTree(points, 0, options);
          ASSERT_EQ(result.tree.size(), kHosts);
        };
        build();  // warm-up
        EXPECT_LT(countAllocations(build), kMaxAllocations)
            << "dim=" << dim << " degree=" << degree
            << " workers=" << workers;
      }
    }
  }
}

TEST(BisectionAllocTest, SecondBuildAllocatesPerCellNotPerHost) {
  for (const int dim : {2, 3}) {
    Rng rng(0xa110c100ULL + static_cast<std::uint64_t>(dim));
    const std::vector<Point> points =
        sampleDiskWithCenterSource(rng, kHosts, dim);
    for (const int degree : {2, 6}) {
      for (const int workers : {1, 4}) {
        const BisectionTreeOptions options{.maxOutDegree = degree,
                                           .workers = workers};
        const auto build = [&] {
          const BisectionTreeResult result =
              buildBisectionTree(points, 0, options);
          ASSERT_EQ(result.tree.size(), kHosts);
        };
        build();  // warm-up
        EXPECT_LT(countAllocations(build), kMaxAllocations)
            << "dim=" << dim << " degree=" << degree
            << " workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace omt
