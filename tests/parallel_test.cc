// Unit tests for the persistent thread pool behind omt/parallel: coverage,
// inline fast paths, exception propagation, nested-region collapse, slot
// numbering, and the OMT_THREADS resolution rules. These run with real
// threads (the global pool keeps capacity >= 16 even on small machines) so
// they also serve as the race-condition smoke test under OMT_SANITIZE.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "omt/common/error.h"
#include "omt/parallel/parallel_for.h"
#include "omt/parallel/thread_pool.h"

namespace omt {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallelFor(0, 1000, 4, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, CoversOffsetRange) {
  std::atomic<std::int64_t> sum{0};
  parallelFor(100, 200, 7, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ParallelForTest, SingleWorkerRunsInlineInOrder) {
  std::vector<std::int64_t> order;
  parallelFor(5, 10, 1, [&](std::int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{5, 6, 7, 8, 9}));
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  parallelFor(3, 3, 4, [](std::int64_t) { FAIL(); });
  parallelFor(0, 0, 1, [](std::int64_t) { FAIL(); });
}

TEST(ParallelForTest, WorkersExceedRange) {
  std::vector<std::atomic<int>> hits(3);
  parallelFor(0, 3, 16, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(parallelFor(0, 100, 4,
                           [](std::int64_t i) {
                             if (i == 37) throw InvalidArgument("boom");
                           }),
               InvalidArgument);
  // The pool survives a failed job and runs the next one.
  std::atomic<int> count{0};
  parallelFor(0, 100, 4, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForTest, ValidatesArguments) {
  EXPECT_THROW(parallelFor(0, 1, 0, [](std::int64_t) {}), InvalidArgument);
  EXPECT_THROW(parallelFor(0, 1, -3, [](std::int64_t) {}), InvalidArgument);
  EXPECT_THROW(parallelFor(5, 2, 1, [](std::int64_t) {}), InvalidArgument);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  // A nested parallelFor must not deadlock or oversubscribe: inner loops
  // collapse to sequential execution on the calling thread.
  std::vector<std::atomic<int>> hits(64 * 64);
  parallelFor(0, 64, 8, [&](std::int64_t outer) {
    EXPECT_TRUE(ThreadPool::inParallelRegion());
    parallelFor(0, 64, 8, [&](std::int64_t inner) {
      ++hits[static_cast<std::size_t>(outer * 64 + inner)];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ParallelForChunksTest, ChunksPartitionTheRange) {
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::set<int> slots;
  parallelForChunks(0, 1000, 4,
                    [&](std::int64_t lo, std::int64_t hi, int slot) {
                      std::lock_guard<std::mutex> lock(mutex);
                      chunks.emplace_back(lo, hi);
                      slots.insert(slot);
                    });
  std::sort(chunks.begin(), chunks.end());
  std::int64_t expectedLo = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expectedLo);
    EXPECT_LT(lo, hi);
    expectedLo = hi;
  }
  EXPECT_EQ(expectedLo, 1000);
  for (const int slot : slots) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 4);
  }
}

TEST(ParallelForChunksTest, SlotZeroOnlyWhenSequential) {
  parallelForChunks(0, 10, 1, [](std::int64_t, std::int64_t, int slot) {
    EXPECT_EQ(slot, 0);
  });
}

TEST(ParallelForChunksTest, SlotsIndexDisjointBuffers) {
  // The documented reduction pattern: per-slot accumulators, no atomics.
  const int workers = 8;
  std::vector<std::int64_t> partial(workers, 0);
  parallelForChunks(0, 100000, workers,
                    [&](std::int64_t lo, std::int64_t hi, int slot) {
                      for (std::int64_t i = lo; i < hi; ++i)
                        partial[static_cast<std::size_t>(slot)] += i;
                    });
  const std::int64_t total =
      std::accumulate(partial.begin(), partial.end(), std::int64_t{0});
  EXPECT_EQ(total, 100000LL * 99999 / 2);
}

TEST(ThreadPoolTest, CapacityIsAtLeastRequested) {
  EXPECT_GE(globalPool().capacity(), 16);
}

TEST(ThreadPoolTest, ResolveWorkersPassesThroughExplicit) {
  EXPECT_EQ(resolveWorkers(1), 1);
  EXPECT_EQ(resolveWorkers(7), 7);
}

TEST(ThreadPoolTest, ResolveWorkersReadsEnvironment) {
  const char* saved = std::getenv("OMT_THREADS");
  const std::string savedValue = saved ? saved : "";
  ::setenv("OMT_THREADS", "5", 1);
  EXPECT_EQ(resolveWorkers(0), 5);
  EXPECT_EQ(resolveWorkers(2), 2);  // explicit request wins
  ::setenv("OMT_THREADS", "not-a-number", 1);
  EXPECT_EQ(resolveWorkers(0), defaultWorkerCount());
  ::setenv("OMT_THREADS", "-4", 1);
  EXPECT_EQ(resolveWorkers(0), defaultWorkerCount());
  // The whole value must parse, fit an int and stay within the cap.
  ::setenv("OMT_THREADS", "2abc", 1);
  EXPECT_EQ(resolveWorkers(0), defaultWorkerCount());
  ::setenv("OMT_THREADS", "4294967298", 1);  // 2^32 + 2 must not wrap to 2
  EXPECT_EQ(resolveWorkers(0), defaultWorkerCount());
  ::setenv("OMT_THREADS", "2147483647", 1);
  EXPECT_EQ(resolveWorkers(0), defaultWorkerCount());
  ::setenv("OMT_THREADS", std::to_string(kMaxEnvWorkers).c_str(), 1);
  EXPECT_EQ(resolveWorkers(0), kMaxEnvWorkers);
  if (saved) {
    ::setenv("OMT_THREADS", savedValue.c_str(), 1);
  } else {
    ::unsetenv("OMT_THREADS");
  }
}

TEST(ThreadPoolTest, DefaultWorkerCountIsPositive) {
  EXPECT_GE(defaultWorkerCount(), 1);
}

}  // namespace
}  // namespace omt
