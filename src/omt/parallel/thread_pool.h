// Persistent thread pool shared by the whole library.
//
// The construction pipeline (omt/grid, omt/core, omt/bisection) and the
// bench trial loops all dispatch onto one process-wide pool instead of
// spawning threads per call (the old omt/report/parallel helper): workers
// are created once, sleep on a condition variable between jobs (a job
// wakes only the helpers it has slots for), and chunks of an index range
// are handed out through an atomic cursor (no work stealing — chunks are
// small enough that the shared cursor balances load).
//
// Concurrency model:
//  * One job runs at a time. The submitting thread participates as slot 0;
//    up to `concurrency - 1` pool workers join as slots 1.. — slot indices
//    are dense in [0, concurrency) and stable for the duration of the job,
//    so callers can keep per-slot reduction buffers.
//  * A submission that arrives while another job is running, or that is
//    made from inside a pool task (nested parallelism), runs inline on the
//    calling thread. This makes oversubscription impossible: an outer
//    parallel trial loop automatically serialises the inner parallel tree
//    build.
//  * Exceptions thrown by the body stop further chunk scheduling and the
//    first one is rethrown on the submitting thread.
//
// Thread count: the pool's capacity is fixed at first use from the
// OMT_THREADS environment variable when set, otherwise from the hardware;
// per-call `workers` arguments are capped by that capacity.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omt {

/// Body of one chunk: the half-open sub-range [begin, end) plus the slot
/// index of the executing participant (see ThreadPool).
using ChunkFn = std::function<void(std::int64_t, std::int64_t, int)>;

class ThreadPool {
 public:
  /// A pool with `capacity` total slots (the submitting thread counts as
  /// one; `capacity - 1` worker threads are spawned).
  explicit ThreadPool(int capacity);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int capacity() const { return capacity_; }

  /// Run `fn` over [begin, end) in chunks of `chunk` indices using at most
  /// `concurrency` slots (capped by capacity() and by the range length).
  /// Blocks until every chunk finished; rethrows the first exception.
  /// Runs inline (single slot 0) when concurrency <= 1, when called from
  /// inside a pool task, or when another job is already running.
  void run(std::int64_t begin, std::int64_t end, int concurrency,
           std::int64_t chunk, const ChunkFn& fn);

  /// True while the calling thread is executing inside a pool task (used
  /// to collapse nested submissions to inline execution).
  static bool inParallelRegion();

 private:
  struct Job;

  void workerLoop();

  const int capacity_;
  std::mutex mutex_;                  // guards job_/generation_/stop_
  std::condition_variable wake_;      // workers wait for a job
  std::condition_variable done_;      // submitter waits for helpers
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::mutex submitMutex_;            // one job at a time
  std::vector<std::thread> threads_;
};

/// The process-wide pool; created on first use with capacity
/// max(resolveWorkers(0), hardware_concurrency, 16) so explicit requests up
/// to 16 workers get real threads even on small machines.
ThreadPool& globalPool();

/// A reasonable worker count: hardware concurrency halved (leave room for
/// the system), at least 1.
int defaultWorkerCount();

/// Largest OMT_THREADS value resolveWorkers() accepts. The pool spawns
/// that many threads at first use, so a typo must not reserve millions.
inline constexpr int kMaxEnvWorkers = 256;

/// Resolve a requested worker count: values >= 1 pass through; 0 (auto)
/// resolves to the OMT_THREADS environment variable when the whole value
/// is an integer in [1, kMaxEnvWorkers], otherwise to defaultWorkerCount().
int resolveWorkers(int requested);

}  // namespace omt
