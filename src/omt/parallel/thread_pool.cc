#include "omt/parallel/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "omt/common/error.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"

namespace omt {
namespace {

/// Pool metrics are all scheduling artifacts — which path run() takes and
/// how chunks land on slots legitimately varies with the worker count and
/// submit races — so every one is registered nondeterministic and excluded
/// from the cross-thread-count determinism contract.
struct PoolMetrics {
  obs::Counter& jobs;             ///< jobs dispatched onto pool workers
  obs::Counter& inlineJobs;       ///< jobs run inline on the caller
  obs::Counter& nestedCollapses;  ///< inline because nested or pool busy
  obs::Counter& chunks;           ///< chunks claimed via the atomic cursor
  obs::Histogram& queueWait;      ///< job publish -> helper's first claim
};

PoolMetrics& poolMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  constexpr auto kNondet = obs::Determinism::kNondeterministic;
  static PoolMetrics metrics{
      registry.counter("omt_pool_jobs_total", kNondet),
      registry.counter("omt_pool_inline_jobs_total", kNondet),
      registry.counter("omt_pool_nested_collapses_total", kNondet),
      registry.counter("omt_pool_chunks_total", kNondet),
      registry.histogram("omt_pool_queue_wait_seconds", {}, kNondet)};
  return metrics;
}

thread_local int tlsParallelDepth = 0;

/// RAII marker for "this thread is executing pool work".
struct RegionGuard {
  RegionGuard() { ++tlsParallelDepth; }
  ~RegionGuard() { --tlsParallelDepth; }
};

}  // namespace

struct ThreadPool::Job {
  std::int64_t end = 0;
  std::int64_t chunk = 1;
  std::int64_t publishNs = 0;  ///< queue-wait anchor (0 when obs disabled)
  const ChunkFn* fn = nullptr;
  std::atomic<std::int64_t> cursor{0};
  std::atomic<int> nextSlot{1};  // slot 0 is the submitter
  int slots = 1;                 // participants allowed (<= concurrency)
  std::atomic<int> activeHelpers{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex errorMutex;

  /// Claim and execute chunks until the range (or the job) is exhausted.
  void work(int slot) {
    RegionGuard guard;
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::int64_t lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::int64_t hi = std::min(lo + chunk, end);
      poolMetrics().chunks.add();
      try {
        (*fn)(lo, hi, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

ThreadPool::ThreadPool(int capacity) : capacity_(std::max(capacity, 1)) {
  threads_.reserve(static_cast<std::size_t>(capacity_ - 1));
  for (int t = 1; t < capacity_; ++t)
    threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::inParallelRegion() { return tlsParallelDepth > 0; }

void ThreadPool::workerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    int slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen);
      });
      if (stop_) return;
      seen = generation_;
      slot = job_->nextSlot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= job_->slots) continue;  // job already has enough hands
      job = job_;
      job->activeHelpers.fetch_add(1, std::memory_order_relaxed);
    }
    if (obs::enabled() && job->publishNs > 0) {
      poolMetrics().queueWait.observe(
          static_cast<double>(obs::monotonicNowNs() - job->publishNs) / 1e9);
    }
    job->work(slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->activeHelpers.fetch_sub(1, std::memory_order_relaxed);
    }
    done_.notify_all();
  }
}

void ThreadPool::run(std::int64_t begin, std::int64_t end, int concurrency,
                     std::int64_t chunk, const ChunkFn& fn) {
  OMT_CHECK(begin <= end, "invalid index range");
  OMT_CHECK(chunk >= 1, "chunk size must be positive");
  if (begin == end) return;

  concurrency = std::min<std::int64_t>(
      std::min(concurrency, capacity_),
      (end - begin + chunk - 1) / chunk);
  const bool inline_ = concurrency <= 1 || inParallelRegion();
  std::unique_lock<std::mutex> submit(submitMutex_, std::defer_lock);
  if (!inline_ && !submit.try_lock()) {
    // Another job is in flight; running inline keeps total concurrency
    // bounded and avoids blocking behind it.
  } else if (!inline_) {
    poolMetrics().jobs.add();
    Job job;
    job.end = end;
    job.chunk = chunk;
    job.publishNs = obs::enabled() ? obs::monotonicNowNs() : 0;
    job.fn = &fn;
    job.cursor.store(begin, std::memory_order_relaxed);
    job.slots = concurrency;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    // Wake only the helpers the job has slots for. A worker that is not
    // waiting right now checks for the new job before it sleeps again.
    for (int helper = 1; helper < concurrency; ++helper) wake_.notify_one();
    job.work(/*slot=*/0);
    {
      // Detach the job so no further worker can register, then wait for
      // the ones that did. Registration happens under mutex_ while job_
      // still points at this job, so after this block no thread touches it.
      std::unique_lock<std::mutex> lock(mutex_);
      job_ = nullptr;
      done_.wait(lock, [&] {
        return job.activeHelpers.load(std::memory_order_relaxed) == 0;
      });
    }
    if (job.error) std::rethrow_exception(job.error);
    return;
  }

  // Inline path: one slot, natural exception propagation.
  poolMetrics().inlineJobs.add();
  if (concurrency > 1) poolMetrics().nestedCollapses.add();
  RegionGuard guard;
  for (std::int64_t lo = begin; lo < end; lo += chunk)
    fn(lo, std::min(lo + chunk, end), 0);
}

int defaultWorkerCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw <= 2 ? 1 : static_cast<int>(hw / 2);
}

int resolveWorkers(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("OMT_THREADS")) {
    const char* end = env + std::strlen(env);
    int parsed = 0;
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec == std::errc() && ptr == end && parsed >= 1 &&
        parsed <= kMaxEnvWorkers)
      return parsed;
  }
  return defaultWorkerCount();
}

ThreadPool& globalPool() {
  static ThreadPool pool([] {
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max({resolveWorkers(0), hw, 16});
  }());
  return pool;
}

}  // namespace omt
