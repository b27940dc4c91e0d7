#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <set>

#include "omt/obs/metrics.h"
#include "omt/obs/obs.h"
#include "omt/obs/trace.h"
#include "omt/report/stats.h"

namespace {

std::atomic<bool> gCountAllocations{false};
std::atomic<std::int64_t> gAllocations{0};

}  // namespace

// Counting replacement of the global allocation function. libstdc++ routes
// the array and nothrow forms through this one. Counting is on only inside
// a TracedScope, so the untraced run pays one relaxed load per allocation.
// The matching deallocation functions are replaced too, so new and delete
// visibly pair malloc with free.
void* operator new(std::size_t size) {
  if (gCountAllocations.load(std::memory_order_relaxed))
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (!handler) throw std::bad_alloc();
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace omtbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e9;
}

bool keepRunning(std::int64_t startNs, double seconds, int done, int minOps) {
  const double elapsed = secondsSince(startNs);
  return elapsed < 2.0 * seconds + 30.0 && (elapsed < seconds || done < minOps);
}

double quantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : omt::percentile(values, q);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

TracedScope::TracedScope(bool on) : on_(on) {
  if (!on_) return;
  omt::obs::setEnabled(true);
  gCountAllocations.store(true, std::memory_order_relaxed);
}

TracedScope::~TracedScope() {
  if (!on_) return;
  gCountAllocations.store(false, std::memory_order_relaxed);
  omt::obs::setEnabled(false);
}

OpTally::Sample OpTally::sample() {
  // The pool instruments are registered nondeterministic by the library;
  // looking them up with the same class returns the same instrument.
  auto& registry = omt::obs::MetricsRegistry::global();
  constexpr auto kNondet = omt::obs::Determinism::kNondeterministic;
  static omt::obs::Counter& jobs = registry.counter("omt_pool_jobs_total", kNondet);
  static omt::obs::Histogram& wait =
      registry.histogram("omt_pool_queue_wait_seconds", {}, kNondet);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Sample s;
  s.minorFaults = static_cast<double>(usage.ru_minflt);
  s.contextSwitches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  s.allocations =
      static_cast<double>(gAllocations.load(std::memory_order_relaxed));
  s.poolJobs = static_cast<double>(jobs.value());
  s.queueWaitSeconds = wait.sum();
  s.queueWaits = static_cast<double>(wait.count());
  return s;
}

void OpTally::begin() { start_ = sample(); }

void OpTally::end(std::int64_t ops) {
  const Sample now = sample();
  total_.minorFaults += now.minorFaults - start_.minorFaults;
  total_.contextSwitches += now.contextSwitches - start_.contextSwitches;
  total_.allocations += now.allocations - start_.allocations;
  total_.poolJobs += now.poolJobs - start_.poolJobs;
  total_.queueWaitSeconds += now.queueWaitSeconds - start_.queueWaitSeconds;
  total_.queueWaits += now.queueWaits - start_.queueWaits;
  ops_ += ops;
}

void OpTally::report(Metrics& perLayer) const {
  const double ops = static_cast<double>(std::max<std::int64_t>(ops_, 1));
  perLayer["proc.minflt_per_op"] = {total_.minorFaults / ops, "count/op", ops_};
  perLayer["proc.ctxsw_per_op"] = {total_.contextSwitches / ops, "count/op", ops_};
  perLayer["proc.allocs_per_op"] = {total_.allocations / ops, "count/op", ops_};
  perLayer["parallel.jobs_per_op"] = {total_.poolJobs / ops, "count/op", ops_};
  perLayer["parallel.queue_wait_ms"] = {
      total_.queueWaits > 0.0
          ? 1e3 * total_.queueWaitSeconds / total_.queueWaits
          : 0.0,
      "ms", static_cast<std::int64_t>(total_.queueWaits)};
}

std::map<std::string, double> medianSelfMs(const char* root) {
  using omt::obs::TraceEvent;
  const std::vector<TraceEvent> events =
      omt::obs::TraceRecorder::global().sortedEvents();
  std::map<int, std::vector<const TraceEvent*>> byShard;
  for (const TraceEvent& e : events) byShard[e.shard].push_back(&e);

  std::vector<std::map<std::string, double>> selfNsByRoot;
  std::set<std::string> names;
  for (auto& [shard, list] : byShard) {
    (void)shard;
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->startNs != b->startNs) return a->startNs < b->startNs;
                return a->durationNs > b->durationNs;
              });
    struct Open {
      const TraceEvent* event;
      std::int64_t childNs;
    };
    std::vector<Open> stack;
    std::ptrdiff_t current = -1;  // index into selfNsByRoot, -1 = not a root
    const auto close = [&] {
      const Open top = stack.back();
      stack.pop_back();
      if (current >= 0) {
        selfNsByRoot[static_cast<std::size_t>(current)][top.event->name] +=
            static_cast<double>(top.event->durationNs - top.childNs);
        names.insert(top.event->name);
      }
      if (!stack.empty()) stack.back().childNs += top.event->durationNs;
    };
    for (const TraceEvent* e : list) {
      while (!stack.empty() && stack.back().event->startNs +
                                       stack.back().event->durationNs <=
                                   e->startNs)
        close();
      if (stack.empty()) {
        current = -1;
        if (std::strcmp(e->name, root) == 0) {
          selfNsByRoot.emplace_back();
          current = static_cast<std::ptrdiff_t>(selfNsByRoot.size()) - 1;
        }
      }
      stack.push_back({e, 0});
    }
    while (!stack.empty()) close();
  }

  std::map<std::string, double> out;
  for (const std::string& name : names) {
    std::vector<double> perRoot;
    for (const auto& selfNs : selfNsByRoot) {
      const auto it = selfNs.find(name);
      perRoot.push_back(it == selfNs.end() ? 0.0 : it->second / 1e6);
    }
    out[name] = median(perRoot);
  }
  return out;
}

std::string writeChromeTrace(const Config& config) {
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() / "traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (config.workload + "-seed" + std::to_string(config.seed) + ".json");
  omt::obs::TraceRecorder::global().writeChromeTraceFile(path.string());
  return path.string();
}

}  // namespace omtbench
