// Shared plumbing for the omtbench workloads: the run configuration, the
// outcome every workload returns, clocks and order statistics, process
// counters, and the span-tree analysis behind the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace omtbench {

/// Worker threads of every parallel stage: pool workers for construction,
/// builder shards for the service. With the serve reader that is at most
/// three busy threads on a 4-core machine.
inline constexpr int kWorkers = 2;

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 5;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One reported number with its unit and the samples it summarises.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

/// What one workload run hands back to main().
struct Outcome {
  /// Operations run: builds; apply batches and lookups; expected deliveries.
  std::int64_t attempted = 0;
  /// Operations that failed their correctness check.
  std::int64_t failed = 0;
  Metrics endToEnd;  ///< measured on untraced operations
  Metrics perLayer;  ///< measured on traced operations (--trace 1 only)
  /// Workload-specific figures under their own names, printed for people.
  Metrics detail;
  std::vector<std::string> notes;  ///< failures and other remarks
};

Outcome runConstruct(const Config& config);
Outcome runServe(const Config& config);
Outcome runDataplane(const Config& config);

// --- clocks and order statistics -------------------------------------------

std::int64_t nowNs();  ///< steady clock
double secondsSince(std::int64_t startNs);
/// Linear-interpolated quantile (omt::percentile); 0 for an empty input.
double quantile(const std::vector<double>& values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Whether a closed loop started at `startNs` runs another operation: until
/// `seconds` have passed and at least `minOps` operations ran, but never past
/// a hard stop that keeps a slow machine inside the run's time limit.
bool keepRunning(std::int64_t startNs, double seconds, int done, int minOps);

/// Runs `setUp` kSetups times and returns the median wall seconds.
template <class SetUp>
double medianSetupSeconds(SetUp&& setUp) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = nowNs();
    setUp();
    seconds.push_back(secondsSince(start));
  }
  return median(seconds);
}

/// Peak resident set of the process so far, in MiB.
double peakRssMb();

// --- traced operations -------------------------------------------------------

/// Turns observability recording (library spans and counters) and
/// allocation counting on for its lifetime when `on`; a no-op otherwise.
class TracedScope {
 public:
  explicit TracedScope(bool on);
  ~TracedScope();
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

 private:
  bool on_;
};

/// Process and thread-pool counters summed over traced operations: the
/// proc.* and parallel.* per-layer metrics.
class OpTally {
 public:
  void begin();                    ///< snapshot before an operation
  void end(std::int64_t ops = 1);  ///< add the deltas since begin()
  void report(Metrics& perLayer) const;

 private:
  struct Sample {
    double minorFaults = 0.0;
    double contextSwitches = 0.0;
    double allocations = 0.0;
    double poolJobs = 0.0;
    double queueWaitSeconds = 0.0;
    double queueWaits = 0.0;
  };
  static Sample sample();
  Sample start_;
  Sample total_;
  std::int64_t ops_ = 0;
};

/// Self time per span name, in ms, as the median over the recorded spans
/// named `root` (one per benchmark operation). Nesting is recovered from
/// time containment on each recording thread, so library spans without an
/// explicit parent still land under the operation that called them. A
/// name missing from an operation counts as 0 for it.
std::map<std::string, double> medianSelfMs(const char* root);

/// Writes everything recorded so far as a Chrome trace next to the binary
/// and returns the file's path.
std::string writeChromeTrace(const Config& config);

}  // namespace omtbench
