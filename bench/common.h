// Shared experiment harness for the table/figure benches.
//
// Reproduces the paper's Section V protocol: for each problem size generate
// `trials` random point sets uniformly distributed in the unit disk (or
// ball) with the source at the center, build the tree, and average max
// delay, core delay, ring count, the eq. (7) bound at j = 0, and wall-clock
// seconds. Every bench accepts:
//   --full             paper-scale sizes (up to 5,000,000) and trial counts
//   --max-n N          cap the size sweep
//   --trials T         fixed trial count for every row
//   --csv PATH         also write the aggregate rows as CSV
//   --trials-csv PATH  also write one CSV row per trial (n, trial, seed,
//                      threads, seconds) so any run reproduces row-for-row
//   --threads T|0      worker threads over independent trials (0 = auto)
//
// Thread accounting: with --threads 1 (the default) trials run one after
// another and each construction uses the pipeline's own workers
// (OMT_THREADS or auto), so timed seconds reflect the parallel build; with
// --threads > 1 trials run concurrently and each construction runs
// single-threaded (nested parallelism collapses inline). Both effective
// counts are recorded on every row.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "omt/core/bounds.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/grid/assignment.h"
#include "omt/kernels/fast_math.h"
#include "omt/obs/metrics.h"
#include "omt/obs/obs.h"
#include "omt/parallel/parallel_for.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"
#include "omt/report/csv.h"
#include "omt/report/stats.h"
#include "omt/report/stopwatch.h"
#include "omt/report/table.h"
#include "omt/tree/metrics.h"
#include "omt/tree/validation.h"

namespace omt::bench {

struct Args {
  bool full = false;
  std::optional<std::int64_t> maxN;
  std::optional<int> trials;
  std::optional<std::string> csvPath;
  std::optional<std::string> trialsCsvPath;
  /// Worker threads for independent trials; 1 keeps builds timed without
  /// trial-level contention (the default), --full runs benefit from more.
  int threads = 1;
  /// bench_coords_pipeline: run only the kernel A/B section (the CI
  /// perf-smoke mode; skips the embedding pipeline).
  bool kernelsOnly = false;
  /// bench_coords_pipeline: exit non-zero if the batched kernel path is
  /// more than 10% slower than the scalar path it replaces.
  bool enforceKernelSpeedup = false;
  /// bench_churn: sustained-churn steady-state mode (sharded sessions,
  /// watchdog, invariant audits, BENCH_churn.json curves).
  bool steadyState = false;
  /// bench_churn --steady-state: total membership events across shards.
  /// bench_service: events in the replayed script (0 = bench default).
  std::int64_t events = 0;
  /// bench_churn --steady-state: independent sharded sessions (0 = auto).
  std::optional<int> shards;
  /// bench_churn --steady-state: exit non-zero below this throughput
  /// (0 disables the enforcement, the default).
  double minEventsPerSec = 0.0;
  /// bench_churn --steady-state: base seed for the shard RNG streams.
  std::uint64_t seed = 1401;
  /// bench_service: Zipf exponent for the skewed-workload row (0 keeps the
  /// bench default of 1.0; the uniform rows are unaffected).
  double skew = 0.0;
  /// bench_dataplane: hosts in the goodput tree (0 = bench default).
  /// bench_service: shared host population size (0 = bench default).
  std::int64_t hosts = 0;
  /// bench_service: concurrent multicast groups (0 = bench default).
  std::int64_t groups = 0;
  /// bench_dataplane: packets per session (0 = bench default).
  std::int64_t packets = 0;
  /// bench_dataplane: exit non-zero if the zero-loss goodput row falls
  /// below this packets-per-second floor (0 disables, the default). CI
  /// passes a floor well under the expected rate so only a real (>10%)
  /// regression trips it.
  double minGoodput = 0.0;
  /// Enable the opt-in fast-math kernel tier for every timed construction
  /// (same switch as OMT_FAST_MATH=1 / omtcli build --fast-math).
  bool fastMath = false;
};

/// Exits with status 2 and a message naming `flag` and its bad value.
[[noreturn]] inline void badFlag(const std::string& flag, const char* text,
                                 const std::string& expected) {
  std::cerr << "error: " << flag << " expects " << expected << ", got '"
            << text << "'\n";
  std::exit(2);
}

/// The value of an integer flag: the whole text must parse as an integer
/// that T can hold (so `--max-n 1e5` is an error, not 1), and be at least
/// `min`.
template <std::integral T>
T parseIntFlag(const std::string& flag, const char* text,
               T min = std::numeric_limits<T>::min()) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) badFlag(flag, text, "an integer");
  if (value < min)
    badFlag(flag, text, "an integer >= " + std::to_string(min));
  return value;
}

/// The value of a floating-point flag: the whole text must parse as a
/// finite number.
inline double parseDoubleFlag(const std::string& flag, const char* text) {
  double value = 0.0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value))
    badFlag(flag, text, "a finite number");
  return value;
}

inline Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      args.full = true;
    } else if (arg == "--max-n" && i + 1 < argc) {
      args.maxN = parseIntFlag<std::int64_t>(arg, argv[++i], 1);
    } else if (arg == "--trials" && i + 1 < argc) {
      args.trials = parseIntFlag<int>(arg, argv[++i], 1);
    } else if (arg == "--csv" && i + 1 < argc) {
      args.csvPath = argv[++i];
    } else if (arg == "--trials-csv" && i + 1 < argc) {
      args.trialsCsvPath = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      args.threads = parseIntFlag<int>(arg, argv[++i]);
      if (args.threads <= 0) args.threads = resolveWorkers(0);
    } else if (arg == "--kernels-only") {
      args.kernelsOnly = true;
    } else if (arg == "--enforce-kernel-speedup") {
      args.enforceKernelSpeedup = true;
    } else if (arg == "--steady-state") {
      args.steadyState = true;
    } else if (arg == "--events" && i + 1 < argc) {
      args.events = parseIntFlag<std::int64_t>(arg, argv[++i], 0);
    } else if (arg == "--shards" && i + 1 < argc) {
      args.shards = parseIntFlag<int>(arg, argv[++i], 0);
    } else if (arg == "--min-events-per-sec" && i + 1 < argc) {
      args.minEventsPerSec = parseDoubleFlag(arg, argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      args.seed = parseIntFlag<std::uint64_t>(arg, argv[++i]);
    } else if (arg == "--skew" && i + 1 < argc) {
      args.skew = parseDoubleFlag(arg, argv[++i]);
    } else if (arg == "--fast-math") {
      args.fastMath = true;
    } else if (arg == "--hosts" && i + 1 < argc) {
      args.hosts = parseIntFlag<std::int64_t>(arg, argv[++i], 0);
    } else if (arg == "--groups" && i + 1 < argc) {
      args.groups = parseIntFlag<std::int64_t>(arg, argv[++i], 0);
    } else if (arg == "--packets" && i + 1 < argc) {
      args.packets = parseIntFlag<std::int64_t>(arg, argv[++i], 0);
    } else if (arg == "--min-goodput" && i + 1 < argc) {
      args.minGoodput = parseDoubleFlag(arg, argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--full] [--max-n N] [--trials T] [--csv PATH]"
                   " [--trials-csv PATH] [--threads T|0]"
                   " [--kernels-only] [--enforce-kernel-speedup]"
                   " [--steady-state] [--events N] [--shards S]"
                   " [--min-events-per-sec X] [--seed S] [--skew Z]"
                   " [--fast-math]"
                   " [--hosts N] [--groups N] [--packets N]"
                   " [--min-goodput X]\n";
      std::exit(2);
    }
  }
  if (args.fastMath) kernels::fast_math::setEnabled(true);
  return args;
}

/// Runs a bench's body; an exception escaping it (an invalid parameter
/// the library refuses, a failed check) is reported with its message and
/// exit status 1 instead of ending in std::terminate. Bench mains are
/// `return runGuarded(benchMain, argc, argv);`.
inline int runGuarded(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": error: " << e.what() << "\n";
    return 1;
  }
}

/// Where the perf-trajectory files (BENCH_*.json) belong: the repository
/// root, regardless of the cwd the bench was launched from (benches usually
/// run from build/bench, which used to scatter the JSON under build/).
/// OMT_BENCH_DIR overrides; otherwise walk up from the cwd looking for
/// ROADMAP.md (the repo-root marker) and fall back to the cwd.
inline std::string benchOutputPath(const std::string& filename) {
  if (const char* dir = std::getenv("OMT_BENCH_DIR"); dir && *dir) {
    return std::string(dir) + "/" + filename;
  }
  std::string prefix;
  std::string probe = "ROADMAP.md";
  for (int depth = 0; depth < 6; ++depth) {
    if (std::ifstream(prefix + probe).good()) return prefix + filename;
    prefix += "../";
    probe = "ROADMAP.md";
  }
  return filename;
}

struct RowSpec {
  std::int64_t n;
  int trials;
};

/// The paper's Table-I size column with trial counts scaled so the default
/// whole-suite run stays minutes-long; --full restores 200 trials per row
/// (and keeps a reduced count only at n >= 500k, where one trial costs
/// seconds) and extends to 5,000,000.
inline std::vector<RowSpec> tableOneSizes(const Args& args) {
  std::vector<RowSpec> rows;
  const std::vector<std::int64_t> sizes{100,    500,     1000,   5000,   10000,
                                        50000,  100000,  500000, 1000000,
                                        5000000};
  for (const std::int64_t n : sizes) {
    // Paper-scale rows (> 1M) need --full, or an explicit --max-n that
    // reaches them — so `--max-n 5000000` alone runs the full-size row.
    if (!args.full && n > 1000000 && !(args.maxN && *args.maxN >= n)) continue;
    if (args.maxN && n > *args.maxN) continue;
    int trials;
    if (args.full) {
      trials = n <= 100000 ? 200 : (n <= 1000000 ? 20 : 5);
    } else {
      trials = n <= 10000 ? 50 : (n <= 100000 ? 10 : (n <= 500000 ? 4 : 2));
    }
    if (args.trials) trials = *args.trials;
    rows.push_back({n, trials});
  }
  // Only a --max-n under the smallest size selects nothing; refuse it
  // before a bench writes an empty table over its BENCH_*.json.
  if (rows.empty()) {
    std::cerr << "error: --max-n " << *args.maxN
              << " selects no size; the smallest is " << sizes.front() << "\n";
    std::exit(2);
  }
  return rows;
}

/// One trial's provenance and timing; enough to rerun that exact trial.
struct TrialRecord {
  std::int64_t n = 0;
  int trial = 0;
  std::uint64_t seed = 0;
  double seconds = 0.0;
};

struct RowStats {
  std::int64_t n = 0;
  /// Effective worker threads over independent trials.
  int trialThreads = 1;
  /// Effective worker threads inside each timed construction (1 when the
  /// trial loop itself is parallel — nested parallelism runs inline).
  int buildWorkers = 1;
  RunningStats rings;
  RunningStats core;
  RunningStats delay;
  RunningStats bound;
  RunningStats seconds;
  /// Per-trial records in trial order (deterministic for any thread count).
  std::vector<TrialRecord> trials;
};

/// One Table-I row: `trials` independent point sets, tree built with the
/// given out-degree cap in the given dimension. experimentId seeds the
/// per-trial RNG streams (same id + trial -> same points across benches).
inline RowStats runRow(std::int64_t n, int trials, int degree, int dim,
                       std::uint64_t experimentId, int threads = 1) {
  std::vector<RowStats> partial(static_cast<std::size_t>(trials));
  parallelFor(0, trials, threads, [&](std::int64_t trial) {
    RowStats& local = partial[static_cast<std::size_t>(trial)];
    const std::uint64_t seed =
        deriveSeed(experimentId, static_cast<std::uint64_t>(trial));
    Rng rng(seed);
    const std::vector<Point> points = sampleDiskWithCenterSource(rng, n, dim);
    Stopwatch watch;
    const PolarGridResult result =
        buildPolarGridTree(points, 0, {.maxOutDegree = degree});
    const double elapsed = watch.seconds();
    local.seconds.add(elapsed);
    local.trials.push_back({n, static_cast<int>(trial), seed, elapsed});
    const ValidationResult valid =
        validate(result.tree, {.maxOutDegree = degree});
    OMT_CHECK(valid.ok, "invalid tree at n=" + std::to_string(n) +
                            " trial=" + std::to_string(trial) + ": " +
                            valid.message);
    const TreeMetrics metrics = computeMetrics(result.tree, points);
    local.delay.add(metrics.maxDelay);
    local.core.add(metrics.coreDelay);
    local.rings.add(static_cast<double>(result.rings()));
    local.bound.add(result.upperBound);
  });
  RowStats row;
  row.n = n;
  row.trialThreads = std::min<std::int64_t>(threads, trials);
  row.buildWorkers = row.trialThreads > 1 ? 1 : gridBuildWorkers(0, n);
  for (const RowStats& local : partial) {
    row.delay.merge(local.delay);
    row.core.merge(local.core);
    row.rings.merge(local.rings);
    row.bound.merge(local.bound);
    row.seconds.merge(local.seconds);
    row.trials.insert(row.trials.end(), local.trials.begin(),
                      local.trials.end());
  }
  return row;
}

inline std::unique_ptr<CsvWriter> openCsv(const Args& args,
                                          std::initializer_list<std::string> header) {
  if (!args.csvPath) return nullptr;
  auto csv = std::make_unique<CsvWriter>(*args.csvPath);
  csv->writeRow(header);
  return csv;
}

/// Per-trial CSV (--trials-csv): one row per trial with the seed and the
/// effective thread counts, so a parallel-trial run reproduces row-for-row.
inline std::unique_ptr<CsvWriter> openTrialsCsv(const Args& args) {
  if (!args.trialsCsvPath) return nullptr;
  auto csv = std::make_unique<CsvWriter>(*args.trialsCsvPath);
  csv->writeRow(
      {"n", "trial", "seed", "trial_threads", "build_workers", "seconds"});
  return csv;
}

/// Write the registry's JSON snapshot next to the bench's BENCH_*.json —
/// but only when observability is actually recording (OMT_OBS=1 in the
/// environment). Timed runs with obs off never pay for or produce this.
inline void maybeWriteMetricsSnapshot(const std::string& path) {
  if (!obs::enabled()) return;
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "warning: cannot open metrics snapshot " << path << "\n";
    return;
  }
  out << obs::MetricsRegistry::global().jsonSnapshot() << "\n";
  std::cout << "(wrote metrics snapshot " << path << ")\n";
}

inline void appendTrialRows(CsvWriter* csv, const RowStats& row) {
  if (!csv) return;
  for (const TrialRecord& t : row.trials) {
    csv->writeRow({std::to_string(t.n), std::to_string(t.trial),
                   std::to_string(t.seed), std::to_string(row.trialThreads),
                   std::to_string(row.buildWorkers),
                   std::to_string(t.seconds)});
  }
}

}  // namespace omt::bench
