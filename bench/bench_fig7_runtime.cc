// Reproduces Figure 7: algorithm running time vs n, including the paper's
// small-n insert. The shape to check is near-linear growth (the paper
// argues O(n) expected: one pass assigns points to cells, cells hold O(1)
// points on average, so bisection is O(1) per cell over O(n) cells).
// Absolute seconds differ from the paper's Pentium II, of course.
//
// Construction is timed with the parallel pipeline at its effective worker
// count (OMT_THREADS or auto, capped at one worker per 1,000 points; the
// Threads column), one build at a time, so --threads (which runs other
// benches' trials in parallel) is refused with exit 2. Each row builds
// over the row's `trials` seeded point sets (the
// sets runRow samples), cycling through them after one untimed warm-up
// build, until kRowBudgetSeconds of timed building has passed and at least
// `trials` builds ran. It reports the median ns/node, its quartiles and
// the repeat count: a row of small builds repeats thousands of times, so
// scheduling noise that swamps any one of them does not move its median.
// Besides the table/CSV, the run always writes BENCH_construction.json so
// successive PRs can track the perf trajectory:
//   {"bench": "fig7_construction", "rows": [{"n": ..., "seconds": ...,
//    "ns_per_node": ..., "ns_per_node_q1": ..., "ns_per_node_q3": ...,
//    "repeats": ..., "threads": ..., "fast_math": 0|1, "thp": ...}, ...]}
// where seconds and ns_per_node are medians and thp is the machine's
// transparent-huge-page mode (always, madvise or never; unavailable without
// the switch), which decides whether a build's arrays of 2 MiB or more sit
// on huge pages, so rows are only comparable under one mode. --fast-math (or
// OMT_FAST_MATH=1) times the construction with the approximate kernel
// tier; --max-n 5000000 reaches the paper's largest size without the rest
// of the --full protocol.
#include <algorithm>
#include <string>

#include "common.h"
#include "omt/common/default_init.h"

namespace {

/// Timed building per row, in seconds.
constexpr double kRowBudgetSeconds = 1.0;
constexpr int kDegree = 6;
/// runRow's experiment id for this figure, so row r % trials builds over
/// the same point set runRow's trial r % trials would.
constexpr std::uint64_t kExperimentId = 100;

/// Builds the row's point sets in turn until the budget is spent; every
/// timed build is validated.
omt::bench::RowStats timeRow(const omt::bench::RowSpec& spec) {
  using namespace omt;
  bench::RowStats row;
  row.n = spec.n;
  row.buildWorkers = gridBuildWorkers(0, spec.n);
  const int sets = std::max(spec.trials, 1);
  std::vector<Point> points;
  int loaded = -1;
  double timed = 0.0;
  for (int r = 0; r < spec.trials || timed < kRowBudgetSeconds; ++r) {
    const int set = r % sets;
    const std::uint64_t seed =
        deriveSeed(kExperimentId, static_cast<std::uint64_t>(set));
    if (set != loaded) {
      Rng rng(seed);
      points = sampleDiskWithCenterSource(rng, spec.n, 2);
      loaded = set;
    }
    if (r == 0) buildPolarGridTree(points, 0, {.maxOutDegree = kDegree});
    Stopwatch watch;
    const PolarGridResult result =
        buildPolarGridTree(points, 0, {.maxOutDegree = kDegree});
    const double elapsed = watch.seconds();
    timed += elapsed;
    const ValidationResult valid =
        validate(result.tree, {.maxOutDegree = kDegree});
    OMT_CHECK(valid.ok, "invalid tree at n=" + std::to_string(spec.n) +
                            " repeat=" + std::to_string(r) + ": " +
                            valid.message);
    row.trials.push_back({spec.n, r, seed, elapsed});
  }
  return row;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      std::cerr << "error: --threads does not apply to bench_fig7_runtime, "
                   "which times one build at a time; set the build's "
                   "workers with OMT_THREADS\n";
      return 2;
    }
  }
  const Args args = parseArgs(argc, argv);
  const std::vector<RowSpec> rows = tableOneSizes(args);
  const std::string thp = transparentHugePageMode();

  std::cout << "Figure 7: running time vs n (out-degree " << kDegree
            << "; median of builds repeated for " << kRowBudgetSeconds
            << " s per row; transparent huge pages: " << thp << ")\n\n";
  TextTable table({"Nodes", "Seconds", "ns/node", "q1", "q3", "Repeats",
                   "Threads", "vs-prev-row"});
  auto csv = openCsv(args, {"n", "seconds", "ns_per_node", "ns_per_node_q1",
                            "ns_per_node_q3", "repeats", "threads",
                            "scaling"});
  auto trialsCsv = openTrialsCsv(args);
  BenchJsonWriter json(benchOutputPath("BENCH_construction.json"),
                       "fig7_construction");

  double prevSeconds = 0.0;
  std::int64_t prevN = 0;
  for (const RowSpec& spec : rows) {
    const RowStats row = timeRow(spec);
    appendTrialRows(trialsCsv.get(), row);
    std::vector<double> seconds;
    for (const TrialRecord& t : row.trials) seconds.push_back(t.seconds);
    const double median = percentile(seconds, 0.5);
    const auto perNode = [&](double q) {
      return percentile(seconds, q) / static_cast<double>(spec.n) * 1e9;
    };
    const double q1 = perNode(0.25);
    const double mid = perNode(0.5);
    const double q3 = perNode(0.75);
    const auto repeats = static_cast<std::int64_t>(seconds.size());
    // Linear scaling means time ratio ~ size ratio; report their quotient
    // (1.00 = perfectly linear step from the previous row).
    std::string scaling = "-";
    if (prevN > 0) {
      const double expected =
          prevSeconds * static_cast<double>(spec.n) / static_cast<double>(prevN);
      scaling = TextTable::num(median / expected, 2);
    }
    table.addRow({TextTable::count(spec.n), TextTable::num(median, 4),
                  TextTable::num(mid, 0), TextTable::num(q1, 0),
                  TextTable::num(q3, 0), std::to_string(repeats),
                  std::to_string(row.buildWorkers), scaling});
    if (csv) {
      csv->writeRow({std::to_string(spec.n), std::to_string(median),
                     std::to_string(mid), std::to_string(q1),
                     std::to_string(q3), std::to_string(repeats),
                     std::to_string(row.buildWorkers), scaling});
    }
    json.beginRow();
    json.field("n", spec.n);
    json.field("seconds", median);
    json.field("ns_per_node", mid);
    json.field("ns_per_node_q1", q1);
    json.field("ns_per_node_q3", q3);
    json.field("repeats", repeats);
    json.field("threads", static_cast<std::int64_t>(row.buildWorkers));
    json.field("fast_math",
               static_cast<std::int64_t>(kernels::fast_math::enabled() ? 1 : 0));
    json.field("thp", thp);
    json.endRow();
    prevSeconds = median;
    prevN = spec.n;
  }
  json.close();
  maybeWriteMetricsSnapshot(benchOutputPath("BENCH_construction.metrics.json"));
  std::cout << table.str();
  std::cout << "\nShape check: ns/node stays roughly flat (near-linear "
               "runtime; paper Figure 7). Paper: 0.02s @ 1k, 2.0s @ 100k, "
               "23s @ 1M, 132s @ 5M on a Pentium II 400MHz.\n"
               "Thread sweep: rerun with OMT_THREADS=1 vs OMT_THREADS=8 to "
               "measure construction scaling (wrote "
               "BENCH_construction.json).\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
