// construct-1m: repeated Polar_Grid builds over 1,000,000 hosts uniform in
// the unit disk, source at the centre, out-degree 6 — the paper's algorithm
// at the size where ns/host has left the cache-resident regime. Closed
// loop: the next build starts when the previous one has been checked.
#include <algorithm>
#include <optional>
#include <vector>

#include "harness.h"
#include "omt/core/bounds.h"
#include "omt/core/polar_grid_tree.h"
#include "omt/obs/trace.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"
#include "omt/tree/metrics.h"
#include "omt/tree/validation.h"

namespace omtbench {
namespace {

constexpr std::int64_t kHosts = 1'000'000;
constexpr int kDegree = 6;
/// Distinct point sets sampled in set-up and cycled by the build loop.
constexpr int kPointSets = 3;
/// op_tail_ms is the p75 build time, which needs ten builds beyond it.
constexpr int kMinBuilds = 40;

struct PointSet {
  std::vector<omt::Point> points;
  double lowerBound = 0.0;
  double radius = -1.0;  ///< of the first build; later builds must match
};

}  // namespace

Outcome runConstruct(const Config& config) {
  omt::PolarGridOptions options;
  options.maxOutDegree = kDegree;
  options.workers = kWorkers;

  std::vector<PointSet> sets;
  const double setupSeconds = medianSetupSeconds([&] {
    sets.clear();
    for (int s = 0; s < kPointSets; ++s) {
      omt::Rng rng(omt::deriveSeed(config.seed, 0xC0 + s));
      PointSet set;
      set.points = omt::sampleDiskWithCenterSource(rng, kHosts, 2);
      set.lowerBound = omt::radiusLowerBound(set.points, 0);
      sets.push_back(std::move(set));
    }
    // Untimed warm-up: the first build in a process is ~1.7x slower.
    const omt::PolarGridResult warm =
        omt::buildPolarGridTree(sets[0].points, 0, options);
    if (!omt::validate(warm.tree, {.maxOutDegree = kDegree}))
      throw std::runtime_error("warm-up build produced an invalid tree");
  });

  Outcome out;
  std::vector<double> untracedMs;
  std::vector<double> tracedMs;
  std::vector<double> ratios;
  OpTally tally;
  const std::int64_t start = nowNs();
  for (int i = 0; keepRunning(start, config.seconds, i, kMinBuilds); ++i) {
    PointSet& set = sets[static_cast<std::size_t>(i % kPointSets)];
    const bool traced = config.trace && i % 2 == 1;
    std::optional<omt::PolarGridResult> built;
    double ms = 0.0;
    {
      const TracedScope scope(traced);
      if (traced) tally.begin();
      omt::obs::TraceSpan span("bench.build", "bench");
      const std::int64_t t0 = nowNs();
      built.emplace(omt::buildPolarGridTree(set.points, 0, options));
      ms = static_cast<double>(nowNs() - t0) / 1e6;
      span.end();
      if (traced) tally.end();
    }

    ++out.attempted;
    const omt::ValidationResult valid =
        omt::validate(built->tree, {.maxOutDegree = kDegree});
    const std::vector<double> delays = omt::computeDelays(built->tree, set.points);
    const double radius = *std::max_element(delays.begin(), delays.end());
    const double slack = 1e-9 * (1.0 + radius);
    std::string problem;
    if (!valid.ok) problem = "invalid tree: " + valid.message;
    else if (radius + slack < set.lowerBound) problem = "radius below the lower bound";
    else if (radius > built->upperBound + slack) problem = "radius above the eq. (7) bound";
    else if (set.radius >= 0.0 && radius != set.radius)
      problem = "rebuilding the same points changed the radius";
    if (!problem.empty()) {
      ++out.failed;
      out.notes.push_back("build " + std::to_string(i) + ": " + problem);
      continue;
    }
    if (set.radius < 0.0) {
      set.radius = radius;
      ratios.push_back(radius / set.lowerBound);
    }
    (traced ? tracedMs : untracedMs).push_back(ms);
  }

  const auto builds = static_cast<std::int64_t>(untracedMs.size());
  const double buildMs = median(untracedMs);
  const double nsPerHost = buildMs * 1e6 / static_cast<double>(kHosts);
  const auto sets_ = static_cast<std::int64_t>(ratios.size());
  out.endToEnd["setup_s"] = {setupSeconds, "s", kSetups};
  out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB", 1};
  out.endToEnd["ns_per_item"] = {nsPerHost, "ns", builds};
  out.endToEnd["op_p50_ms"] = {buildMs, "ms", builds};
  out.endToEnd["op_tail_ms"] = {quantile(untracedMs, 0.75), "ms", builds};
  out.endToEnd["radius_ratio"] = {mean(ratios), "ratio", sets_};
  out.detail["build_ns_per_host"] = {nsPerHost, "ns", builds};
  out.detail["build_p75_ms"] = {quantile(untracedMs, 0.75), "ms", builds};

  if (config.trace) {
    const auto self = medianSelfMs("bench.build");
    const auto get = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const auto traced = static_cast<std::int64_t>(tracedMs.size());
    out.perLayer["grid.polar_pass_ms"] = {get("polar_pass"), "ms", traced};
    out.perLayer["grid.classification_ms"] = {get("classification"), "ms", traced};
    out.perLayer["grid.csr_build_ms"] = {get("csr_build"), "ms", traced};
    out.perLayer["grid.assign_self_ms"] = {get("assign_to_grid"), "ms", traced};
    out.perLayer["core.stage2a_ms"] = {get("stage2a_representatives"), "ms", traced};
    out.perLayer["core.stage2b3_ms"] = {get("stage2b3_cell_wiring"), "ms", traced};
    out.perLayer["core.build_self_ms"] = {get("build_polar_grid_tree"), "ms", traced};
    tally.report(out.perLayer);
    out.perLayer["trace.overhead_frac"] = {median(tracedMs) / buildMs - 1.0,
                                           "frac", traced};
    out.notes.push_back("chrome trace: " + writeChromeTrace(config));
  }
  return out;
}

}  // namespace omtbench
