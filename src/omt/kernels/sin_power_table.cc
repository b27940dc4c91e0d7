#include "omt/kernels/sin_power_table.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <numbers>
#include <vector>

#include "omt/common/error.h"
#include "omt/geometry/sin_power_integral.h"
#include "omt/obs/metrics.h"
#include "omt/obs/trace.h"

namespace omt::kernels {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr int kTableSize = sin_power_detail::kQuantileGridIntervals + 1;

/// Inversion metrics. Calls, iterations, and hits/misses count once per
/// logical inversion, so they are worker-count independent; whether a
/// *build* happens in a given process region depends on who got there
/// first, so builds are nondeterministic.
struct TableMetrics {
  obs::Counter& calls;
  obs::Counter& iterations;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& builds;
};

TableMetrics& tableMetrics() {
  auto& registry = obs::MetricsRegistry::global();
  static TableMetrics metrics{
      registry.counter("omt_kernel_invert_calls_total"),
      registry.counter("omt_kernel_invert_iterations_total"),
      registry.counter("omt_kernel_table_hits_total"),
      registry.counter("omt_kernel_table_misses_total"),
      registry.counter("omt_kernel_table_builds_total",
                       obs::Determinism::kNondeterministic)};
  return metrics;
}

struct Table {
  std::once_flag once;
  std::array<double, kTableSize> values{};
};

std::array<Table, kMaxTabledPower + 1>& tables() {
  static std::array<Table, kMaxTabledPower + 1> storage;
  return storage;
}

}  // namespace

std::span<const double> quantileTable(int k) {
  OMT_CHECK(k >= 2 && k <= kMaxTabledPower, "sin power outside table range");
  Table& table = tables()[static_cast<std::size_t>(k)];
  std::call_once(table.once, [&table, k] {
    const obs::TraceSpan span("kernel_table_build", "kernels");
    for (int j = 0; j < kTableSize; ++j) {
      table.values[static_cast<std::size_t>(j)] =
          sin_power_detail::gridQuantile(k, j);
    }
    tableMetrics().builds.add();
  });
  return table.values;
}

double sinPowerQuantileTabled(int k, double u) {
  OMT_CHECK(k >= 0, "sin power must be non-negative");
  OMT_CHECK(u >= -1e-12 && u <= 1.0 + 1e-12, "quantile outside [0, 1]");
  u = std::clamp(u, 0.0, 1.0);
  if (u == 0.0) return 0.0;
  if (u == 1.0) return kPi;
  if (k == 0) return u * kPi;
  if (k == 1) return std::acos(1.0 - 2.0 * u);
  TableMetrics& metrics = tableMetrics();
  if (k > kMaxTabledPower) {
    metrics.misses.add();
    return sinPowerQuantile(k, u);
  }
  metrics.hits.add();
  const double target = u * sinPowerTotal(k);
  int iterations = 0;
  const double t = sin_power_detail::quantileCore(k, u, target,
                                                  quantileTable(k).data(),
                                                  &iterations);
  metrics.calls.add();
  metrics.iterations.add(iterations);
  return t;
}

}  // namespace omt::kernels
