// omtbench — the repository benchmark binary. Runs one workload for a fixed
// wall-clock budget, checks every operation's output, and prints each metric
// with its unit and sample count, then one JSON result line:
//
//   omtbench --workload construct-1m|serve-skew|dataplane-lossy
//            --seed N --seconds S --trace 0|1
//
// perfbench/run.py builds this binary, pins the environment (OMT_THREADS,
// fast-math off) and trims the result line to the metrics BENCHMARK.json
// names; see perfbench/README.md for the workloads and metrics.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"
#include "omt/kernels/fast_math.h"
#include "omt/kernels/kernels.h"
#include "omt/obs/obs.h"

namespace {

using omtbench::Config;
using omtbench::Metrics;
using omtbench::Outcome;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

int usage(const char* why) {
  std::cerr << "omtbench: " << why
            << "\nusage: omtbench --workload construct-1m|serve-skew|"
               "dataplane-lossy --seed N --seconds S --trace 0|1\n";
  return 2;
}

/// The machine and configuration every result is stamped with.
std::string stamp(const Config& config) {
  namespace fm = omt::kernels::fast_math;
  const char* threads = std::getenv("OMT_THREADS");
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << quoted(OMTBENCH_COMPILER)
      << ", \"flags\": " << quoted(OMTBENCH_FLAGS)
      << ", \"omt_threads\": " << quoted(threads ? threads : "")
      << ", \"workers\": " << omtbench::kWorkers
      << ", \"fast_math_compiled\": " << (fm::compiledIn() ? "true" : "false")
      << ", \"fast_math_enabled\": " << (fm::enabled() ? "true" : "false")
      << ", \"kernel_tables\": " << (omt::kernels::enabled() ? "true" : "false")
      << ", \"obs_compiled\": " << (omt::obs::compiledIn() ? "true" : "false")
      << ", \"workload\": " << quoted(config.workload)
      << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0) << "}";
  return out.str();
}

void printMetrics(const char* kind, const Metrics& metrics) {
  for (const auto& [name, m] : metrics)
    std::cout << kind << ' ' << name << ' ' << number(m.value) << ' ' << m.unit
              << " n=" << m.samples << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool traceSet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        config.workload = value;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        traceSet = true;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (!traceSet) return usage("--trace is required");
  if (!(config.seconds > 0.0 && config.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");

  // The exact math path, and recording off except inside traced operations.
  omt::kernels::fast_math::setEnabled(false);
  omt::obs::setEnabled(false);

  Outcome outcome;
  try {
    if (config.workload == "construct-1m") outcome = omtbench::runConstruct(config);
    else if (config.workload == "serve-skew") outcome = omtbench::runServe(config);
    else if (config.workload == "dataplane-lossy") outcome = omtbench::runDataplane(config);
    else return usage(("unknown workload '" + config.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "omtbench: " << config.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const double failedFrac =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  outcome.endToEnd["ok_frac"] = {1.0 - failedFrac, "frac", outcome.attempted};
  outcome.detail["failed_frac"] = {failedFrac, "frac", outcome.attempted};

  bool correct = outcome.failed == 0 && outcome.attempted >= 1;
  for (const auto& [name, m] : outcome.endToEnd) {
    if (!std::isfinite(m.value) || m.value <= 0.0) {
      correct = false;
      std::cerr << "omtbench: end-to-end metric " << name << " is "
                << m.value << "\n";
    }
  }

  std::cout << "stamp " << stamp(config) << '\n';
  for (const std::string& note : outcome.notes) std::cout << "note " << note << '\n';
  printMetrics("workload", outcome.detail);
  printMetrics("end_to_end", outcome.endToEnd);
  printMetrics("per_layer", outcome.perLayer);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metrics* group : {&outcome.endToEnd, &outcome.perLayer}) {
    for (const auto& [name, m] : *group) {
      std::cout << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
                << (std::isfinite(m.value) ? number(m.value) : "null")
                << ", \"unit\": " << quoted(m.unit)
                << ", \"samples\": " << m.samples << "}";
      first = false;
    }
  }
  std::cout << "}}" << std::endl;
  return 0;
}
