// Extension bench: failure detection and recovery under correlated faults.
//
// Part A isolates the repair policy: the same correlated crash set is
// repaired twice from identical session copies — once by the global
// detectAndRepair() sweep (every live host probes its parent, orphans go
// through full placement) and once host-by-host through the detector-driven
// repairCrashed() path (orphans contact their precomputed backup parent
// first). Shape to check: the local path costs clearly fewer contacts per
// re-homed orphan; the process exits non-zero if it does not.
//
// Part B runs the full chaos harness (fault schedule + lossy control
// channel + heartbeat detector) at several loss rates and reports the
// distributions that only exist because detection is no longer free:
// detection latency, crash-to-recovery latency, disconnected-node-seconds,
// false positives and reinstatements. Deterministic for a fixed seed.
// Besides the table/CSV, the run always writes BENCH_fault_recovery.json
// (same shape as BENCH_construction.json) so successive PRs can track the
// recovery trajectory:
//   {"bench": "fault_recovery", "rows": [{"loss_rate": ..., ...}, ...],
//    "contacts_per_orphan_local": ..., "contacts_per_orphan_sweep": ...,
//    "backup_hit_rate": ...}
#include "common.h"
#include "omt/fault/chaos.h"
#include "omt/protocol/overlay_session.h"

namespace {

struct RepairAB {
  omt::RunningStats sweepPerOrphan;      // contacts/orphan incl. probe cost
  omt::RunningStats sweepPerOrphanRepair;  // contacts/orphan excl. probes
  omt::RunningStats localPerOrphan;
  omt::RunningStats backupHitRate;
};

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace omt;
  using namespace omt::bench;
  const Args args = parseArgs(argc, argv);

  // ---- Part A: sweep vs backup-first repair on identical crash sets.
  const std::int64_t n = args.full ? 4000 : 1000;
  const int trials = args.trials ? *args.trials : (args.full ? 10 : 5);
  const double crashFraction = 0.1;

  RepairAB ab;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(deriveSeed(4200, static_cast<std::uint64_t>(trial)));
    OverlaySession session(Point(2), {.maxOutDegree = 6});
    for (std::int64_t i = 0; i < n; ++i) session.join(sampleUnitBall(rng, 2));

    // One correlated burst: a random tenth of the membership dies at once.
    std::vector<NodeId> victims;
    const auto want = static_cast<std::int64_t>(
        static_cast<double>(session.liveCount() - 1) * crashFraction);
    while (static_cast<std::int64_t>(victims.size()) < want) {
      const auto id = static_cast<NodeId>(
          1 + rng.uniformInt(static_cast<std::uint64_t>(n)));
      if (!session.isLive(id)) continue;
      session.crash(id);
      victims.push_back(id);
    }

    OverlaySession sweep = session;  // identical pre-repair state
    const std::int64_t liveBefore = sweep.liveCount();
    const std::int64_t sweepContacts0 = sweep.stats().contactCost;
    const std::int64_t sweepOrphans = sweep.detectAndRepair();
    const std::int64_t sweepContacts =
        sweep.stats().contactCost - sweepContacts0;
    const std::int64_t probeCost = std::max<std::int64_t>(0, liveBefore - 1);

    RepairReport local;
    for (const NodeId dead : victims) {
      if (!session.isPendingCrash(dead)) continue;  // purged by a cascade
      const RepairReport report = session.repairCrashed(dead);
      local.orphansReplaced += report.orphansReplaced;
      local.backupHits += report.backupHits;
      local.fallbacks += report.fallbacks;
      local.contacts += report.contacts;
    }

    if (sweepOrphans > 0) {
      ab.sweepPerOrphan.add(static_cast<double>(sweepContacts) /
                            static_cast<double>(sweepOrphans));
      ab.sweepPerOrphanRepair.add(
          static_cast<double>(sweepContacts - probeCost) /
          static_cast<double>(sweepOrphans));
    }
    if (local.orphansReplaced > 0) {
      ab.localPerOrphan.add(static_cast<double>(local.contacts) /
                            static_cast<double>(local.orphansReplaced));
      ab.backupHitRate.add(static_cast<double>(local.backupHits) /
                           static_cast<double>(local.orphansReplaced));
    }
  }

  std::cout << "Part A: contacts per re-homed orphan, sweep vs local "
               "backup-first repair (n="
            << n << ", " << trials << " trials, 10% correlated crash)\n\n";
  TextTable tableA({"Policy", "Contacts/orphan", "Min", "Max"});
  tableA.addRow({"sweep (incl. probes)", TextTable::num(ab.sweepPerOrphan.mean(), 2),
                 TextTable::num(ab.sweepPerOrphan.min(), 2),
                 TextTable::num(ab.sweepPerOrphan.max(), 2)});
  tableA.addRow({"sweep (repair only)",
                 TextTable::num(ab.sweepPerOrphanRepair.mean(), 2),
                 TextTable::num(ab.sweepPerOrphanRepair.min(), 2),
                 TextTable::num(ab.sweepPerOrphanRepair.max(), 2)});
  tableA.addRow({"local backup-first", TextTable::num(ab.localPerOrphan.mean(), 2),
                 TextTable::num(ab.localPerOrphan.min(), 2),
                 TextTable::num(ab.localPerOrphan.max(), 2)});
  std::cout << tableA.str() << "\nBackup-parent hit rate: "
            << TextTable::num(100.0 * ab.backupHitRate.mean(), 1) << "%\n\n";

  // ---- Part B: chaos runs across control-channel loss rates.
  std::cout << "Part B: chaos harness (schedule + lossy channel + heartbeat "
               "detector)\n\n";
  TextTable tableB({"Loss", "Joins", "Crashes", "Repairs", "Backup%",
                    "DetLat mean", "DetLat max", "RecLat mean", "DiscNodeSec",
                    "FalsePos", "Reinstate", "Sweep"});
  auto csv = openCsv(
      args, {"loss_rate", "joins", "crashes", "repairs", "backup_hit_rate",
             "detection_latency_mean", "detection_latency_max",
             "recovery_latency_mean", "disconnected_node_seconds",
             "false_positives", "reinstatements", "sweep_repairs"});

  BenchJsonWriter json(benchOutputPath("BENCH_fault_recovery.json"),
                       "fault_recovery");

  const double lossRates[] = {0.0, 0.05, 0.2};
  for (std::size_t i = 0; i < std::size(lossRates); ++i) {
    ChaosOptions options;
    options.schedule.duration = args.full ? 60.0 : 20.0;
    options.schedule.arrivalRate = args.full ? 30.0 : 15.0;
    options.schedule.seed = deriveSeed(4300, i);
    options.channel.lossRate = lossRates[i];
    options.channel.seed = deriveSeed(4301, i);
    options.checkInvariants = false;  // invariants are the chaos test's job
    const ChaosResult result = runChaos(options);
    if (!result.ok) {
      std::cerr << "chaos run failed at loss " << lossRates[i] << ": "
                << result.failure << "\n";
      return 1;
    }
    const double repaired = static_cast<double>(result.backupHits +
                                                result.backupFallbacks);
    const double hitRate =
        repaired > 0.0 ? static_cast<double>(result.backupHits) / repaired
                       : 0.0;
    tableB.addRow({TextTable::num(lossRates[i], 2),
                   TextTable::count(result.joins),
                   TextTable::count(result.crashes),
                   TextTable::count(result.repairs),
                   TextTable::num(100.0 * hitRate, 1),
                   TextTable::num(result.detector.detectionLatency.mean(), 3),
                   TextTable::num(result.detector.detectionLatency.max(), 3),
                   TextTable::num(result.recoveryLatency.mean(), 3),
                   TextTable::num(result.disconnectedNodeSeconds, 1),
                   TextTable::count(result.detector.falsePositives),
                   TextTable::count(result.detector.reinstatements),
                   TextTable::count(result.sweepRepairs)});
    if (csv) {
      csv->writeRow(
          {std::to_string(lossRates[i]), std::to_string(result.joins),
           std::to_string(result.crashes), std::to_string(result.repairs),
           std::to_string(hitRate),
           std::to_string(result.detector.detectionLatency.mean()),
           std::to_string(result.detector.detectionLatency.max()),
           std::to_string(result.recoveryLatency.mean()),
           std::to_string(result.disconnectedNodeSeconds),
           std::to_string(result.detector.falsePositives),
           std::to_string(result.detector.reinstatements),
           std::to_string(result.sweepRepairs)});
    }
    json.beginRow();
    json.field("loss_rate", lossRates[i]);
    json.field("joins", result.joins);
    json.field("crashes", result.crashes);
    json.field("repairs", result.repairs);
    json.field("backup_hit_rate", hitRate);
    json.field("detection_latency_mean",
               result.detector.detectionLatency.mean());
    json.field("recovery_latency_mean", result.recoveryLatency.mean());
    json.field("disconnected_node_seconds", result.disconnectedNodeSeconds);
    json.field("false_positives", result.detector.falsePositives);
    json.field("sweep_repairs", result.sweepRepairs);
    json.endRow();
  }
  json.topLevel("contacts_per_orphan_local", ab.localPerOrphan.mean());
  json.topLevel("contacts_per_orphan_sweep", ab.sweepPerOrphan.mean());
  json.topLevel("backup_hit_rate", ab.backupHitRate.mean());
  json.close();
  maybeWriteMetricsSnapshot(
      benchOutputPath("BENCH_fault_recovery.metrics.json"));
  std::cout << tableB.str() << "\n(wrote BENCH_fault_recovery.json)\n";

  // The acceptance gate: local backup-first repair must beat the sweep on
  // contacts per re-homed orphan.
  if (!(ab.localPerOrphan.mean() < ab.sweepPerOrphan.mean())) {
    std::cerr << "FAIL: local repair (" << ab.localPerOrphan.mean()
              << " contacts/orphan) is not cheaper than the sweep ("
              << ab.sweepPerOrphan.mean() << ")\n";
    return 1;
  }
  std::cout << "PASS: local backup-first repair is cheaper per orphan ("
            << TextTable::num(ab.localPerOrphan.mean(), 2) << " vs "
            << TextTable::num(ab.sweepPerOrphan.mean(), 2) << " contacts)\n";
  return 0;
}

int main(int argc, char** argv) {
  return omt::bench::runGuarded(benchMain, argc, argv);
}
