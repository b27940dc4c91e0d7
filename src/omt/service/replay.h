// Shared replay harness over GroupManager: batch a membership script
// through apply(), quiesce the tail, and audit every group's final
// snapshot. `omtcli serve`, bench_service, and the service test gates all
// drive replays through this one helper so they agree on what
// "converged" means: zero degraded groups after quiesce and every
// published table passing its structural consistency audit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "omt/service/group_manager.h"
#include "omt/service/script.h"

namespace omt {

struct ReplayOptions {
  /// Events per apply() batch (the publish granularity).
  std::int64_t batchSize = 1024;
  /// Drain degraded state after the last batch (RPC parks, corpses).
  bool quiesceAtEnd = true;
  int quiesceRounds = 32;
  /// Run RouteTable::checkConsistency on every group's final table.
  bool auditTables = true;
};

struct ReplayResult {
  std::int64_t events = 0;
  std::int64_t batches = 0;
  std::int64_t publishes = 0;
  std::int64_t groups = 0;           ///< groups ever created
  std::int64_t liveGroups = 0;       ///< still holding members at the end
  std::int64_t degradedGroups = 0;   ///< left degraded after quiesce
  std::int64_t inconsistentGroups = 0;
  std::string firstInconsistency;    ///< first audit failure message
  double applySeconds = 0.0;         ///< wall time inside apply()/quiesce()
  /// Forwarded from ApplyReport (ServiceOptions::measureLatency).
  std::vector<double> eventLatencies;

  bool converged() const {
    return degradedGroups == 0 && inconsistentGroups == 0;
  }
};

/// Replay `events` into `manager` in batches. The script must be valid
/// against the manager's current state (no double joins etc.).
ReplayResult replayScript(GroupManager& manager,
                          std::span<const MembershipEvent> events,
                          const ReplayOptions& options = {});

/// Worker-count-independent fingerprint of the whole service: mixes every
/// created group's (id, table fingerprint) in ascending group order. Equal
/// populations with equal trees hash equal for any worker count or
/// OMT_THREADS — the chaos gate's determinism check.
std::uint64_t serviceFingerprint(const GroupManager& manager);

}  // namespace omt
