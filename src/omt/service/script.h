// Multi-group membership scripts: the event stream a GroupManager ingests,
// a deterministic generator for synthetic workloads, and a line-oriented
// file format so `omtcli serve` replays are reproducible artifacts.
//
// A script models a *shared host population*: hosts have fixed positions
// and stable service-wide ids, and one host is typically a member of
// several groups at once (the overlap is what the cross-group-leakage
// gate stresses — group A's churn must never perturb group B's tree).
// Events are ordered by time with a deterministic tie-break, and every
// event is tagged with its group; restricted to one group's subsequence a
// script is an ordinary single-session membership trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "omt/geometry/point.h"
#include "omt/service/route_table.h"

namespace omt {

enum class ServiceEventKind : std::uint8_t {
  kJoin,   ///< host joins the group (position carried on the event)
  kLeave,  ///< graceful departure
  kCrash,  ///< silent crash (the service repairs after "detection")
};

struct MembershipEvent {
  double time = 0.0;
  GroupId group = 0;
  ServiceEventKind kind = ServiceEventKind::kJoin;
  HostId host = 0;
  Point position;  ///< kJoin only; the host's fixed population position
};

struct ScriptOptions {
  std::int64_t groups = 1000;   ///< group id space [0, groups)
  std::int64_t hosts = 20000;   ///< shared population size
  std::int64_t events = 100000; ///< total membership events
  int dim = 2;                  ///< host positions in the unit ball
  std::uint64_t seed = 1;
  /// Mean live membership a group drifts toward once seeded: below it
  /// events favour joins, above it departures (keeps every group alive
  /// and the population stationary without global coordination).
  double meanGroupSize = 24.0;
  /// Zipf exponent over group ids for per-group target sizes: group g
  /// drifts toward a target proportional to (g+1)^-sizeSkew, normalised so
  /// the population mean stays meanGroupSize (and capped at hosts/2, so a
  /// hot group cannot exhaust the population). 0 = every group targets the
  /// mean (the uniform workload); 1.0 is the classic heavy-head shape that
  /// the skewed service benchmarks stress.
  double sizeSkew = 0.0;
  /// Fraction of departures that are silent crashes instead of leaves.
  double crashFraction = 0.3;
  /// Mean simulated time between consecutive events (exponential gaps);
  /// only matters to transports that consume timestamps (RPC mode).
  double meanEventGap = 1e-3;
};

/// Generate a time-sorted membership script. Deterministic in the options:
/// the same options always produce the identical event vector. Every
/// group in [0, groups) receives at least one join (groups are seeded
/// round-robin before the random phase), no event ever joins a current
/// member or departs a non-member, and a departed host can re-join later.
std::vector<MembershipEvent> generateMembershipScript(
    const ScriptOptions& options);

/// The subsequence of `events` belonging to `group`, order preserved.
std::vector<MembershipEvent> filterGroup(
    const std::vector<MembershipEvent>& events, GroupId group);

/// Save/load the line format:
///   # omt-membership-script v1
///   dim <d>
///   <time> <group> J <host> <x> <y> [...]
///   <time> <group> L|C <host>
/// Round-trips exactly (times are written with max precision).
void saveMembershipScript(const std::string& path,
                          const std::vector<MembershipEvent>& events,
                          int dim);
std::vector<MembershipEvent> loadMembershipScript(const std::string& path,
                                                  int* dimOut = nullptr);

}  // namespace omt
