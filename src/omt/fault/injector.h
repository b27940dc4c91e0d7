// Deterministic fault injection: correlated failure schedules and
// control-plane disruption schedules.
//
// The churn module (omt/protocol/churn.h) models *independent* arrivals and
// departures; real overlay failures are correlated. This injector generates
// seeded schedules that add, on top of a Poisson background of joins and
// (graceful or silent) departures:
//   * crash bursts — a regional outage kills every live host inside a random
//     disk with some probability, all at the same instant;
//   * flash crowds — a wave of joins spatially clustered around a random
//     center, compressed into a short window;
// plus disruption windows aimed at control traffic (loss bursts, delay
// spells, regional partitions) consumed by the RPC layer in omt/rpc.
//
// The lossy ControlChannel itself lives in omt/rpc/channel.h (re-exported
// here for older call sites); the injector only *generates* trouble.
//
// Everything is driven by explicit 64-bit seeds: the same options always
// produce the same schedule and the same per-message loss pattern.
#pragma once

#include <cstdint>
#include <vector>

#include "omt/geometry/point.h"
#include "omt/random/rng.h"
#include "omt/rpc/channel.h"

namespace omt {

struct FaultScheduleOptions {
  double duration = 60.0;  ///< schedule length in time units
  int dim = 2;             ///< host positions in the unit ball
  std::uint64_t seed = 1;

  // Background churn (Poisson arrivals, exponential lifetimes).
  double arrivalRate = 30.0;   ///< background joins per unit time
  double meanLifetime = 20.0;  ///< mean session length
  double crashFraction = 0.3;  ///< departures that are silent crashes

  // Correlated regional outages.
  double crashBurstRate = 0.05;      ///< bursts per unit time (0 disables)
  double crashBurstRadius = 0.3;     ///< outage disk radius
  double crashBurstKillProb = 0.9;   ///< per-host kill probability inside

  // Flash-crowd join waves.
  double flashCrowdRate = 0.05;      ///< waves per unit time (0 disables)
  int flashCrowdSize = 60;           ///< joins per wave
  double flashCrowdSpread = 0.15;    ///< cluster radius around the center
  double flashCrowdWindow = 1.0;     ///< wave joins spread over this window
};

enum class FaultEventKind : std::uint8_t {
  kJoin,
  kLeave,
  kCrash,       ///< one host dies silently
  kCrashBurst,  ///< regional outage (victims resolved against live state)
};

struct FaultEvent {
  double time = 0.0;
  FaultEventKind kind = FaultEventKind::kJoin;
  /// kJoin/kLeave/kCrash: trace-local entity id; entities join in id order
  /// and each kLeave/kCrash refers to the entity of its kJoin.
  std::int64_t entity = -1;
  Point position;          ///< kJoin: host position; kCrashBurst: center
  double radius = 0.0;     ///< kCrashBurst: outage radius
  double killProbability = 0.0;  ///< kCrashBurst: per-host kill probability
  bool flashCrowd = false;       ///< kJoin born inside a flash-crowd wave
};

/// Generate a time-sorted fault schedule. Entities whose lifetime extends
/// past `duration` never depart. Deterministic in the options.
std::vector<FaultEvent> generateFaultSchedule(
    const FaultScheduleOptions& options);

struct DisruptionOptions {
  double duration = 60.0;  ///< schedule length in time units
  std::uint64_t seed = 1;

  // Regional control-plane partitions.
  double partitionRate = 0.05;     ///< partitions per unit time (0 disables)
  double partitionRadius = 0.3;    ///< severed-region radius
  double partitionMeanLength = 2.0;  ///< mean partition duration

  // Global loss bursts on control traffic.
  double lossBurstRate = 0.05;     ///< bursts per unit time (0 disables)
  double lossBurstBoost = 0.5;     ///< extra loss probability while active
  double lossBurstMeanLength = 1.0;  ///< mean burst duration

  // Global delay spells on control traffic.
  double delaySpellRate = 0.0;     ///< spells per unit time (0 disables)
  double delaySpellExtra = 0.1;    ///< added one-way latency while active
  double delaySpellMeanLength = 1.0;  ///< mean spell duration
};

/// Generate a start-time-sorted set of disruption windows. Window lengths
/// are exponential with the configured means, truncated at `duration`;
/// partition centres are drawn in the unit ball of dimension `dim`, which
/// must be the dimension of the host positions the windows are tested
/// against. Deterministic in the options and `dim`.
std::vector<DisruptionWindow> generateDisruption(
    const DisruptionOptions& options, int dim);

}  // namespace omt
