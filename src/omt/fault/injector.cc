#include "omt/fault/injector.h"

#include <algorithm>
#include <cmath>

#include "omt/common/error.h"
#include "omt/random/samplers.h"

namespace omt {
namespace {

/// Exponential variate with the given mean.
double exponential(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform());
}

/// A point clustered around `center`: center plus a uniform-ball offset of
/// radius `spread` (flash crowds are geographically local audiences).
Point clusteredPoint(Rng& rng, const Point& center, double spread, int dim) {
  const Point offset = sampleUnitBall(rng, dim);
  Point p(dim);
  for (int j = 0; j < dim; ++j) p[j] = center[j] + spread * offset[j];
  return p;
}

struct PendingJoin {
  double time;
  Point position;
  bool flashCrowd;
};

}  // namespace

std::vector<FaultEvent> generateFaultSchedule(
    const FaultScheduleOptions& options) {
  OMT_CHECK(options.duration > 0.0, "duration must be positive");
  OMT_CHECK(options.dim >= 2 && options.dim <= kMaxDim,
            "dimension out of range");
  OMT_CHECK(options.arrivalRate >= 0.0, "arrival rate must be non-negative");
  OMT_CHECK(options.meanLifetime > 0.0, "mean lifetime must be positive");
  OMT_CHECK(options.crashFraction >= 0.0 && options.crashFraction <= 1.0,
            "crash fraction outside [0, 1]");
  OMT_CHECK(options.crashBurstRate >= 0.0, "burst rate must be non-negative");
  OMT_CHECK(options.crashBurstRadius > 0.0 || options.crashBurstRate == 0.0,
            "burst radius must be positive");
  OMT_CHECK(
      options.crashBurstKillProb >= 0.0 && options.crashBurstKillProb <= 1.0,
      "burst kill probability outside [0, 1]");
  OMT_CHECK(options.flashCrowdRate >= 0.0, "wave rate must be non-negative");
  OMT_CHECK(options.flashCrowdSize > 0 || options.flashCrowdRate == 0.0,
            "wave size must be positive");
  OMT_CHECK(options.flashCrowdSpread >= 0.0, "wave spread must be >= 0");
  OMT_CHECK(options.flashCrowdWindow > 0.0 || options.flashCrowdRate == 0.0,
            "wave window must be positive");

  // Joins first (background + waves), so entity ids can follow join order.
  Rng joinRng(deriveSeed(options.seed, 0x6a6f696eULL));
  std::vector<PendingJoin> joins;
  if (options.arrivalRate > 0.0) {
    double now = 0.0;
    while (true) {
      now += exponential(joinRng, 1.0 / options.arrivalRate);
      if (now >= options.duration) break;
      joins.push_back({now, sampleUnitBall(joinRng, options.dim), false});
    }
  }
  if (options.flashCrowdRate > 0.0) {
    Rng waveRng(deriveSeed(options.seed, 0x77617665ULL));
    double now = 0.0;
    while (true) {
      now += exponential(waveRng, 1.0 / options.flashCrowdRate);
      if (now >= options.duration) break;
      const Point center = sampleUnitBall(waveRng, options.dim);
      for (int i = 0; i < options.flashCrowdSize; ++i) {
        const double t = now + waveRng.uniform() * options.flashCrowdWindow;
        if (t >= options.duration) continue;
        joins.push_back(
            {t, clusteredPoint(waveRng, center, options.flashCrowdSpread,
                               options.dim),
             true});
      }
    }
  }
  std::stable_sort(joins.begin(), joins.end(),
                   [](const PendingJoin& a, const PendingJoin& b) {
                     return a.time < b.time;
                   });

  // Entities in join order; departures drawn per entity.
  Rng lifeRng(deriveSeed(options.seed, 0x6c696665ULL));
  std::vector<FaultEvent> events;
  events.reserve(joins.size() * 2);
  for (std::size_t entity = 0; entity < joins.size(); ++entity) {
    FaultEvent join;
    join.time = joins[entity].time;
    join.kind = FaultEventKind::kJoin;
    join.entity = static_cast<std::int64_t>(entity);
    join.position = joins[entity].position;
    join.flashCrowd = joins[entity].flashCrowd;
    events.push_back(join);

    const double leaveTime =
        join.time + exponential(lifeRng, options.meanLifetime);
    if (leaveTime < options.duration) {
      FaultEvent leave;
      leave.time = leaveTime;
      leave.kind = lifeRng.uniform() < options.crashFraction
                       ? FaultEventKind::kCrash
                       : FaultEventKind::kLeave;
      leave.entity = static_cast<std::int64_t>(entity);
      events.push_back(leave);
    }
  }

  // Regional outages.
  if (options.crashBurstRate > 0.0) {
    Rng burstRng(deriveSeed(options.seed, 0x6275727374ULL));
    double now = 0.0;
    while (true) {
      now += exponential(burstRng, 1.0 / options.crashBurstRate);
      if (now >= options.duration) break;
      FaultEvent burst;
      burst.time = now;
      burst.kind = FaultEventKind::kCrashBurst;
      burst.position = sampleUnitBall(burstRng, options.dim);
      burst.radius = options.crashBurstRadius;
      burst.killProbability = options.crashBurstKillProb;
      events.push_back(burst);
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

std::vector<DisruptionWindow> generateDisruption(
    const DisruptionOptions& options, int dim) {
  OMT_CHECK(options.duration > 0.0, "duration must be positive");
  OMT_CHECK(dim >= 2 && dim <= kMaxDim, "dimension out of range");
  OMT_CHECK(options.partitionRate >= 0.0,
            "partition rate must be non-negative");
  OMT_CHECK(options.partitionRadius > 0.0 || options.partitionRate == 0.0,
            "partition radius must be positive");
  OMT_CHECK(options.partitionMeanLength > 0.0 || options.partitionRate == 0.0,
            "partition length must be positive");
  OMT_CHECK(options.lossBurstRate >= 0.0,
            "loss-burst rate must be non-negative");
  OMT_CHECK(options.lossBurstBoost >= 0.0 && options.lossBurstBoost <= 1.0,
            "loss-burst boost outside [0, 1]");
  OMT_CHECK(options.lossBurstMeanLength > 0.0 || options.lossBurstRate == 0.0,
            "loss-burst length must be positive");
  OMT_CHECK(options.delaySpellRate >= 0.0,
            "delay-spell rate must be non-negative");
  OMT_CHECK(options.delaySpellExtra >= 0.0,
            "delay-spell extra must be non-negative");
  OMT_CHECK(options.delaySpellMeanLength > 0.0 ||
                options.delaySpellRate == 0.0,
            "delay-spell length must be positive");

  std::vector<DisruptionWindow> windows;
  if (options.partitionRate > 0.0) {
    Rng rng(deriveSeed(options.seed, 0x70617274ULL));
    double now = 0.0;
    while (true) {
      now += exponential(rng, 1.0 / options.partitionRate);
      if (now >= options.duration) break;
      DisruptionWindow w;
      w.start = now;
      w.end = std::min(options.duration,
                       now + exponential(rng, options.partitionMeanLength));
      w.partition = true;
      w.center = sampleUnitBall(rng, dim);
      w.radius = options.partitionRadius;
      windows.push_back(w);
    }
  }
  if (options.lossBurstRate > 0.0) {
    Rng rng(deriveSeed(options.seed, 0x6c6f7373ULL));
    double now = 0.0;
    while (true) {
      now += exponential(rng, 1.0 / options.lossBurstRate);
      if (now >= options.duration) break;
      DisruptionWindow w;
      w.start = now;
      w.end = std::min(options.duration,
                       now + exponential(rng, options.lossBurstMeanLength));
      w.lossBoost = options.lossBurstBoost;
      windows.push_back(w);
    }
  }
  if (options.delaySpellRate > 0.0) {
    Rng rng(deriveSeed(options.seed, 0x64656c61ULL));
    double now = 0.0;
    while (true) {
      now += exponential(rng, 1.0 / options.delaySpellRate);
      if (now >= options.duration) break;
      DisruptionWindow w;
      w.start = now;
      w.end = std::min(options.duration,
                       now + exponential(rng, options.delaySpellMeanLength));
      w.extraDelay = options.delaySpellExtra;
      windows.push_back(w);
    }
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const DisruptionWindow& a, const DisruptionWindow& b) {
                     return a.start < b.start;
                   });
  return windows;
}

}  // namespace omt
