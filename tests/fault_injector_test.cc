#include "omt/fault/injector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "omt/common/error.h"
#include "omt/geometry/point.h"

namespace omt {
namespace {

TEST(FaultInjectorTest, ScheduleIsDeterministic) {
  FaultScheduleOptions options;
  options.seed = 99;
  const auto a = generateFaultSchedule(options);
  const auto b = generateFaultSchedule(options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].entity, b[i].entity);
  }
  options.seed = 100;
  const auto c = generateFaultSchedule(options);
  bool different = a.size() != c.size();
  for (std::size_t i = 0; !different && i < a.size(); ++i)
    different = a[i].time != c[i].time;
  EXPECT_TRUE(different);
}

TEST(FaultInjectorTest, EventsSortedAndEntitiesJoinInIdOrder) {
  FaultScheduleOptions options;
  options.seed = 5;
  const auto events = generateFaultSchedule(options);
  std::int64_t lastJoinEntity = -1;
  std::vector<std::uint8_t> joined;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(events[i].time, events[i - 1].time);
    }
    EXPECT_LT(events[i].time, options.duration);
    if (events[i].kind == FaultEventKind::kJoin) {
      EXPECT_EQ(events[i].entity, lastJoinEntity + 1)
          << "joins must arrive in entity-id order";
      lastJoinEntity = events[i].entity;
      joined.resize(static_cast<std::size_t>(lastJoinEntity + 1), 0);
      joined.back() = 1;
    } else if (events[i].kind != FaultEventKind::kCrashBurst) {
      // Every departure refers to an entity that has already joined.
      ASSERT_GE(events[i].entity, 0);
      ASSERT_LT(events[i].entity, static_cast<std::int64_t>(joined.size()));
      EXPECT_TRUE(joined[static_cast<std::size_t>(events[i].entity)]);
    }
  }
}

TEST(FaultInjectorTest, FlashCrowdJoinsAreFlaggedAndClustered) {
  FaultScheduleOptions options;
  options.seed = 7;
  options.arrivalRate = 5.0;
  options.flashCrowdRate = 0.2;
  options.flashCrowdSize = 40;
  options.flashCrowdSpread = 0.1;
  const auto events = generateFaultSchedule(options);
  std::int64_t flagged = 0;
  for (const FaultEvent& event : events) {
    if (event.kind != FaultEventKind::kJoin || !event.flashCrowd) continue;
    ++flagged;
    // Cluster center is in the unit ball, offsets bounded by the spread.
    EXPECT_LE(norm(event.position), 1.0 + options.flashCrowdSpread + 1e-12);
  }
  EXPECT_GT(flagged, 0);
}

TEST(FaultInjectorTest, BurstEventsCarryGeometry) {
  FaultScheduleOptions options;
  options.seed = 8;
  options.crashBurstRate = 0.5;
  const auto events = generateFaultSchedule(options);
  std::int64_t bursts = 0;
  for (const FaultEvent& event : events) {
    if (event.kind != FaultEventKind::kCrashBurst) continue;
    ++bursts;
    EXPECT_EQ(event.radius, options.crashBurstRadius);
    EXPECT_EQ(event.killProbability, options.crashBurstKillProb);
    EXPECT_LE(norm(event.position), 1.0 + 1e-12);
  }
  EXPECT_GT(bursts, 0);
}

TEST(FaultInjectorTest, RejectsInvalidOptions) {
  FaultScheduleOptions bad;
  bad.duration = 0.0;
  EXPECT_THROW(generateFaultSchedule(bad), InvalidArgument);
  bad = {};
  bad.crashFraction = 1.5;
  EXPECT_THROW(generateFaultSchedule(bad), InvalidArgument);
  bad = {};
  bad.meanLifetime = -1.0;
  EXPECT_THROW(generateFaultSchedule(bad), InvalidArgument);
  EXPECT_THROW(ControlChannel({.lossRate = 2.0}), InvalidArgument);
  EXPECT_THROW(ControlChannel({.maxAttempts = 0}), InvalidArgument);
}

TEST(FaultInjectorTest, LosslessChannelDeliversFirstTry) {
  ControlChannel channel({.lossRate = 0.0});
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.roll());
    const auto outcome = channel.send();
    EXPECT_TRUE(outcome.delivered);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_DOUBLE_EQ(outcome.elapsed, channel.options().latency);
  }
  EXPECT_EQ(channel.stats().losses, 0);
  EXPECT_EQ(channel.stats().expiries, 0);
  EXPECT_EQ(channel.stats().messages, 100);
  EXPECT_EQ(channel.stats().transmissions, 100);
}

TEST(FaultInjectorTest, TotalLossExpiresWithFullBackoff) {
  ControlChannelOptions options;
  options.lossRate = 1.0;
  options.baseTimeout = 0.1;
  options.backoffFactor = 2.0;
  options.maxAttempts = 4;
  ControlChannel channel(options);
  EXPECT_FALSE(channel.roll());
  const auto outcome = channel.send();
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 4);
  // Waited timers: 0.1 + 0.2 + 0.4, plus the final 0.8 expiring unanswered.
  EXPECT_NEAR(outcome.elapsed, 0.1 + 0.2 + 0.4 + 0.8, 1e-12);
  EXPECT_EQ(channel.stats().expiries, 1);
  EXPECT_EQ(channel.stats().transmissions, 5);  // 1 roll + 4 send attempts
}

TEST(FaultInjectorTest, ChannelLossPatternIsSeeded) {
  ControlChannelOptions options;
  options.lossRate = 0.4;
  options.seed = 21;
  ControlChannel a(options);
  ControlChannel b(options);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.roll(), b.roll());
  EXPECT_GT(a.stats().losses, 0);
  EXPECT_LT(a.stats().losses, 200);
}

}  // namespace
}  // namespace omt
