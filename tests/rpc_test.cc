#include "omt/rpc/rpc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "omt/fault/injector.h"
#include "omt/protocol/overlay_session.h"
#include "omt/rpc/channel.h"
#include "omt/rpc/reliable_session.h"

namespace omt {
namespace {

RpcOptions lossless() {
  RpcOptions options;
  options.channel.lossRate = 0.0;
  options.jitterFraction = 0.0;
  return options;
}

// ---------------------------------------------------------------------------
// DisruptionSchedule

TEST(DisruptionScheduleTest, PartitionSeversExactlyOneSideInside) {
  DisruptionWindow window;
  window.start = 1.0;
  window.end = 2.0;
  window.partition = true;
  window.center = Point{0.0, 0.0};
  window.radius = 0.5;
  const DisruptionSchedule schedule({window});

  const Point inside{0.1, 0.0};
  const Point alsoInside{0.0, 0.2};
  const Point outside{0.9, 0.0};
  // Active only within [start, end).
  EXPECT_FALSE(schedule.severed(inside, outside, 0.5));
  EXPECT_TRUE(schedule.severed(inside, outside, 1.0));
  EXPECT_TRUE(schedule.severed(outside, inside, 1.5));
  EXPECT_FALSE(schedule.severed(inside, outside, 2.0));
  // Both endpoints on the same side keep talking.
  EXPECT_FALSE(schedule.severed(inside, alsoInside, 1.5));
  EXPECT_FALSE(schedule.severed(outside, Point{0.0, 0.9}, 1.5));
}

TEST(DisruptionScheduleTest, LossBoostsCombineAndDelaysSum) {
  DisruptionWindow a;
  a.start = 0.0;
  a.end = 10.0;
  a.lossBoost = 0.5;
  a.extraDelay = 0.1;
  DisruptionWindow b;
  b.start = 5.0;
  b.end = 15.0;
  b.lossBoost = 0.5;
  b.extraDelay = 0.2;
  const DisruptionSchedule schedule({a, b});

  EXPECT_DOUBLE_EQ(schedule.lossBoostAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(schedule.lossBoostAt(7.0), 0.75);  // 1 - 0.5 * 0.5
  EXPECT_DOUBLE_EQ(schedule.lossBoostAt(12.0), 0.5);
  EXPECT_DOUBLE_EQ(schedule.lossBoostAt(20.0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.extraDelayAt(2.0), 0.1);
  EXPECT_NEAR(schedule.extraDelayAt(7.0), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(schedule.extraDelayAt(12.0), 0.2);
}

TEST(DisruptionScheduleTest, GeneratedWindowsAreValidAndDeterministic) {
  DisruptionOptions options;
  options.duration = 200.0;
  options.partitionRate = 0.1;
  options.lossBurstRate = 0.1;
  options.delaySpellRate = 0.1;
  options.seed = 99;
  const std::vector<DisruptionWindow> first = generateDisruption(options, 2);
  const std::vector<DisruptionWindow> second = generateDisruption(options, 2);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  double lastStart = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].start, second[i].start);
    EXPECT_EQ(first[i].partition, second[i].partition);
    EXPECT_GE(first[i].start, lastStart);
    EXPECT_GE(first[i].start, 0.0);
    EXPECT_GT(first[i].end, first[i].start);
    EXPECT_LE(first[i].end, options.duration);
    if (first[i].partition) {
      EXPECT_GT(first[i].radius, 0.0);
    }
    lastStart = first[i].start;
  }
}

// ---------------------------------------------------------------------------
// RpcLayer

TEST(RpcLayerTest, MintProducesMonotoneSequencesPerOrigin) {
  RpcLayer rpc(lossless());
  const OpId a0 = rpc.mint(7);
  const OpId a1 = rpc.mint(7);
  const OpId b0 = rpc.mint(9);
  EXPECT_EQ(a0.origin, 7);
  EXPECT_EQ(a0.sequence, 0);
  EXPECT_EQ(a1.sequence, 1);
  EXPECT_EQ(b0.origin, 9);
  EXPECT_EQ(b0.sequence, 0);
  EXPECT_FALSE(a0 == a1);
  EXPECT_FALSE(a0 == b0);
}

TEST(RpcLayerTest, LosslessCallAcksOnFirstAttempt) {
  RpcLayer rpc(lossless());
  const OpId id = rpc.mint(1);
  const RpcLayer::Outcome out = rpc.call(id, {1, 0, 0.0});
  EXPECT_TRUE(out.acked);
  EXPECT_TRUE(out.applied);
  EXPECT_FALSE(out.duplicate);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_DOUBLE_EQ(out.elapsed, 2.0 * rpc.options().channel.latency);
  EXPECT_EQ(rpc.stats().acked, 1);
  EXPECT_EQ(rpc.stats().exhausted, 0);
}

TEST(RpcLayerTest, RedeliveredOpIdIsNeverReapplied) {
  RpcLayer rpc(lossless());
  const OpId id = rpc.mint(1);
  const RpcLayer::Outcome first = rpc.call(id, {1, 0, 0.0});
  EXPECT_TRUE(first.applied);
  EXPECT_TRUE(rpc.appliedBefore(id));
  rpc.recordApplication(id);

  // Anti-entropy style re-delivery of the same operation: acknowledged,
  // flagged as a duplicate, NOT applied a second time.
  const RpcLayer::Outcome again = rpc.call(id, {1, 0, 1.0});
  EXPECT_TRUE(again.acked);
  EXPECT_FALSE(again.applied);
  EXPECT_TRUE(again.duplicate);
  EXPECT_EQ(rpc.stats().duplicateDeliveries, 1);
  EXPECT_EQ(rpc.stats().duplicatesApplied, 0);

  // A caller that re-applies anyway is caught by the confirmation ledger.
  rpc.recordApplication(id);
  EXPECT_EQ(rpc.stats().duplicatesApplied, 1);
}

TEST(RpcLayerTest, ExhaustedCallBacksOffExponentiallyWithCap) {
  RpcOptions options = lossless();
  options.channel.lossRate = 1.0;  // nothing ever gets through
  options.channel.baseTimeout = 0.05;
  options.channel.backoffFactor = 2.0;
  options.channel.maxAttempts = 6;
  options.maxTimeout = 0.15;
  RpcLayer rpc(options);
  const RpcLayer::Outcome out = rpc.call(rpc.mint(1), {1, 0, 0.0});
  EXPECT_FALSE(out.acked);
  EXPECT_FALSE(out.applied);
  EXPECT_EQ(out.attempts, 6);
  // 0.05 + 0.10 + 0.15 + 0.15 + 0.15 + 0.15: doubled, then capped.
  EXPECT_NEAR(out.elapsed, 0.75, 1e-12);
  EXPECT_EQ(rpc.stats().exhausted, 1);
}

TEST(RpcLayerTest, TimeoutJitterIsDeterministicPerHost) {
  RpcOptions options = lossless();
  options.channel.lossRate = 1.0;
  options.channel.maxAttempts = 2;
  options.jitterFraction = 0.4;
  RpcLayer rpc(options);
  RpcLayer twin(options);
  const double a = rpc.call(rpc.mint(3), {3, 0, 0.0}).elapsed;
  const double b = rpc.call(rpc.mint(4), {4, 0, 0.0}).elapsed;
  // Different hosts back off at different (but reproducible) rates.
  EXPECT_NE(a, b);
  EXPECT_DOUBLE_EQ(a, twin.call(twin.mint(3), {3, 0, 0.0}).elapsed);
  EXPECT_DOUBLE_EQ(b, twin.call(twin.mint(4), {4, 0, 0.0}).elapsed);
}

/// Fixture with a single partition around the receiver for [0, 50): every
/// call into it fails deterministically, calls after 50 succeed.
class BreakerTest : public ::testing::Test {
 protected:
  BreakerTest() {
    DisruptionWindow window;
    window.start = 0.0;
    window.end = 50.0;
    window.partition = true;
    window.center = Point{0.9, 0.0};
    window.radius = 0.3;
    positions_ = {Point{0.0, 0.0}, Point{0.9, 0.0}};
    RpcOptions options = lossless();
    options.channel.baseTimeout = 0.05;
    options.channel.maxAttempts = 3;
    options.breakerThreshold = 2;
    options.breakerCooldown = 1.0;
    rpc_ = std::make_unique<RpcLayer>(
        options, DisruptionSchedule({window}),
        [this](std::int64_t id) -> const Point* {
          return &positions_[static_cast<std::size_t>(id)];
        });
  }

  std::vector<Point> positions_;
  std::unique_ptr<RpcLayer> rpc_;
};

TEST_F(BreakerTest, TripsAfterConsecutiveExhaustionsAndShortCircuits) {
  // Exhausted elapsed per call: 0.05 + 0.10 + 0.20 = 0.35.
  EXPECT_FALSE(rpc_->call(rpc_->mint(0), {0, 1, 0.0}).acked);
  EXPECT_EQ(rpc_->breakerState(1, 0.5), BreakerState::kClosed);
  EXPECT_FALSE(rpc_->call(rpc_->mint(0), {0, 1, 1.0}).acked);
  EXPECT_EQ(rpc_->stats().breakerTrips, 1);
  EXPECT_EQ(rpc_->breakerState(1, 1.5), BreakerState::kOpen);

  const RpcLayer::Outcome refused = rpc_->call(rpc_->mint(0), {0, 1, 2.0});
  EXPECT_TRUE(refused.shortCircuited);
  EXPECT_EQ(refused.attempts, 0);
  EXPECT_EQ(rpc_->stats().shortCircuited, 1);
}

TEST_F(BreakerTest, HalfOpenProbeReopensOnFailureAndClosesOnSuccess) {
  rpc_->call(rpc_->mint(0), {0, 1, 0.0});
  rpc_->call(rpc_->mint(0), {0, 1, 1.0});  // trips; reopenAt = 2.35
  EXPECT_EQ(rpc_->breakerState(1, 2.0), BreakerState::kOpen);
  EXPECT_EQ(rpc_->breakerState(1, 2.5), BreakerState::kHalfOpen);

  // Probe inside the partition: fails and re-opens for another cooldown.
  const RpcLayer::Outcome probe = rpc_->call(rpc_->mint(0), {0, 1, 3.0});
  EXPECT_FALSE(probe.shortCircuited);
  EXPECT_FALSE(probe.acked);
  EXPECT_EQ(rpc_->stats().breakerReopens, 1);
  EXPECT_EQ(rpc_->breakerState(1, 4.0), BreakerState::kOpen);

  // Probe after the partition lifts: succeeds and closes the breaker.
  const RpcLayer::Outcome heal = rpc_->call(rpc_->mint(0), {0, 1, 60.0});
  EXPECT_TRUE(heal.acked);
  EXPECT_EQ(rpc_->stats().breakerRecoveries, 1);
  EXPECT_EQ(rpc_->breakerState(1, 60.0), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// ReliableSessionDriver

SessionOptions degree(int d) {
  SessionOptions options;
  options.maxOutDegree = d;
  return options;
}

/// Driver fixture with a partition around (0.9, 0) for [0, 5): hosts in that
/// ball cannot reach the rest of the overlay until t = 5.
class DriverTest : public ::testing::Test {
 protected:
  DriverTest() : session_(Point{0.0, 0.0}, degree(3)) {
    DisruptionWindow window;
    window.start = 0.0;
    window.end = 5.0;
    window.partition = true;
    window.center = Point{0.9, 0.0};
    window.radius = 0.2;
    RpcOptions options = lossless();
    options.channel.maxAttempts = 2;
    rpc_ = std::make_unique<RpcLayer>(
        options, DisruptionSchedule({window}),
        [this](std::int64_t id) -> const Point* {
          const auto node = static_cast<NodeId>(id);
          if (node < 0 || node >= session_.hostCount()) return nullptr;
          if (!session_.isLive(node)) return nullptr;
          return &session_.positionOf(node);
        });
    driver_ = std::make_unique<ReliableSessionDriver>(session_, *rpc_);
  }

  OverlaySession session_;
  std::unique_ptr<RpcLayer> rpc_;
  std::unique_ptr<ReliableSessionDriver> driver_;
};

TEST_F(DriverTest, PartitionedJoinParksAndAuditReattaches) {
  // A near host joins cleanly.
  const auto near = driver_->driveJoin(Point{0.1, 0.0}, 0.0);
  EXPECT_TRUE(near.result.completed);
  EXPECT_FALSE(session_.isParked(near.id));

  // The partitioned host is admitted but its ATTACH cannot get out.
  const auto far = driver_->driveJoin(Point{0.9, 0.0}, 0.0);
  EXPECT_FALSE(far.result.applied);
  EXPECT_TRUE(far.result.degraded);
  EXPECT_TRUE(session_.isParked(far.id));
  EXPECT_TRUE(session_.isLive(far.id));
  EXPECT_EQ(session_.parkedCount(), 1);
  EXPECT_TRUE(driver_->reconcilePending());

  // Audit during the partition re-drives without success.
  const auto blocked = driver_->runAudit(1.0);
  EXPECT_EQ(blocked.redriven, 1);
  EXPECT_EQ(blocked.reattached, 0);
  EXPECT_TRUE(session_.isParked(far.id));

  // Audit after the partition lifts heals the parked host.
  const auto healed = driver_->runAudit(6.0);
  EXPECT_EQ(healed.reattached, 1);
  EXPECT_FALSE(session_.isParked(far.id));
  EXPECT_EQ(session_.parkedCount(), 0);
  EXPECT_FALSE(driver_->reconcilePending());
  EXPECT_EQ(driver_->stats().auditReattaches, 1);
  EXPECT_EQ(rpc_->stats().duplicatesApplied, 0);
}

TEST_F(DriverTest, PartitionedLeaveDegradesIntoSilentCrash) {
  const auto joined = driver_->driveJoin(Point{0.9, 0.0}, 6.0);
  ASSERT_TRUE(joined.result.applied);

  const auto mid = driver_->driveJoin(Point{0.1, 0.0}, 6.0);
  ASSERT_TRUE(mid.result.applied);
  const auto gone = driver_->driveLeave(joined.id, 7.0);
  EXPECT_FALSE(gone.silent);  // outside the window the goodbye lands
  EXPECT_FALSE(session_.isLive(joined.id));

  // Now a leaver severed from its parent: a fresh overlay whose partition
  // ball swallows the source, so the outsider's goodbye cannot land.
  OverlaySession session(Point{0.0, 0.0}, degree(3));
  DisruptionWindow window;
  window.start = 0.0;
  window.end = 5.0;
  window.partition = true;
  window.center = Point{0.0, 0.0};
  window.radius = 0.5;  // the SOURCE side is cut off this time
  RpcOptions options = lossless();
  options.channel.maxAttempts = 2;
  RpcLayer rpc(options, DisruptionSchedule({window}),
               [&session](std::int64_t id) -> const Point* {
                 const auto node = static_cast<NodeId>(id);
                 if (node < 0 || node >= session.hostCount()) return nullptr;
                 if (!session.isLive(node)) return nullptr;
                 return &session.positionOf(node);
               });
  ReliableSessionDriver driver(session, rpc);
  const NodeId outsider = session.join(Point{0.9, 0.0});
  const auto silent = driver.driveLeave(outsider, 1.0);
  EXPECT_TRUE(silent.silent);
  EXPECT_TRUE(silent.degraded);
  EXPECT_FALSE(session.isLive(outsider));
  EXPECT_EQ(driver.stats().leavesSilent, 1);
}

TEST_F(DriverTest, DeferredPurgeIsRedrivenByTheAudit) {
  // Build a small overlay entirely after the partition logic matters:
  // the reporter lives inside the partitioned ball, so its PURGE
  // announcement to the source is severed until t = 5.
  const NodeId parent = session_.join(Point{0.85, 0.0});
  const NodeId reporter = session_.join(Point{0.9, 0.05});
  ASSERT_TRUE(session_.isLive(parent));
  session_.crash(parent);
  ASSERT_TRUE(session_.isPendingCrash(parent));

  const auto blocked = driver_->driveRepair(parent, reporter, 1.0);
  EXPECT_FALSE(blocked.purged);
  EXPECT_TRUE(blocked.result.degraded);
  EXPECT_TRUE(session_.isPendingCrash(parent));
  EXPECT_EQ(driver_->stats().repairsDeferred, 1);
  EXPECT_TRUE(driver_->reconcilePending());

  // The audit re-drives the purge once the partition lifts; the corpse is
  // removed and its orphans re-homed.
  const auto sweep = driver_->runAudit(6.0);
  EXPECT_EQ(sweep.repairsRedriven, 1);
  EXPECT_FALSE(session_.isPendingCrash(parent));
  EXPECT_EQ(session_.undetectedCrashes(), 0);
  EXPECT_EQ(session_.parkedCount(), 0);
  EXPECT_EQ(driver_->stats().repairsPurged, 1);
  EXPECT_EQ(rpc_->stats().duplicatesApplied, 0);
}

TEST_F(DriverTest, MigrateParksThenReattaches) {
  const auto a = driver_->driveJoin(Point{0.2, 0.0}, 6.0);
  const auto b = driver_->driveJoin(Point{0.25, 0.05}, 6.0);
  ASSERT_TRUE(a.result.applied);
  ASSERT_TRUE(b.result.applied);
  const auto moved = driver_->driveMigrate(b.id, 7.0);
  EXPECT_TRUE(moved.applied);
  EXPECT_FALSE(session_.isParked(b.id));
  EXPECT_EQ(driver_->stats().migrations, 1);
}

}  // namespace
}  // namespace omt
