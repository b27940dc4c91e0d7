#include "omt/fault/chaos.h"

#include <gtest/gtest.h>

#include "omt/random/rng.h"

namespace omt {
namespace {

/// A compact scenario that still exercises every event kind: flash crowds,
/// bursts, graceful and silent departures, and a lossy control plane.
ChaosOptions smallScenario(std::uint64_t trial) {
  ChaosOptions options;
  options.schedule.duration = 6.0;
  options.schedule.arrivalRate = 8.0;
  options.schedule.meanLifetime = 4.0;
  options.schedule.crashFraction = 0.4;
  options.schedule.crashBurstRate = 0.2;
  options.schedule.flashCrowdRate = 0.15;
  options.schedule.flashCrowdSize = 12;
  options.schedule.seed = deriveSeed(0xc4a05ULL, trial);
  const double lossRates[] = {0.0, 0.05, 0.2, 0.5};
  options.channel.lossRate = lossRates[trial % 4];
  options.channel.seed = deriveSeed(0xc4a06ULL, trial);
  options.session.maxOutDegree = trial % 2 == 0 ? 6 : 3;
  options.settleTime = 20.0;
  return options;
}

// The tentpole acceptance gate: 100+ seeded randomized fault schedules,
// every structural invariant audited after every injected event, every
// run ending fully repaired with a valid snapshot.
TEST(FaultChaosTest, HundredSeededSchedulesKeepEveryInvariant) {
  std::int64_t totalAudits = 0;
  std::int64_t totalCrashes = 0;
  std::int64_t totalBursts = 0;
  std::int64_t totalFlash = 0;
  std::int64_t totalRepairs = 0;
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    const ChaosResult result = runChaos(smallScenario(trial));
    ASSERT_TRUE(result.ok) << "trial " << trial << ": " << result.failure;
    EXPECT_GT(result.joins, 0) << "trial " << trial;
    EXPECT_EQ(result.session.joins, result.joins);
    totalAudits += result.invariantChecks;
    totalCrashes += result.crashes;
    totalBursts += result.crashBursts;
    totalFlash += result.flashCrowdJoins;
    totalRepairs += result.repairs;
  }
  // The sweep across seeds must actually have exercised the machinery.
  EXPECT_GT(totalAudits, 1000);
  EXPECT_GT(totalCrashes, 100);
  EXPECT_GT(totalBursts, 10);
  EXPECT_GT(totalFlash, 100);
  EXPECT_GT(totalRepairs, 50);
}

TEST(FaultChaosTest, RunsAreDeterministicForAFixedSeed) {
  const ChaosResult a = runChaos(smallScenario(3));
  const ChaosResult b = runChaos(smallScenario(3));
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.backupHits, b.backupHits);
  EXPECT_EQ(a.wrongfulMigrations, b.wrongfulMigrations);
  EXPECT_EQ(a.detector.probes, b.detector.probes);
  EXPECT_EQ(a.channel.transmissions, b.channel.transmissions);
  EXPECT_EQ(a.disconnectedNodeSeconds, b.disconnectedNodeSeconds);
  EXPECT_EQ(a.recoveryLatency.mean(), b.recoveryLatency.mean());
  EXPECT_EQ(a.finalLive, b.finalLive);
}

TEST(FaultChaosTest, LosslessRunHasNoFalsePositivesAndEndsHealed) {
  ChaosOptions options = smallScenario(0);
  options.channel.lossRate = 0.0;
  const ChaosResult result = runChaos(options);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.detector.falsePositives, 0);
  EXPECT_EQ(result.wrongfulMigrations, 0);
  EXPECT_EQ(result.silentLeaves, 0);
  EXPECT_EQ(result.droppedJoins, 0);
  EXPECT_GT(result.repairs, 0);
  if (result.repairedOrphans > 0) {
    EXPECT_GT(result.backupHits, 0);
  }
}

TEST(FaultChaosTest, HeavyLossDegradesOperationsButNeverBreaksInvariants) {
  ChaosOptions options = smallScenario(1);
  options.channel.lossRate = 0.6;
  options.channel.maxAttempts = 2;
  options.maxOperationRetries = 1;
  const ChaosResult result = runChaos(options);
  ASSERT_TRUE(result.ok) << result.failure;
  // Loss this heavy must actually bite somewhere.
  EXPECT_GT(result.operationRetries + result.droppedJoins +
                result.silentLeaves + result.detector.reinstatements,
            0);
}

TEST(FaultChaosTest, DetectionAndRecoveryAreMeasuredQuantities) {
  ChaosOptions options = smallScenario(2);
  const ChaosResult result = runChaos(options);
  ASSERT_TRUE(result.ok) << result.failure;
  ASSERT_GT(result.detector.confirmedCrashes, 0);
  EXPECT_GT(result.detector.detectionLatency.mean(), 0.0);
  EXPECT_GT(result.recoveryLatency.mean(),
            result.detector.detectionLatency.min());
  EXPECT_GT(result.disconnectedNodeSeconds, 0.0);
}

TEST(FaultChaosTest, RejectsInvalidOptions) {
  ChaosOptions options;
  options.settleTime = -1.0;
  EXPECT_THROW(runChaos(options), InvalidArgument);
  options = {};
  options.maxOperationRetries = -1;
  EXPECT_THROW(runChaos(options), InvalidArgument);
}

}  // namespace
}  // namespace omt
