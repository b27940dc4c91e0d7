#include <gtest/gtest.h>

#include "omt/fault/chaos.h"
#include "omt/random/rng.h"

namespace omt {
namespace {

/// A compact RPC-mode drill: every fault kind, a control plane losing at
/// least 20% of its messages, and injected partitions / loss bursts on top.
ChaosOptions rpcScenario(std::uint64_t trial) {
  ChaosOptions options;
  options.schedule.duration = 6.0;
  options.schedule.arrivalRate = 8.0;
  options.schedule.meanLifetime = 4.0;
  options.schedule.crashFraction = 0.4;
  options.schedule.crashBurstRate = 0.2;
  options.schedule.flashCrowdRate = 0.15;
  options.schedule.flashCrowdSize = 12;
  options.schedule.seed = deriveSeed(0x59c1ULL, trial);
  options.channel.lossRate = 0.1;  // heartbeat plane
  options.channel.seed = deriveSeed(0x59c2ULL, trial);
  options.session.maxOutDegree = trial % 2 == 0 ? 6 : 3;
  options.settleTime = 25.0;

  options.useRpc = true;
  const double lossRates[] = {0.2, 0.3, 0.4, 0.5};
  options.rpc.channel.lossRate = lossRates[trial % 4];
  options.rpc.channel.seed = deriveSeed(0x59c3ULL, trial);
  options.rpc.channel.maxAttempts = 4;
  options.disruption.duration =
      options.schedule.duration + options.settleTime;
  options.disruption.seed = deriveSeed(0x59c4ULL, trial);
  options.disruption.partitionRate = 0.15;
  options.disruption.partitionRadius = 0.3;
  options.disruption.partitionMeanLength = 2.0;
  options.disruption.lossBurstRate = 0.1;
  options.disruption.lossBurstBoost = 0.5;
  options.disruption.delaySpellRate = 0.05;
  options.auditPeriod = 0.5;
  return options;
}

// The tentpole acceptance gate: 100+ seeded drills through the reliable RPC
// driver with >= 20% control-plane loss plus partitions, every structural
// invariant audited after every event AND after every anti-entropy sweep,
// every drill ending with all live hosts attached and not one operation
// applied twice.
TEST(RpcChaosTest, HundredSeededDrillsStayConsistentUnderLossAndPartitions) {
  std::int64_t totalAudits = 0;
  std::int64_t totalSweeps = 0;
  std::int64_t totalParkedJoins = 0;
  std::int64_t totalWindows = 0;
  std::int64_t totalDuplicates = 0;
  std::int64_t totalUnconfirmed = 0;
  std::int64_t totalDeferred = 0;
  std::int64_t totalSilent = 0;
  std::int64_t totalRepairs = 0;
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    const ChaosResult result = runChaos(rpcScenario(trial));
    // Degree caps, acyclicity and membership accounting held at every
    // intermediate step, and the final fully-repaired audit passed: every
    // live host ends attached (parked hosts fail that audit).
    ASSERT_TRUE(result.ok) << "trial " << trial << ": " << result.failure;
    EXPECT_GT(result.joins, 0) << "trial " << trial;
    // At-most-once: no operation id was ever applied twice.
    ASSERT_EQ(result.rpc.duplicatesApplied, 0) << "trial " << trial;
    totalAudits += result.invariantChecks;
    totalSweeps += result.auditSweeps;
    totalParkedJoins += result.parkedJoins;
    totalWindows += result.disruptionWindows;
    totalDuplicates += result.rpc.duplicateDeliveries;
    totalUnconfirmed += result.driver.attachesUnconfirmed;
    totalDeferred += result.driver.repairsDeferred;
    totalSilent += result.silentLeaves;
    totalRepairs += result.repairs;
  }
  // The sweep must actually have exercised the degraded paths: joins parked
  // by exhausted handshakes, anti-entropy sweeps healing them, ack losses
  // turning into deduplicated re-deliveries, deferred purges, silent leaves.
  EXPECT_GT(totalAudits, 1000);
  EXPECT_GT(totalSweeps, 100);
  EXPECT_GT(totalParkedJoins, 50);
  EXPECT_GT(totalWindows, 100);
  EXPECT_GT(totalDuplicates, 100);
  EXPECT_GT(totalUnconfirmed, 50);
  EXPECT_GT(totalSilent, 10);
  EXPECT_GT(totalRepairs, 50);
}

TEST(RpcChaosTest, RpcModeRunsAreDeterministicForAFixedSeed) {
  const ChaosResult a = runChaos(rpcScenario(5));
  const ChaosResult b = runChaos(rpcScenario(5));
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.parkedJoins, b.parkedJoins);
  EXPECT_EQ(a.auditSweeps, b.auditSweeps);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.finalLive, b.finalLive);
  EXPECT_EQ(a.rpc.calls, b.rpc.calls);
  EXPECT_EQ(a.rpc.duplicateDeliveries, b.rpc.duplicateDeliveries);
  EXPECT_EQ(a.driver.attachCalls, b.driver.attachCalls);
  EXPECT_EQ(a.driver.auditReattaches, b.driver.auditReattaches);
  EXPECT_DOUBLE_EQ(a.disconnectedNodeSeconds, b.disconnectedNodeSeconds);
}

TEST(RpcChaosTest, CircuitBreakersTripUnderSustainedPartitions) {
  // Crank partitions up until breakers demonstrably open and recover.
  ChaosOptions options = rpcScenario(2);
  options.disruption.partitionRate = 0.5;
  options.disruption.partitionRadius = 0.5;
  options.disruption.partitionMeanLength = 4.0;
  options.rpc.breakerThreshold = 2;
  options.rpc.breakerCooldown = 0.5;
  const ChaosResult result = runChaos(options);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.rpc.breakerTrips, 0);
  EXPECT_GT(result.rpc.shortCircuited, 0);
  EXPECT_EQ(result.rpc.duplicatesApplied, 0);
}

TEST(RpcChaosTest, PartitionsUseTheScheduleDimension) {
  // Partition centres are drawn in the hosts' dimension: a 3-D drill with
  // partitions must run to a clean verdict, not trip a dimension mismatch
  // the first time a partition tests a host's position.
  for (std::uint64_t trial = 1; trial <= 4; ++trial) {
    ChaosOptions options = rpcScenario(trial);
    options.schedule.dim = 3;
    options.disruption.partitionRate = 0.2;
    ChaosResult result;
    ASSERT_NO_THROW(result = runChaos(options)) << "trial " << trial;
    EXPECT_TRUE(result.ok) << "trial " << trial << ": " << result.failure;
    EXPECT_GT(result.disruptionWindows, 0) << "trial " << trial;
  }
}

TEST(RpcChaosTest, LosslessRpcModeParksNothing) {
  ChaosOptions options = rpcScenario(0);
  options.rpc.channel.lossRate = 0.0;
  options.channel.lossRate = 0.0;
  options.injectDisruption = false;
  const ChaosResult result = runChaos(options);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.parkedJoins, 0);
  EXPECT_EQ(result.silentLeaves, 0);
  EXPECT_EQ(result.driver.attachesParked, 0);
  EXPECT_EQ(result.rpc.duplicateDeliveries, 0);
  EXPECT_EQ(result.rpc.exhausted, 0);
}

}  // namespace
}  // namespace omt
