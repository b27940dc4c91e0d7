// Delta-publication gates: the patch path must be invisible.
//
// A delta-built epoch must be bit-identical (arrays, fingerprint, epoch)
// to the full rebuild it replaced, untouched groups must never republish,
// and the cheap kQuick audit must agree with kFull — including on
// corrupted tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "omt/service/group_manager.h"
#include "omt/service/replay.h"
#include "omt/service/script.h"

namespace omt {
namespace {

std::vector<MembershipEvent> joinBatch(GroupId group, int from, int count) {
  std::vector<MembershipEvent> batch;
  for (int i = 0; i < count; ++i)
    batch.push_back({0.0, group, ServiceEventKind::kJoin, from + i,
                     Point{0.03 * (from + i + 1), 0.01 * (i + 1)}});
  return batch;
}

TEST(ServiceDeltaTest, UntouchedGroupsNeverRepublish) {
  GroupManager manager(ServiceOptions{});
  manager.apply(joinBatch(0, 0, 6));
  manager.apply(joinBatch(1, 10, 6));
  manager.apply(joinBatch(2, 20, 6));
  const std::uint64_t epoch1 = manager.epochOf(1);
  const std::uint64_t epoch2 = manager.epochOf(2);
  const std::uint64_t fp1 = manager.routes(1)->fingerprint();

  // Ten batches that only ever touch group 0.
  for (int round = 0; round < 10; ++round) {
    const ApplyReport report = manager.apply(joinBatch(0, 100 + round, 1));
    EXPECT_EQ(report.publishes, 1);
    EXPECT_EQ(report.groupsTouched, 1);
  }
  EXPECT_EQ(manager.epochOf(1), epoch1);
  EXPECT_EQ(manager.epochOf(2), epoch2);
  EXPECT_EQ(manager.routes(1)->fingerprint(), fp1);
}

TEST(ServiceDeltaTest, PerBatchPublishesEqualTouchedGroups) {
  ScriptOptions script;
  script.groups = 12;
  script.hosts = 300;
  script.events = 4000;
  script.seed = 9;
  const auto events = generateMembershipScript(script);

  GroupManager manager(ServiceOptions{});
  for (std::size_t at = 0; at < events.size(); at += 128) {
    const auto len = std::min<std::size_t>(128, events.size() - at);
    const std::span<const MembershipEvent> window(events.data() + at, len);
    std::vector<bool> touched(static_cast<std::size_t>(script.groups), false);
    std::int64_t distinct = 0;
    for (const MembershipEvent& e : window) {
      if (!touched[static_cast<std::size_t>(e.group)]) ++distinct;
      touched[static_cast<std::size_t>(e.group)] = true;
    }
    const ApplyReport report = manager.apply(window);
    EXPECT_EQ(report.publishes, distinct);
    EXPECT_EQ(report.groupsTouched, distinct);
  }
}

// The core bit-identity oracle: 100 randomized churn scripts, each
// replayed with the delta path live-verified against the full rebuild on
// EVERY delta publish (deltaVerify asserts identicalTo: arrays,
// fingerprint, epoch), and the final tables compared against a replica
// that never took the patch path at all.
TEST(ServiceDeltaTest, DeltaMatchesFullRebuildAcrossRandomizedChurn) {
  std::int64_t deltasSeen = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ScriptOptions script;
    script.groups = 8;
    script.hosts = 200;
    script.events = 1500;
    script.seed = seed;
    script.meanGroupSize = 14.0;
    script.crashFraction = 0.3;
    const auto events = generateMembershipScript(script);

    ServiceOptions viaDelta;
    viaDelta.deltaPublish = true;
    viaDelta.deltaVerify = true;  // hard-asserts per-publish bit-identity
    GroupManager deltaManager(viaDelta);
    replayScript(deltaManager, events, {.batchSize = 64});

    ServiceOptions viaFull;
    viaFull.deltaPublish = false;
    GroupManager fullManager(viaFull);
    replayScript(fullManager, events, {.batchSize = 64});

    ASSERT_EQ(deltaManager.stats().publishes, fullManager.stats().publishes);
    EXPECT_EQ(fullManager.stats().deltaPublishes, 0);
    deltasSeen += deltaManager.stats().deltaPublishes;
    for (const GroupId group : deltaManager.createdGroups()) {
      const auto a = deltaManager.routes(group);
      const auto b = fullManager.routes(group);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (!a) continue;
      EXPECT_TRUE(a->identicalTo(*b))
          << "seed " << seed << " group " << group
          << ": delta replica diverged from the full-rebuild replica";
    }
  }
  // The oracle is vacuous unless the patch path actually ran.
  EXPECT_GT(deltasSeen, 1000);
}

TEST(ServiceDeltaTest, QuickAuditAgreesWithFullAndCatchesCorruption) {
  GroupManager manager(ServiceOptions{});
  manager.apply(joinBatch(0, 0, 12));
  const auto table = manager.routes(0);
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->checkConsistency(6, RouteTable::AuditMode::kFull).ok);
  EXPECT_TRUE(table->checkConsistency(6, RouteTable::AuditMode::kQuick).ok);

  // Flip one member id in place: the stored fingerprint cannot match the
  // recomputation any more, and BOTH audit depths must say so.
  auto* hosts = const_cast<HostId*>(table->hosts().data());
  const HostId saved = hosts[0];
  hosts[0] = saved + 1000;
  EXPECT_FALSE(table->checkConsistency(6, RouteTable::AuditMode::kFull).ok);
  EXPECT_FALSE(table->checkConsistency(6, RouteTable::AuditMode::kQuick).ok);
  hosts[0] = saved;
  EXPECT_TRUE(table->checkConsistency(6, RouteTable::AuditMode::kQuick).ok);
}

TEST(ServiceDeltaTest, SkewedScriptsRoundTripAndSkewGroupSizes) {
  ScriptOptions options;
  options.groups = 50;
  options.hosts = 400;
  options.events = 8000;
  options.seed = 3;
  options.meanGroupSize = 16.0;
  options.sizeSkew = 1.0;
  const auto events = generateMembershipScript(options);

  // Exact file-format round trip, skew or no skew.
  const std::string path = ::testing::TempDir() + "omt_script_skew_rt.txt";
  saveMembershipScript(path, events, options.dim);
  int dim = 0;
  const auto loaded = loadMembershipScript(path, &dim);
  std::remove(path.c_str());
  EXPECT_EQ(dim, options.dim);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].group, events[i].group);
    EXPECT_EQ(loaded[i].kind, events[i].kind);
    EXPECT_EQ(loaded[i].host, events[i].host);
    EXPECT_DOUBLE_EQ(loaded[i].time, events[i].time);
  }

  // The head group must end up far larger than the tail group.
  std::vector<std::int64_t> live(static_cast<std::size_t>(options.groups), 0);
  for (const MembershipEvent& e : events) {
    if (e.kind == ServiceEventKind::kJoin)
      ++live[static_cast<std::size_t>(e.group)];
    else
      --live[static_cast<std::size_t>(e.group)];
  }
  EXPECT_GT(live[0], 5 * std::max<std::int64_t>(1, live[49]))
      << "sizeSkew=1.0 produced no head-vs-tail size separation";
}

}  // namespace
}  // namespace omt
