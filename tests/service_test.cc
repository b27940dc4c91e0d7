// Unit and edge-case gates for the multi-group service layer: RouteTable
// structure, script generator/round-trip, and the GroupManager membership
// edge cases (single-host groups, join+leave in one batch, last-host
// teardown, re-join after crash, malformed events).
#include "omt/service/group_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "omt/common/error.h"
#include "omt/service/replay.h"
#include "omt/service/script.h"

namespace omt {
namespace {

MembershipEvent join(GroupId group, HostId host, double x, double y,
                     double time = 0.0) {
  return {time, group, ServiceEventKind::kJoin, host, Point{x, y}};
}

MembershipEvent leave(GroupId group, HostId host, double time = 0.0) {
  return {time, group, ServiceEventKind::kLeave, host, Point()};
}

MembershipEvent crash(GroupId group, HostId host, double time = 0.0) {
  return {time, group, ServiceEventKind::kCrash, host, Point()};
}

ServiceOptions directOptions(int shards = 1) {
  ServiceOptions options;
  options.shards = shards;
  return options;
}

// ---------------------------------------------------------------------------
// GroupManager edge cases

TEST(ServiceTest, SingleHostGroupPublishesOneMemberAtOrigin) {
  GroupManager manager(directOptions());
  manager.apply(std::vector<MembershipEvent>{join(7, 42, 0.3, -0.1)});

  const auto table = manager.routes(7);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 1);
  EXPECT_EQ(table->epoch(), 1u);
  EXPECT_EQ(table->parentOf(42), kNoHost);
  EXPECT_TRUE(table->childrenOf(42).empty());
  ASSERT_EQ(table->originChildren().size(), 1u);
  EXPECT_EQ(table->originChildren()[0], 42);
  EXPECT_TRUE(table->checkConsistency(6).ok);
  EXPECT_EQ(manager.parentOf(7, 42), kNoHost);
  EXPECT_EQ(manager.parentOf(7, 43), kNotMember);
  EXPECT_EQ(manager.parentOf(8, 42), kNotMember);  // group never created
}

TEST(ServiceTest, JoinAndLeaveInOneBatchTearsDownAndPublishesOnce) {
  GroupManager manager(directOptions());
  const ApplyReport report = manager.apply(std::vector<MembershipEvent>{
      join(0, 1, 0.1, 0.1), leave(0, 1)});

  EXPECT_EQ(report.events, 2);
  EXPECT_EQ(report.publishes, 1);  // one publish per touched group per batch
  const auto table = manager.routes(0);
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(manager.liveGroupCount(), 0);
  EXPECT_EQ(manager.groupCount(), 1);
  EXPECT_EQ(manager.groupStats(0).teardowns, 1);
}

TEST(ServiceTest, LastHostLeavingTearsTheGroupDown) {
  GroupManager manager(directOptions());
  manager.apply(std::vector<MembershipEvent>{
      join(3, 10, 0.5, 0.0), join(3, 11, -0.5, 0.0), join(3, 12, 0.0, 0.5)});
  EXPECT_EQ(manager.liveMembersOf(3), 3);

  manager.apply(std::vector<MembershipEvent>{
      leave(3, 10), leave(3, 12), leave(3, 11)});
  EXPECT_EQ(manager.liveMembersOf(3), 0);
  EXPECT_EQ(manager.liveGroupCount(), 0);
  const auto table = manager.routes(3);
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->empty());
  EXPECT_TRUE(table->checkConsistency(6).ok);
}

TEST(ServiceTest, RejoinAfterCrashAndAfterTeardownStaysConsistent) {
  GroupManager manager(directOptions());
  manager.apply(std::vector<MembershipEvent>{
      join(1, 5, 0.2, 0.2), join(1, 6, -0.2, 0.3)});
  manager.apply(std::vector<MembershipEvent>{crash(1, 5)});
  EXPECT_EQ(manager.parentOf(1, 5), kNotMember);

  // The crashed host comes back (fresh session identity, same HostId).
  manager.apply(std::vector<MembershipEvent>{join(1, 5, 0.2, 0.2)});
  const auto table = manager.routes(1);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 2);
  EXPECT_TRUE(table->contains(5));
  EXPECT_TRUE(table->checkConsistency(6).ok);

  // Full teardown, then the group is born again with monotone epochs.
  const std::uint64_t beforeTeardown = manager.epochOf(1);
  manager.apply(std::vector<MembershipEvent>{leave(1, 5), crash(1, 6)});
  EXPECT_EQ(manager.liveGroupCount(), 0);
  manager.apply(std::vector<MembershipEvent>{join(1, 9, 0.0, -0.4)});
  EXPECT_GT(manager.epochOf(1), beforeTeardown);
  EXPECT_EQ(manager.parentOf(1, 9), kNoHost);
}

TEST(ServiceTest, EpochsAreStrictlyMonotonePerGroup) {
  GroupManager manager(directOptions());
  std::uint64_t last = 0;
  for (int i = 0; i < 6; ++i) {
    manager.apply(std::vector<MembershipEvent>{
        join(2, 100 + i, 0.1 * (i + 1), 0.0)});
    const std::uint64_t epoch = manager.epochOf(2);
    EXPECT_GT(epoch, last);
    last = epoch;
  }
}

TEST(ServiceTest, MalformedEventsThrow) {
  GroupManager manager(directOptions());
  manager.apply(std::vector<MembershipEvent>{join(0, 1, 0.1, 0.1)});

  // Double join of a current member.
  EXPECT_THROW(
      manager.apply(std::vector<MembershipEvent>{join(0, 1, 0.1, 0.1)}),
      InvalidArgument);
  // Departure of a host that is not a member.
  EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{leave(0, 99)}),
               InvalidArgument);
  EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{crash(0, 99)}),
               InvalidArgument);
  // Departure event for a group that has no members at all.
  EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{leave(5, 1)}),
               InvalidArgument);
  // Group id outside the configured space.
  ServiceOptions tiny = directOptions();
  tiny.maxGroups = 4;
  GroupManager small(tiny);
  EXPECT_THROW(small.apply(std::vector<MembershipEvent>{join(4, 1, 0.1, 0.1)}),
               InvalidArgument);
  // Refused whole: the valid event before the bad one creates no group.
  EXPECT_THROW(small.apply(std::vector<MembershipEvent>{
                   join(3, 1, 0.1, 0.1), join(4, 1, 0.1, 0.1)}),
               InvalidArgument);
  EXPECT_EQ(small.groupCount(), 0);
}

// Host ids below 0 collide with kNoHost (-1) and kNotMember (-2) in every
// published table, so the whole batch is refused before any event applies.
TEST(ServiceTest, NegativeHostIdsAreRejected) {
  GroupManager manager(directOptions());
  manager.apply(std::vector<MembershipEvent>{join(0, 1, 0.1, 0.1)});
  const std::uint64_t before = serviceFingerprint(manager);
  for (const HostId bad : {HostId{-1}, HostId{-2}}) {
    EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{
                     join(0, 2, 0.4, 0.4), join(0, bad, 0.5, 0.5)}),
                 InvalidArgument)
        << "host " << bad;
    EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{join(1, bad, 0.5,
                                                                 0.5)}),
                 InvalidArgument)
        << "host " << bad;
    EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{leave(0, bad)}),
                 InvalidArgument)
        << "host " << bad;
    EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{crash(0, bad)}),
                 InvalidArgument)
        << "host " << bad;
  }
  EXPECT_EQ(manager.liveMembersOf(0), 1);
  EXPECT_EQ(manager.groupCount(), 1);
  EXPECT_EQ(serviceFingerprint(manager), before);
  EXPECT_EQ(manager.epochOf(0), 1u);
  EXPECT_EQ(manager.quiesce(0.0), 0);
  const auto table = manager.routes(0);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 1);
  EXPECT_TRUE(table->checkConsistency(6).ok);
}

// A batch that throws part-way leaves its applied events applied. The
// group they touched must still publish on the next batch that touches
// it, not stay stale until quiesce().
class ServiceThrowingBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceThrowingBatchTest, GroupLeftUnpublishedRepublishesNextBatch) {
  GroupManager manager(directOptions(GetParam()));
  manager.apply(std::vector<MembershipEvent>{join(0, 1, 0.1, 0.1)});
  ASSERT_EQ(manager.epochOf(0), 1u);

  // join 2 applies, then the duplicate join of host 1 throws.
  EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{
                   join(0, 2, -0.2, 0.3), join(0, 1, 0.1, 0.1)}),
               InvalidArgument);
  EXPECT_EQ(manager.liveMembersOf(0), 2);

  manager.apply(std::vector<MembershipEvent>{join(0, 3, 0.3, -0.2)});
  EXPECT_EQ(manager.liveMembersOf(0), 3);
  EXPECT_EQ(manager.epochOf(0), 2u);
  const auto table = manager.routes(0);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 3);
  for (const HostId host : {1, 2, 3})
    EXPECT_NE(manager.parentOf(0, host), kNotMember) << "host " << host;
  EXPECT_TRUE(table->checkConsistency(6).ok);
}

INSTANTIATE_TEST_SUITE_P(Workers, ServiceThrowingBatchTest,
                         ::testing::Values(1, 4));

TEST(ServiceTest, DegreeCapIsHonouredUnderFanIn) {
  ServiceOptions options = directOptions();
  options.session.maxOutDegree = 3;
  GroupManager manager(options);
  std::vector<MembershipEvent> events;
  for (int i = 0; i < 40; ++i)
    events.push_back(join(0, i, 0.4 * std::cos(i * 0.157),
                          0.4 * std::sin(i * 0.157)));
  manager.apply(events);
  const auto table = manager.routes(0);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 40);
  EXPECT_TRUE(table->checkConsistency(3).ok)
      << table->checkConsistency(3).message;
}

TEST(ServiceTest, FingerprintIgnoresEpochAndMatchesEqualTrees) {
  GroupManager a(directOptions());
  GroupManager b(directOptions());
  const std::vector<MembershipEvent> events{
      join(0, 1, 0.1, 0.1), join(0, 2, -0.3, 0.2), join(0, 3, 0.2, -0.4)};
  a.apply(events);
  b.apply(std::vector<MembershipEvent>(events.begin(), events.begin() + 1));
  b.apply(std::vector<MembershipEvent>(events.begin() + 1, events.end()));
  // Different batching -> different epochs, same final structure.
  EXPECT_NE(a.epochOf(0), b.epochOf(0));
  EXPECT_EQ(a.routes(0)->fingerprint(), b.routes(0)->fingerprint());
}

// ---------------------------------------------------------------------------
// Script generator and file format

TEST(ServiceScriptTest, GeneratorIsValidAndDeterministic) {
  ScriptOptions options;
  options.groups = 20;
  options.hosts = 200;
  options.events = 2000;
  options.seed = 9;
  const auto events = generateMembershipScript(options);
  ASSERT_EQ(static_cast<std::int64_t>(events.size()), options.events);
  const auto again = generateMembershipScript(options);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].group, again[i].group);
    EXPECT_EQ(events[i].host, again[i].host);
    EXPECT_EQ(events[i].kind, again[i].kind);
    EXPECT_DOUBLE_EQ(events[i].time, again[i].time);
  }

  // Valid: time-sorted, no double joins, no departures of non-members,
  // every group seeded.
  std::vector<std::vector<bool>> member(
      static_cast<std::size_t>(options.groups),
      std::vector<bool>(static_cast<std::size_t>(options.hosts), false));
  std::vector<bool> seeded(static_cast<std::size_t>(options.groups), false);
  double last = 0.0;
  for (const MembershipEvent& e : events) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ASSERT_GE(e.group, 0);
    ASSERT_LT(e.group, options.groups);
    const bool isMember = member[static_cast<std::size_t>(e.group)]
                                [static_cast<std::size_t>(e.host)];
    if (e.kind == ServiceEventKind::kJoin) {
      EXPECT_FALSE(isMember) << "double join";
      member[static_cast<std::size_t>(e.group)]
            [static_cast<std::size_t>(e.host)] = true;
      seeded[static_cast<std::size_t>(e.group)] = true;
      EXPECT_EQ(e.position.dim(), options.dim);
    } else {
      EXPECT_TRUE(isMember) << "departure of non-member";
      member[static_cast<std::size_t>(e.group)]
            [static_cast<std::size_t>(e.host)] = false;
    }
  }
  for (const bool s : seeded) EXPECT_TRUE(s);
}

TEST(ServiceScriptTest, SaveLoadRoundTripsExactly) {
  ScriptOptions options;
  options.groups = 5;
  options.hosts = 40;
  options.events = 300;
  options.dim = 3;
  const auto events = generateMembershipScript(options);
  const std::string path = ::testing::TempDir() + "omt_script_rt.txt";
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
    if (events[i].kind == ServiceEventKind::kJoin) {
      for (int c = 0; c < dim; ++c)
        EXPECT_DOUBLE_EQ(loaded[i].position[c], events[i].position[c]);
    }
  }
}

// Each record's time must parse whole and be finite, and a record carries
// nothing after its last field: every other input is a typed
// InvalidArgument, not a std::stod exception or a silently accepted event.
TEST(ServiceScriptTest, LoaderRejectsMalformedRecords) {
  const std::string path = ::testing::TempDir() + "omt_script_bad.txt";
  const auto load = [&path](const std::string& record) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fprintf(f, "# omt-membership-script v1\ndim 2\n%s\n",
                   record.c_str());
      std::fclose(f);
    }
    EXPECT_THROW(loadMembershipScript(path), InvalidArgument)
        << "record '" << record << "'";
  };
  load("abc 0 J 1 0.1 0.2");
  load("1e400 0 J 1 0.1 0.2");
  load("-1e400 0 J 1 0.1 0.2");
  load("nan 0 J 1 0.1 0.2");
  load("inf 0 J 1 0.1 0.2");
  load("0.5x 0 J 1 0.1 0.2");
  load("0.5 0 J 1 0.1 0.2 0.3");
  load("0.5 0 L 1 extra");
  std::remove(path.c_str());
}

TEST(ServiceScriptTest, FilterGroupPreservesOrder) {
  ScriptOptions options;
  options.groups = 4;
  options.hosts = 50;
  options.events = 400;
  const auto events = generateMembershipScript(options);
  std::size_t total = 0;
  for (GroupId g = 0; g < options.groups; ++g) {
    const auto sub = filterGroup(events, g);
    total += sub.size();
    for (std::size_t i = 1; i < sub.size(); ++i)
      EXPECT_LE(sub[i - 1].time, sub[i].time);
    for (const MembershipEvent& e : sub) EXPECT_EQ(e.group, g);
  }
  EXPECT_EQ(total, events.size());
}

// ---------------------------------------------------------------------------
// Replay harness

TEST(ServiceReplayTest, ReplayConvergesAndAuditsEveryGroup) {
  ScriptOptions script;
  script.groups = 30;
  script.hosts = 600;
  script.events = 6000;
  const auto events = generateMembershipScript(script);

  GroupManager manager(directOptions(2));
  const ReplayResult result = replayScript(manager, events, {.batchSize = 256});
  EXPECT_TRUE(result.converged()) << result.firstInconsistency;
  EXPECT_EQ(result.events, script.events);
  EXPECT_EQ(result.groups, script.groups);
  EXPECT_GT(result.publishes, 0);
  EXPECT_NE(serviceFingerprint(manager), 0u);
}

// Partition centres come from the group's dimension: a 3-D replay through
// the RPC transport with partitions converges like a 2-D one.
TEST(ServiceReplayTest, RpcDisruptionReplayConvergesIn3D) {
  ScriptOptions script;
  script.groups = 8;
  script.hosts = 500;
  script.events = 3000;
  script.dim = 3;
  script.seed = 2;
  const auto events = generateMembershipScript(script);

  ServiceOptions options = directOptions(2);
  options.seed = 2;
  options.useRpc = true;
  options.injectDisruption = true;
  options.disruption.duration = 4.0;
  options.disruption.partitionRate = 2.0;
  GroupManager manager(options);
  ReplayResult result;
  ASSERT_NO_THROW(result = replayScript(manager, events, {.batchSize = 256}));
  EXPECT_TRUE(result.converged())
      << result.degradedGroups << " degraded, " << result.firstInconsistency;
  EXPECT_EQ(result.events, script.events);
}

TEST(ServiceReplayTest, StatsAddUpAcrossBatchesAndShards) {
  ScriptOptions script;
  script.groups = 10;
  script.hosts = 100;
  script.events = 1500;
  const auto events = generateMembershipScript(script);

  GroupManager manager(directOptions(4));
  replayScript(manager, events, {.batchSize = 100});
  const ServiceStats& stats = manager.stats();
  EXPECT_EQ(stats.events, script.events);
  EXPECT_EQ(stats.joins + stats.leaves + stats.crashes, script.events);
  EXPECT_EQ(stats.groupsCreated, script.groups);
  std::int64_t perGroup = 0;
  for (const GroupId g : manager.createdGroups())
    perGroup += manager.groupStats(g).events;
  EXPECT_EQ(perGroup, script.events);
}

}  // namespace
}  // namespace omt
