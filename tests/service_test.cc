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
#include "omt/obs/obs.h"
#include "omt/obs/trace.h"
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
                         ::testing::Values(1, 2, 4, 7));

// liveGroupCount() is a running total of state creations and teardowns.
// One batch can end a group's state and start it again (or start and end
// it), and the total must follow both.
class ServiceLiveGroupCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceLiveGroupCountTest, FollowsTeardownAndRecreationInOneBatch) {
  GroupManager manager(directOptions(GetParam()));
  manager.apply(std::vector<MembershipEvent>{
      join(0, 1, 0.1, 0.1), join(1, 2, 0.2, -0.1), join(2, 3, -0.3, 0.2)});
  EXPECT_EQ(manager.liveGroupCount(), 3);

  // Group 0 is torn down and re-created, group 1 torn down.
  manager.apply(std::vector<MembershipEvent>{
      leave(0, 1), leave(1, 2), join(0, 4, 0.4, 0.1)});
  EXPECT_EQ(manager.liveGroupCount(), 2);
  EXPECT_EQ(manager.liveMembersOf(0), 1);
  EXPECT_EQ(manager.groupStats(0).teardowns, 1);
  EXPECT_EQ(manager.groupStats(1).teardowns, 1);

  // Group 0 ends, starts again and ends again; group 1 comes back.
  manager.apply(std::vector<MembershipEvent>{
      leave(0, 4), join(0, 5, 0.1, 0.5), join(1, 6, -0.1, -0.1),
      crash(0, 5)});
  EXPECT_EQ(manager.liveGroupCount(), 2);
  EXPECT_EQ(manager.liveMembersOf(0), 0);
  EXPECT_EQ(manager.groupStats(0).teardowns, 3);
  EXPECT_EQ(manager.quiesce(0.0), 0);
  EXPECT_EQ(manager.liveGroupCount(), 2);
}

INSTANTIATE_TEST_SUITE_P(Workers, ServiceLiveGroupCountTest,
                         ::testing::Values(1, 4));

// Through the lossy RPC transport a leave whose goodbye is lost degrades
// into a silent crash, so a group whose last member left that way keeps
// its state; quiesce() repairs and then tears such groups down, and the
// running total must drop with them.
TEST(ServiceQuiesceTest, TeardownsLeaveTheLiveGroupCount) {
  ServiceOptions options = directOptions(4);
  options.useRpc = true;
  options.rpc.channel.lossRate = 0.6;
  options.rpc.channel.maxAttempts = 1;
  GroupManager manager(options);
  constexpr GroupId kGroups = 12;
  std::vector<MembershipEvent> joins;
  std::vector<MembershipEvent> leaves;
  for (GroupId g = 0; g < kGroups; ++g) {
    for (HostId h = 0; h < 3; ++h) {
      const auto angle = static_cast<double>(g + 3 * h);
      joins.push_back(join(g, h, 0.3 * std::cos(angle), 0.3 * std::sin(angle)));
      leaves.push_back(leave(g, h, 1.0));
    }
  }
  manager.apply(joins);
  manager.apply(leaves);
  std::int64_t withMembers = 0;
  for (GroupId g = 0; g < kGroups; ++g)
    if (manager.liveMembersOf(g) > 0) ++withMembers;
  ASSERT_EQ(withMembers, 0);
  const std::int64_t kept = manager.liveGroupCount();
  ASSERT_GT(kept, 0) << "no group kept its state: the scenario tests nothing";
  const std::int64_t teardownsBefore = manager.stats().teardowns;

  EXPECT_EQ(manager.quiesce(2.0, 64), 0);
  EXPECT_EQ(manager.stats().teardowns - teardownsBefore, kept);
  EXPECT_EQ(manager.liveGroupCount(), 0);
}

// The batch partition radix-sorts events by group id in 11-bit digits,
// skipping a digit every id shares. The first id set differs in each
// digit (5, 2053 = 2^11 + 5 and 4101 = 2^12 + 5 share the low one;
// 2^20 - 1 is the largest id), so both passes run; the second lies below
// 2^11, so one pass runs (an odd count, which a pass that reverses its
// buckets cannot cancel out). The groups' events are interleaved, so a
// pass that is not stable, or one skipped wrongly, reorders a group's
// events. Each group must publish exactly what a fresh manager fed only
// that group's events publishes.
class ServicePartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(ServicePartitionTest, InterleavedGroupsMatchTheirOwnReplays) {
  const std::vector<std::vector<GroupId>> idSets = {
      {0, 5, 2053, 4101, (GroupId{1} << 20) - 1}, {1, 5, 1029, 2047}};
  for (const std::vector<GroupId>& groups : idSets) {
    // Group j: 6 + j joins, then a leave, a crash, a re-join of the
    // leaver and a leave of the first host. Event k of every group goes
    // out before event k + 1 of any, so the batch interleaves them all.
    std::vector<std::vector<MembershipEvent>> perGroup;
    for (std::size_t j = 0; j < groups.size(); ++j) {
      const GroupId g = groups[j];
      std::vector<MembershipEvent> own;
      const int joins = 6 + static_cast<int>(j);
      for (int h = 0; h < joins; ++h) {
        const double angle = 0.7 * h + 0.3 * static_cast<double>(j);
        own.push_back(join(g, h, (0.2 + 0.05 * h) * std::cos(angle),
                           (0.2 + 0.05 * h) * std::sin(angle)));
      }
      own.push_back(leave(g, 2));
      own.push_back(crash(g, 4));
      own.push_back(join(g, 2, -0.15, 0.25));
      own.push_back(leave(g, 0));
      perGroup.push_back(std::move(own));
    }
    std::vector<MembershipEvent> batch;
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const auto& own : perGroup) {
        if (k >= own.size()) continue;
        batch.push_back(own[k]);
        any = true;
      }
      if (!any) break;
    }

    GroupManager manager(directOptions(GetParam()));
    const ApplyReport report = manager.apply(batch);
    EXPECT_EQ(report.publishes, static_cast<std::int64_t>(groups.size()));
    for (std::size_t j = 0; j < groups.size(); ++j) {
      const GroupId g = groups[j];
      GroupManager alone(directOptions(GetParam()));
      alone.apply(perGroup[j]);
      const auto got = manager.routes(g);
      const auto want = alone.routes(g);
      ASSERT_NE(got, nullptr) << "group " << g;
      ASSERT_NE(want, nullptr) << "group " << g;
      EXPECT_EQ(got->fingerprint(), want->fingerprint()) << "group " << g;
      EXPECT_EQ(got->epoch(), want->epoch()) << "group " << g;
      EXPECT_TRUE(got->identicalTo(*want)) << "group " << g;
      EXPECT_EQ(manager.liveMembersOf(g), alone.liveMembersOf(g));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ServicePartitionTest,
                         ::testing::Values(1, 4));

// The claim loop at more workers than items: a pass starts at most one
// loop per item, so these run one loop on the writer, whose window primes
// fewer items than it can hold (none at all for the empty batch).
constexpr int kManyWorkers = 7;

TEST(ServiceClaimLoopTest, EmptyBatchAtSevenWorkers) {
  GroupManager manager(directOptions(kManyWorkers));
  const ApplyReport report = manager.apply(std::vector<MembershipEvent>{});
  EXPECT_EQ(report.events, 0);
  EXPECT_EQ(report.publishes, 0);
  EXPECT_EQ(manager.groupCount(), 0);
  EXPECT_EQ(manager.liveGroupCount(), 0);
  EXPECT_EQ(manager.quiesce(0.0), 0);
}

TEST(ServiceClaimLoopTest, OneEventBatchAtSevenWorkers) {
  GroupManager manager(directOptions(kManyWorkers));
  const ApplyReport report =
      manager.apply(std::vector<MembershipEvent>{join(9, 4, 0.2, 0.1)});
  EXPECT_EQ(report.events, 1);
  EXPECT_EQ(report.publishes, 1);
  EXPECT_EQ(manager.epochOf(9), 1u);
  EXPECT_EQ(manager.parentOf(9, 4), kNoHost);
  EXPECT_EQ(manager.liveGroupCount(), 1);
  std::int64_t load = 0;
  for (const std::int64_t l : manager.shardLoads()) load += l;
  EXPECT_EQ(load, 1 + 2);  // one event, then a one-member table published
}

TEST(ServiceClaimLoopTest, QuiesceOverOneGroupAtSevenWorkers) {
  GroupManager manager(directOptions(kManyWorkers));
  manager.apply(std::vector<MembershipEvent>{join(3, 1, 0.1, 0.1)});
  // The duplicate join throws after join 2 applied, leaving the group
  // unpublished; quiesce() is the pass that publishes it.
  EXPECT_THROW(manager.apply(std::vector<MembershipEvent>{
                   join(3, 2, -0.2, 0.3), join(3, 1, 0.1, 0.1)}),
               InvalidArgument);
  ASSERT_EQ(manager.epochOf(3), 1u);
  EXPECT_EQ(manager.quiesce(0.0), 0);
  EXPECT_EQ(manager.epochOf(3), 2u);
  const auto table = manager.routes(3);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 2);
  EXPECT_TRUE(table->checkConsistency(6).ok);
  EXPECT_EQ(manager.liveGroupCount(), 1);
  // The service totals keep what the throwing batch applied.
  EXPECT_EQ(manager.stats().events, manager.groupStats(3).events);
  EXPECT_EQ(manager.stats().joins, manager.groupStats(3).joins);
}

// One apply() records one service_apply span with service_partition and
// service_runs children, and one quiesce() one service_quiesce span: none
// per run, whatever the worker count. With recording off, none at all.
class ServiceTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiledIn()) GTEST_SKIP() << "observability compiled out";
    wasEnabled_ = obs::enabled();
    obs::TraceRecorder::global().clear();
  }
  void TearDown() override {
    if (!obs::compiledIn()) return;
    obs::TraceRecorder::global().clear();
    obs::setEnabled(wasEnabled_);
  }

  /// Two groups' joins, leaves and a crash: several runs at four workers.
  static std::vector<MembershipEvent> batch() {
    return {join(0, 1, 0.1, 0.1), join(1, 2, -0.2, 0.1),
            join(0, 3, 0.3, -0.2), join(1, 4, 0.1, 0.4),
            join(2, 5, -0.1, -0.3), crash(0, 1), leave(1, 4)};
  }

  bool wasEnabled_ = false;
};

TEST_F(ServiceTraceTest, ApplyAndQuiesceRecordOneSpanPerPhase) {
  GroupManager manager(directOptions(4));
  obs::setEnabled(true);
  manager.apply(batch());
  auto events = obs::TraceRecorder::global().sortedEvents();
  ASSERT_EQ(events.size(), 3u);
  const auto find = [&](const std::string& name) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& e : events)
      if (name == e.name) return &e;
    return nullptr;
  };
  const obs::TraceEvent* apply = find("service_apply");
  const obs::TraceEvent* partition = find("service_partition");
  const obs::TraceEvent* runs = find("service_runs");
  ASSERT_NE(apply, nullptr);
  ASSERT_NE(partition, nullptr);
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(apply->parent, 0u);
  EXPECT_EQ(partition->parent, apply->id);
  EXPECT_EQ(runs->parent, apply->id);
  for (const obs::TraceEvent& e : events)
    EXPECT_STREQ(e.category, "service") << e.name;
  EXPECT_LE(partition->startNs + partition->durationNs, runs->startNs);

  obs::TraceRecorder::global().clear();
  manager.quiesce(1.0);
  events = obs::TraceRecorder::global().sortedEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "service_quiesce");
  EXPECT_EQ(events[0].parent, 0u);
}

TEST_F(ServiceTraceTest, UntracedApplyRecordsNothing) {
  GroupManager manager(directOptions(4));
  obs::setEnabled(false);
  manager.apply(batch());
  manager.quiesce(1.0);
  EXPECT_EQ(obs::TraceRecorder::global().eventCount(), 0);
}

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
  // Group, host and coordinates parse whole: `7.5` must not load as host 7
  // at (0.5, 0.2), nor `+4` as group 4, and a coordinate must be finite.
  load("0.5 3 J 7.5 0.2");
  load("0.6 +4 J 8 0.1 0.3");
  load("0.5 0 J 1 inf 0.2");
  load("0.5 0 J 1 0.1 nan");
  load("0.5 0 J 1 0.1 0.2x");
  load("0.5 1x L 1");
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
