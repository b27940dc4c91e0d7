// Golden service fingerprints: fixed membership scripts replayed through
// GroupManager must land on these exact serviceFingerprint values, at one
// and at four workers. The other service suites compare two runs
// of the same build (delta against full, one worker against many), so a
// change that moved every representative the same way would pass them;
// these constants pin the published trees themselves. If the service's
// trees are changed deliberately, update the constants (and say so in the
// change description).
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "omt/service/group_manager.h"
#include "omt/service/replay.h"
#include "omt/service/script.h"

namespace omt {
namespace {

struct GoldenCase {
  const char* name;
  int dim;
  bool rpc;
  std::uint64_t fingerprint;
};

std::vector<MembershipEvent> goldenScript(int dim) {
  ScriptOptions script;
  script.groups = 16;
  script.hosts = 800;
  script.events = 6000;
  script.dim = dim;
  script.seed = 0x60de5e7ULL;
  script.meanGroupSize = 30.0;
  script.meanEventGap = 4e-3;  // ~24 time units, spanned by the disruption
  return generateMembershipScript(script);
}

ServiceOptions goldenOptions(const GoldenCase& c, int workers) {
  ServiceOptions options;
  options.shards = workers;
  options.seed = 0x5e7;
  if (c.rpc) {
    options.useRpc = true;
    options.injectDisruption = true;
    options.disruption.duration = 24.0;
    options.disruption.partitionRate = 0.2;
    options.disruption.lossBurstRate = 0.1;
  }
  return options;
}

TEST(ServiceGoldenTest, ReplayFingerprintsArePinned) {
  const GoldenCase cases[] = {
      {"direct d=2", 2, false, 0x7a0c2b6740135a3fULL},
      {"direct d=4", 4, false, 0xf0b88a3a0b447a4eULL},
      {"rpc+disruption d=2", 2, true, 0x2eb7d361a85ad174ULL},
  };
  for (const GoldenCase& c : cases) {
    const std::vector<MembershipEvent> events = goldenScript(c.dim);
    for (const int workers : {1, 4}) {
      GroupManager manager(goldenOptions(c, workers));
      const ReplayResult result =
          replayScript(manager, events, {.batchSize = 128});
      EXPECT_TRUE(result.converged())
          << c.name << " workers=" << workers << ": "
          << result.degradedGroups << " degraded, "
          << result.firstInconsistency;
      if (c.rpc) {
        // The disruption must reach the replay: joins park and the
        // anti-entropy audits heal them.
        EXPECT_GT(manager.stats().parkedJoins, 0) << c.name;
        EXPECT_GT(manager.stats().audits, 0) << c.name;
      }
      const std::uint64_t got = serviceFingerprint(manager);
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llx",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, c.fingerprint)
          << c.name << " workers=" << workers << " got " << hex;
    }
  }
}

}  // namespace
}  // namespace omt
