#include "omt/service/script.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "omt/common/error.h"
#include "omt/random/rng.h"
#include "omt/random/samplers.h"

namespace omt {

namespace {

std::uint64_t memberKey(const ScriptOptions& options, GroupId group,
                        HostId host) {
  return static_cast<std::uint64_t>(group) *
             static_cast<std::uint64_t>(options.hosts) +
         static_cast<std::uint64_t>(host);
}

}  // namespace

std::vector<MembershipEvent> generateMembershipScript(
    const ScriptOptions& options) {
  OMT_CHECK(options.groups >= 1, "need at least one group");
  OMT_CHECK(options.hosts >= 1, "need at least one host");
  OMT_CHECK(options.events >= options.groups,
            "need at least one event per group to seed every group");
  OMT_CHECK(options.meanGroupSize > 0.0, "mean group size must be positive");
  OMT_CHECK(options.crashFraction >= 0.0 && options.crashFraction <= 1.0,
            "crash fraction outside [0, 1]");
  OMT_CHECK(options.meanEventGap > 0.0, "event gap must be positive");
  OMT_CHECK(options.sizeSkew >= 0.0, "size skew must be non-negative");

  // Per-group drift targets: uniform (= meanGroupSize) or Zipf over group
  // ids, normalised so the mean target stays meanGroupSize and no single
  // group can claim more than half the population.
  std::vector<double> targetSize(static_cast<std::size_t>(options.groups),
                                 options.meanGroupSize);
  if (options.sizeSkew > 0.0) {
    double total = 0.0;
    for (GroupId g = 0; g < options.groups; ++g) {
      const double w = std::pow(static_cast<double>(g + 1), -options.sizeSkew);
      targetSize[static_cast<std::size_t>(g)] = w;
      total += w;
    }
    const double scale =
        options.meanGroupSize * static_cast<double>(options.groups) / total;
    const double cap =
        std::max(1.0, static_cast<double>(options.hosts) / 2.0);
    for (double& t : targetSize) t = std::min(cap, std::max(1.0, t * scale));
  }

  Rng rng(options.seed);
  std::vector<Point> positions;
  positions.reserve(static_cast<std::size_t>(options.hosts));
  for (HostId h = 0; h < options.hosts; ++h)
    positions.push_back(sampleUnitBall(rng, options.dim));

  // Per-group member list (swap-remove sampling) + membership index.
  std::vector<std::vector<HostId>> members(
      static_cast<std::size_t>(options.groups));
  std::unordered_map<std::uint64_t, std::int32_t> indexInGroup;

  std::vector<MembershipEvent> events;
  events.reserve(static_cast<std::size_t>(options.events));
  double now = 0.0;
  const auto pickHost = [&]() {
    return static_cast<HostId>(
        rng.uniformInt(static_cast<std::uint64_t>(options.hosts)));
  };
  const auto emitJoin = [&](GroupId g, HostId h) {
    auto& list = members[static_cast<std::size_t>(g)];
    indexInGroup[memberKey(options, g, h)] =
        static_cast<std::int32_t>(list.size());
    list.push_back(h);
    events.push_back({now, g, ServiceEventKind::kJoin, h,
                      positions[static_cast<std::size_t>(h)]});
  };
  const auto emitDeparture = [&](GroupId g) {
    auto& list = members[static_cast<std::size_t>(g)];
    const auto pick = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::uint64_t>(list.size())));
    const HostId h = list[pick];
    list[pick] = list.back();
    indexInGroup[memberKey(options, g, list.back())] =
        static_cast<std::int32_t>(pick);
    list.pop_back();
    indexInGroup.erase(memberKey(options, g, h));
    const bool crash = rng.uniform() < options.crashFraction;
    events.push_back(
        {now, g, crash ? ServiceEventKind::kCrash : ServiceEventKind::kLeave,
         h, Point()});
  };
  const auto advance = [&]() {
    now += -std::log(1.0 - rng.uniform()) * options.meanEventGap;
  };

  // Seed phase: one join per group, round-robin, so every group exists.
  for (GroupId g = 0; g < options.groups; ++g) {
    emitJoin(g, pickHost());
    advance();
  }

  // Random phase: drift each group toward the target mean size.
  while (static_cast<std::int64_t>(events.size()) < options.events) {
    const auto g = static_cast<GroupId>(
        rng.uniformInt(static_cast<std::uint64_t>(options.groups)));
    const auto live =
        static_cast<double>(members[static_cast<std::size_t>(g)].size());
    const double target = targetSize[static_cast<std::size_t>(g)];
    double joinProb = 0.5 + 0.5 * (target - live) / target;
    joinProb = std::min(0.95, std::max(0.05, joinProb));
    bool join = live == 0.0 || rng.uniform() < joinProb;
    if (join) {
      // A handful of attempts to find a non-member; a saturated group
      // (population exhausted) degrades to a departure instead.
      HostId h = kNoHost;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const HostId candidate = pickHost();
        if (!indexInGroup.count(memberKey(options, g, candidate))) {
          h = candidate;
          break;
        }
      }
      if (h == kNoHost) join = false;
      else emitJoin(g, h);
    }
    if (!join) {
      if (members[static_cast<std::size_t>(g)].empty()) continue;
      emitDeparture(g);
    }
    advance();
  }
  return events;
}

std::vector<MembershipEvent> filterGroup(
    const std::vector<MembershipEvent>& events, GroupId group) {
  std::vector<MembershipEvent> out;
  for (const MembershipEvent& e : events)
    if (e.group == group) out.push_back(e);
  return out;
}

void saveMembershipScript(const std::string& path,
                          const std::vector<MembershipEvent>& events,
                          int dim) {
  std::ofstream out(path);
  OMT_CHECK(out.good(), "cannot open script file '" + path + "'");
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# omt-membership-script v1\n";
  out << "dim " << dim << "\n";
  for (const MembershipEvent& e : events) {
    out << e.time << " " << e.group << " ";
    switch (e.kind) {
      case ServiceEventKind::kJoin:
        out << "J " << e.host;
        for (int c = 0; c < dim; ++c) out << " " << e.position[c];
        break;
      case ServiceEventKind::kLeave:
        out << "L " << e.host;
        break;
      case ServiceEventKind::kCrash:
        out << "C " << e.host;
        break;
    }
    out << "\n";
  }
  OMT_CHECK(out.good(), "failed writing script file '" + path + "'");
}

std::vector<MembershipEvent> loadMembershipScript(const std::string& path,
                                                  int* dimOut) {
  std::ifstream in(path);
  OMT_CHECK(in.good(), "cannot open script file '" + path + "'");
  int dim = -1;
  std::vector<MembershipEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first == "dim") {
      OMT_CHECK(static_cast<bool>(ls >> dim) && dim >= 1 && dim <= kMaxDim,
                "bad dim line in script '" + path + "'");
      continue;
    }
    OMT_CHECK(dim >= 1, "script '" + path + "' events precede the dim line");
    MembershipEvent e;
    std::string kind;
    const char* end = first.data() + first.size();
    const auto [ptr, ec] = std::from_chars(first.data(), end, e.time);
    OMT_CHECK(ec == std::errc() && ptr == end && std::isfinite(e.time),
              "script time '" + first + "' is not a finite number: " + line);
    OMT_CHECK(static_cast<bool>(ls >> e.group >> kind >> e.host),
              "malformed script line: " + line);
    if (kind == "J") {
      e.kind = ServiceEventKind::kJoin;
      e.position = Point(dim);
      for (int c = 0; c < dim; ++c)
        OMT_CHECK(static_cast<bool>(ls >> e.position[c]),
                  "join line missing coordinates: " + line);
    } else if (kind == "L") {
      e.kind = ServiceEventKind::kLeave;
    } else if (kind == "C") {
      e.kind = ServiceEventKind::kCrash;
    } else {
      throw InvalidArgument("unknown event kind '" + kind + "' in " + path);
    }
    std::string extra;
    OMT_CHECK(!(ls >> extra),
              "trailing '" + extra + "' on script line: " + line);
    events.push_back(std::move(e));
  }
  if (dimOut) *dimOut = dim;
  return events;
}

}  // namespace omt
