// Op-history oracle for the service tests: a header-only checker with the
// rules of perfbench's shadow-occupancy pass (perfbench/history.cpp),
// kept separate so the test suites do not link the benchmark.
//
// Every worker logs each name it was granted or gave up, with the
// steady_clock interval of the call that did it. A name is *surely held*
// by its holder from the end of the granting call to the start of the
// giving-up call. The checker flags
//   * two overlapping surely-held intervals of one name (a grant while
//     the name was held — across threads or within one);
//   * a grant of a name the thread already holds;
//   * a release of a name the thread does not hold;
//   * any name outside [0, bound).
// Names still held at the end of a history hold until +infinity.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace loren::history {

enum class OpKind : std::uint8_t { kAcquire, kRelease };

struct OpEvent {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t name = 0;
  OpKind kind = OpKind::kAcquire;
};

using History = std::vector<OpEvent>;  // one thread, program order

struct CheckResult {
  bool ok = true;
  std::uint64_t events = 0;
  std::uint64_t holds = 0;
  std::string violation;  // the first one found
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Checks the per-thread histories; every name must be `< bound`.
inline CheckResult check_histories(const std::vector<History>& threads,
                                   std::uint64_t bound) {
  struct Hold {
    std::int64_t name;
    std::int64_t from;  // end of the granting call
    std::int64_t to;    // start of the giving-up call (max: still held)
    std::uint32_t thread;
  };
  CheckResult r;
  const auto fail = [&r](std::string why) {
    r.ok = false;
    r.violation = std::move(why);
    return r;
  };
  std::vector<Hold> holds;
  for (std::uint32_t t = 0; t < threads.size(); ++t) {
    std::unordered_map<std::int64_t, std::int64_t> open;  // name -> from
    for (const OpEvent& e : threads[t]) {
      ++r.events;
      const std::string where = " (thread " + std::to_string(t) + ", name " +
                                std::to_string(e.name) + ")";
      if (e.name < 0 || static_cast<std::uint64_t>(e.name) >= bound) {
        return fail("name outside [0, " + std::to_string(bound) + ")" + where);
      }
      if (e.kind == OpKind::kAcquire) {
        if (!open.emplace(e.name, e.end_ns).second) {
          return fail("granted twice without a release" + where);
        }
        continue;
      }
      const auto it = open.find(e.name);
      if (it == open.end()) return fail("released a name it did not hold" + where);
      holds.push_back({e.name, it->second, e.start_ns, t});
      open.erase(it);
    }
    for (const auto& [name, from] : open) {
      holds.push_back({name, from, std::numeric_limits<std::int64_t>::max(), t});
    }
  }
  r.holds = holds.size();
  std::sort(holds.begin(), holds.end(), [](const Hold& a, const Hold& b) {
    return a.name != b.name ? a.name < b.name : a.from < b.from;
  });
  // Sorted by start, so per name one pass with the latest end seen so far
  // finds any overlap.
  for (std::size_t g = 0; g < holds.size();) {
    std::size_t latest = g;
    std::size_t i = g + 1;
    for (; i < holds.size() && holds[i].name == holds[g].name; ++i) {
      if (holds[i].from < holds[latest].to) {
        return fail("name " + std::to_string(holds[i].name) +
                    " held by threads " + std::to_string(holds[latest].thread) +
                    " and " + std::to_string(holds[i].thread) + " at once");
      }
      if (holds[i].to > holds[latest].to) latest = i;
    }
    g = i;
  }
  return r;
}

}  // namespace loren::history
