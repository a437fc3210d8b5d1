#include "history.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace perfbench {

namespace {

struct Hold {
  std::int64_t name;
  std::int64_t from;  // end of the granting call
  std::int64_t to;    // start of the giving-up call (max: still held)
  std::uint32_t thread;
};

CheckResult fail(CheckResult r, std::string why) {
  r.ok = false;
  r.violation = std::move(why);
  return r;
}

}  // namespace

CheckResult check_histories(const std::vector<History>& threads,
                            std::uint64_t bound) {
  CheckResult r;
  std::vector<Hold> holds;
  for (std::uint32_t t = 0; t < threads.size(); ++t) {
    std::unordered_map<std::int64_t, std::int64_t> open;  // name -> from
    for (const OpEvent& e : threads[t]) {
      ++r.events;
      const std::string where = " (thread " + std::to_string(t) + ", name " +
                                std::to_string(e.name) + ")";
      if (e.name < 0 || static_cast<std::uint64_t>(e.name) >= bound) {
        return fail(r, "name outside [0, " + std::to_string(bound) + ")" + where);
      }
      if (e.kind == OpKind::kAcquire) {
        if (!open.emplace(e.name, e.end_ns).second) {
          return fail(r, "granted twice without a release" + where);
        }
        continue;
      }
      const auto it = open.find(e.name);
      if (it == open.end()) {
        return fail(r, "released a name it did not hold" + where);
      }
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
        return fail(r, "name " + std::to_string(holds[i].name) +
                           " held by threads " +
                           std::to_string(holds[latest].thread) + " and " +
                           std::to_string(holds[i].thread) + " at once");
      }
      if (holds[i].to > holds[latest].to) latest = i;
    }
    g = i;
  }
  return r;
}

}  // namespace perfbench
