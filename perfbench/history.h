// Op-history checker: the shadow-occupancy pass run on the checked round.
//
// Every worker logs each name it was granted or gave up, with the
// wall-clock interval of the call that did it. A name is *surely held*
// by its holder from the end of the granting call to the start of the
// giving-up call; two surely-held intervals of one name that overlap
// mean the name was granted while held. The pass also checks each name
// against the namespace bound and each thread's own history (no name
// granted twice without a release, no release of a name not held).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class OpKind : std::uint8_t {
  kAcquire,
  kRelease,
  kAbandon,  // the holder exited holding the name (crash model)
};

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

/// Checks the per-thread histories; every granted name must be `< bound`.
CheckResult check_histories(const std::vector<History>& threads,
                            std::uint64_t bound);

}  // namespace perfbench
