// The four closed-loop workloads, one round at a time.
//
// A round builds a fresh service (so per-thread registrations and leaked
// state never outlive it), runs the script's fixed amount of work from
// `workers` threads, and checks the service's end state. Workers only
// read their pre-generated script inside the timed loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "history.h"
#include "script.h"

namespace perfbench {

/// How a round configures the service and what it records. The default
/// is the end-to-end configuration; the traced run toggles one field at
/// a time.
struct Variant {
  bool name_cache = true;
  bool leases = false;         // lease TTL on (crash-churn's default)
  bool registry = false;       // attach a MetricsRegistry (detailed mode)
  bool control_observe = false;
  bool spans = false;          // record spans around sampled calls
  bool log_history = false;    // log every op for the history checker
};

Variant default_variant(Workload w);

/// Lease timing for every leased round: TSC ticks. A live holder whose
/// thread is descheduled for longer than ttl + grace would lapse; at
/// these values (~40 ms at 2 GHz) none did in testing.
inline constexpr std::uint64_t kLeaseTtl = std::uint64_t{1} << 26;
inline constexpr std::uint64_t kLeaseGrace = std::uint64_t{1} << 24;

/// Failed operations by cause.
struct Failures {
  std::uint64_t exhausted = 0;       // AcquireResult::kExhausted
  std::uint64_t sweep_budget = 0;    // kSweepBudgetExhausted
  std::uint64_t shed = 0;            // kShed
  std::uint64_t lease_expired = 0;   // kLeaseExpired
  std::uint64_t other_code = 0;      // any other negative acquire result
  std::uint64_t short_batches = 0;   // acquire_many below its request
  std::uint64_t false_releases = 0;  // release()==false / release_many short
  std::uint64_t guard_trips = 0;     // lease guard rejections
  [[nodiscard]] std::uint64_t total() const {
    return exhausted + sweep_budget + shed + lease_expired + other_code +
           short_batches + false_releases + guard_trips;
  }
  void add(const Failures& o);
};

struct RoundResult {
  bool ok = true;
  std::string error;  // first correctness violation
  double setup_s = 0;
  double timed_s = 0;
  std::uint64_t names = 0;  // acquired + released
  std::uint64_t calls = 0;  // acquire/release calls attempted
  std::uint64_t acquire_calls = 0;
  Failures fail;
  LatencyHist acquire;  // sampled per-call ticks
  LatencyHist release;
  std::uint64_t max_local = 0;   // highest decoded name issued
  std::uint64_t sized_for = 0;   // holders the service was sized for (peak)
  std::uint64_t bound = 0;       // bound on decoded names (max_local < bound)
  std::uint64_t name_bound = 0;  // the same bound on names as issued
  // Layer counters read from the service after the round.
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t stash_spills = 0, stash_flushes = 0;
  std::uint64_t sweeps = 0, migrations = 0;
  std::uint64_t grows = 0, shrinks = 0, reclaimed = 0;
  std::uint64_t lease_expired = 0, abandoned = 0;
  // Registry histograms (detailed mode only; 0 otherwise). Counts, or
  // ticks for quiesce.
  double probe_len_p50 = 0, probe_len_p99 = 0, lost_races_p99 = 0;
  double quiesce_p99_ticks = 0;
  // Times of the cold calls: resize()+reclaim() per cycle, final reap.
  std::vector<double> resize_s;
  double reap_s = 0;
  std::vector<History> histories;          // log_history only
  std::vector<std::vector<Span>> spans;    // spans only

  [[nodiscard]] double ops_per_s() const {
    return timed_s > 0 ? static_cast<double>(names) / timed_s : 0;
  }
};

RoundResult run_round(const Script& script, const Shape& shape,
                      unsigned workers, const Variant& v,
                      std::uint32_t round_index);

}  // namespace perfbench
