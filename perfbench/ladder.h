// The layer ladder: directed probes that time one layer's public calls in
// isolation, sized by the workload's shape, so every layer has a cost on
// every workload's traced run.
#pragma once

#include <cstdint>

#include "script.h"

namespace perfbench {

struct LadderResult {
  // tas: the workload's occupancy path on a bare arena via ArenaSegment.
  double tas_claim_ns = 0;      // per test_and_set attempt
  double tas_release_ns = 0;    // per try_release
  double tas_win_ratio = 0;     // wins / attempts
  double tas_run_claim_ns_per_name = 0;
  double tas_bitmap_claim_ns = 0;  // per claimed cell via try_claim_word
  // stash: an acquire() that the thread's stash serves.
  double stash_hit_acquire_ns = 0;
  // lease: LeaseTable open+close pair, and one reap of the live set.
  double lease_open_close_ns = 0;
  double lease_reap_ms = 0;
  // elastic: resize()+reclaim() after a grow, and the quiescence wait.
  double elastic_resize_ms = 0;
  double elastic_quiesce_p99_ns = 0;
  // thread: a fresh thread's first acquire(), and RSS kept per lifetime.
  double thread_first_op_us = 0;
  double thread_rss_kb_per_lifetime = 0;
};

LadderResult run_ladder(Workload w, const Shape& shape, std::uint64_t seed,
                        unsigned workers);

}  // namespace perfbench
