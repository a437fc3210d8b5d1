#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "elastic/elastic_service.h"
#include "lease/lease_table.h"
#include "platform/rng.h"
#include "renaming/service.h"
#include "tas/arena_segment.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

using loren::sim::Name;

/// Cell claims per arena probe, summed over repetitions, so a low-
/// occupancy workload still times ~a million calls.
constexpr std::uint64_t kArenaClaims = std::uint64_t{1} << 20;
constexpr std::uint32_t kPositions = 1u << 16;

struct ArenaTimes {
  double claim_s = 0, release_s = 0, run_s = 0, bitmap_s = 0;
  std::uint64_t attempts = 0, wins = 0, releases = 0, run_names = 0,
                bitmap_names = 0;
};

/// One thread's share of the occupancy path: claim `quota` cells at the
/// scripted random positions, then give them back; then the same quota by
/// run-claims over its stripe; then by word claims on the bitmap arena
/// (the call ArenaSegment::try_claim_word forwards to).
void arena_worker(loren::ArenaSegment seg, loren::BitmapArena& bits,
                  const std::vector<std::uint64_t>& pos, std::uint64_t quota,
                  std::uint64_t reps, std::uint64_t stripe_lo,
                  std::uint64_t stripe_hi, SpinBarrier& bar, ArenaTimes& result) {
  // Counted locally: the threads' results sit side by side in memory.
  ArenaTimes out;
  std::vector<std::uint64_t> held;
  held.reserve(quota + 64);
  std::uint32_t p = 0;
  for (std::uint64_t r = 0; r < reps; ++r) {
    bar.wait();
    held.clear();
    auto t0 = Clock::now();
    while (held.size() < quota) {
      const std::uint64_t i = pos[p++ & (kPositions - 1)];
      ++out.attempts;
      if (seg.test_and_set(i)) held.push_back(i);
    }
    out.claim_s += seconds_since(t0);
    out.wins += held.size();
    bar.wait();
    t0 = Clock::now();
    for (const std::uint64_t i : held) seg.try_release(i);
    out.release_s += seconds_since(t0);
    out.releases += held.size();
    bar.wait();

    held.clear();
    std::uint64_t buf[16];
    t0 = Clock::now();
    std::uint64_t from = stripe_lo;
    while (held.size() < quota && from < stripe_hi) {
      const std::uint64_t k = std::min<std::uint64_t>(16, quota - held.size());
      const std::uint64_t to = std::min(stripe_hi, from + 64);
      const std::uint64_t got = seg.try_claim_run(from, to, k, buf);
      held.insert(held.end(), buf, buf + got);
      if (got < k) from = to;
    }
    out.run_s += seconds_since(t0);
    out.run_names += held.size();
    for (const std::uint64_t i : held) seg.try_release(i);
    bar.wait();

    held.clear();
    t0 = Clock::now();
    while (held.size() < quota) {
      const std::int64_t got =
          bits.try_claim_in_word(pos[p++ & (kPositions - 1)], 0, bits.size());
      if (got >= 0) held.push_back(static_cast<std::uint64_t>(got));
    }
    out.bitmap_s += seconds_since(t0);
    out.bitmap_names += held.size();
    for (const std::uint64_t i : held) bits.try_release(i);
  }
  result = out;
}

void probe_arena(LadderResult& r, const Shape& shape, std::uint64_t live,
                 std::uint64_t seed, unsigned workers) {
  // The service's namespace is ~(1 + eps) n with eps = 0.5: size the bare
  // arena the same and fill it to the workload's peak occupancy.
  const std::uint64_t n = std::max<std::uint64_t>(shape.service_n, live);
  const std::uint64_t cells = n + n / 2;
  const std::uint64_t quota = std::max<std::uint64_t>(1, live / workers);
  const std::uint64_t reps = std::max<std::uint64_t>(1, kArenaClaims / (quota * workers));
  loren::TasArena arena(cells);
  loren::BitmapArena bitmap(cells);
  std::vector<std::vector<std::uint64_t>> pos(workers);
  std::vector<ArenaTimes> times(workers);
  SpinBarrier bar(workers);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    loren::Xoshiro256 rng(loren::mix_seed(seed ^ 0xA7E4A, t));
    pos[t].resize(kPositions);
    for (auto& p : pos[t]) p = rng.below(cells);
  }
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      arena_worker(loren::ArenaSegment(arena, 0, cells), bitmap, pos[t], quota, reps,
                   cells * t / workers, cells * (t + 1) / workers, bar, times[t]);
    });
  }
  for (auto& th : threads) th.join();
  ArenaTimes sum;
  for (const ArenaTimes& a : times) {
    sum.claim_s += a.claim_s;
    sum.release_s += a.release_s;
    sum.run_s += a.run_s;
    sum.bitmap_s += a.bitmap_s;
    sum.attempts += a.attempts;
    sum.wins += a.wins;
    sum.releases += a.releases;
    sum.run_names += a.run_names;
    sum.bitmap_names += a.bitmap_names;
  }
  r.tas_claim_ns = sum.claim_s * 1e9 / static_cast<double>(sum.attempts);
  r.tas_release_ns = sum.release_s * 1e9 / static_cast<double>(sum.releases);
  r.tas_win_ratio = static_cast<double>(sum.wins) / static_cast<double>(sum.attempts);
  r.tas_run_claim_ns_per_name =
      sum.run_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, sum.run_names));
  r.tas_bitmap_claim_ns = sum.bitmap_s * 1e9 / static_cast<double>(sum.bitmap_names);
}

loren::RenamingServiceOptions service_options(Workload w) {
  loren::RenamingServiceOptions o;
  if (default_variant(w).leases) {
    o.lease.ttl_ticks = kLeaseTtl;
    o.lease.grace = kLeaseGrace;
  }
  return o;
}

void probe_stash(LadderResult& r, Workload w, const Shape& shape) {
  constexpr int kIters = 1 << 15;
  loren::RenamingService svc(std::max<std::uint64_t>(shape.service_n, 1024),
                             service_options(w));
  Name names[loren::NameStash::kMaxCapacity];
  double total_ticks = 0;
  std::uint64_t hits = 0;
  for (int it = 0; it < kIters; ++it) {
    const std::uint64_t got = svc.acquire_many(16, names);
    svc.release_many(names, got);
    const std::uint32_t m = svc.thread_cache_size();
    const auto t0 = ticks();
    for (std::uint32_t i = 0; i < m; ++i) names[i] = svc.acquire();
    const auto t1 = ticks();
    if (svc.thread_cache_size() == 0) {  // the stash served every call
      total_ticks += static_cast<double>(t1 - t0);
      hits += m;
    }
    svc.release_many(names, m);
  }
  svc.flush_thread_cache();
  r.stash_hit_acquire_ns =
      hits > 0 ? total_ticks * ns_per_tick() / static_cast<double>(hits) : 0;
}

std::atomic<std::uint64_t> g_fake_now{1};
std::uint64_t fake_clock() { return g_fake_now.load(std::memory_order_relaxed); }

void probe_lease(LadderResult& r, std::uint64_t live) {
  const std::uint64_t count = std::max<std::uint64_t>(live, 1024);
  loren::telemetry::MetricsRegistry reg;
  loren::lease::LeaseOptions o;
  o.ttl_ticks = kLeaseTtl;
  o.grace = kLeaseGrace;
  o.clock = &fake_clock;
  loren::lease::LeaseTable table(o, &reg);
  loren::lease::Heartbeat& hb = table.register_thread();
  auto* stripe = &reg.stripe();
  const std::uint64_t reps = std::max<std::uint64_t>(1, (std::uint64_t{1} << 19) / count);
  const auto t0 = ticks();
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    for (std::uint64_t i = 0; i < count; ++i) {
      table.open(static_cast<Name>(i), table.now(), &hb, stripe);
      if (!table.close(static_cast<Name>(i), &hb, stripe)) return;
    }
  }
  r.lease_open_close_ns = static_cast<double>(ticks() - t0) * ns_per_tick() /
                          static_cast<double>(reps * count);
  std::vector<double> reap_ms;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t i = 0; i < count; ++i) {
      table.open(static_cast<Name>(i), table.now(), &hb, stripe);
    }
    g_fake_now.fetch_add(kLeaseTtl + kLeaseGrace + 1, std::memory_order_relaxed);
    const auto t1 = Clock::now();
    table.reap(table.now(), stripe);
    reap_ms.push_back(seconds_since(t1) * 1e3);
  }
  r.lease_reap_ms = median(reap_ms);
}

void probe_elastic(LadderResult& r, const Shape& shape, std::uint64_t live) {
  constexpr int kReps = 8;
  const std::uint64_t n = std::max<std::uint64_t>(shape.service_n, 1024);
  loren::ElasticRenamingService svc(n);
  std::vector<Name> held(std::max<std::uint64_t>(live, 64));
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t got = 0;
    while (got < held.size()) {
      const std::uint64_t k = std::min<std::uint64_t>(16, held.size() - got);
      const std::uint64_t g = svc.acquire_many(k, held.data() + got);
      if (g == 0) break;
      got += g;
    }
    svc.grow();
    svc.release_many(held.data(), got);
    svc.flush_thread_cache();
    const auto t0 = Clock::now();
    svc.resize(n);
    for (int i = 0; i < 64; ++i) {
      if (svc.reclaim() == 0 && svc.groups_in_flight() == 1) break;
    }
    ms.push_back(seconds_since(t0) * 1e3);
  }
  r.elastic_resize_ms = median(ms);
  const auto snap = svc.metrics_registry().snapshot();
  if (const auto* h = snap.histogram("elastic.reclaim.quiesce_ticks");
      h != nullptr && h->count > 0) {
    r.elastic_quiesce_p99_ns = static_cast<double>(h->p99()) * ns_per_tick();
  }
}

void probe_threads(LadderResult& r, Workload w, const Shape& shape) {
  constexpr int kLifetimes = 512;
  loren::RenamingService svc(shape.service_n, service_options(w));
  std::vector<double> first_us(kLifetimes);
  const std::uint64_t rss0 = current_rss_kb();
  for (int i = 0; i < kLifetimes; ++i) {
    std::thread th([&, i] {
      const auto t0 = ticks();
      const Name n = svc.acquire();
      first_us[i] = static_cast<double>(ticks() - t0) * ns_per_tick() / 1e3;
      Name ring[kRing];
      const std::uint64_t got = svc.acquire_many(kRing, ring);
      svc.release_many(ring, got);
      if (n >= 0) svc.release(n);
    });
    th.join();
  }
  const std::uint64_t rss1 = current_rss_kb();
  r.thread_first_op_us = median(first_us);
  r.thread_rss_kb_per_lifetime =
      static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) / kLifetimes;
}

/// Peak live names a workload holds across its workers.
std::uint64_t live_peak(Workload w, const Shape& shape, unsigned workers) {
  switch (w) {
    case Workload::kPoolChurn: return std::uint64_t{workers} * kPoolWindow;
    case Workload::kCrashChurn: return std::uint64_t{workers} * kRing;
    default: return shape.live_target;
  }
}

}  // namespace

LadderResult run_ladder(Workload w, const Shape& shape, std::uint64_t seed,
                        unsigned workers) {
  LadderResult r;
  const std::uint64_t live = live_peak(w, shape, workers);
  probe_arena(r, shape, live, seed, workers);
  probe_stash(r, w, shape);
  probe_lease(r, live);
  probe_elastic(r, shape, live);
  probe_threads(r, w, shape);
  return r;
}

}  // namespace perfbench
