// The acquire/release pipeline (renaming/service_core.h) and the hot
// paths of both namespace policies, which inline into it; the elastic
// policy's cold resize and reclamation paths are in elastic_service.cpp.
#include "renaming/service_core.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "elastic/elastic_service.h"
#include "platform/sim_point.h"
#include "renaming/service.h"
#include "telemetry/trace.h"

namespace loren {

using sim::Name;

namespace {

/// name = (local << kTagBits) | tag, plus the generation stamp when the
/// debug release guard is on (see ElasticOptions::debug_release_guard).
Name encode_name(const ShardGroup& g, std::int64_t local, bool guard) {
  std::uint64_t v =
      (static_cast<std::uint64_t>(local) << Generations::kTagBits) | g.tag();
  if (guard) {
    v |= (g.generation() & Generations::kGenStampMask)
         << Generations::kGenStampShift;
  }
  return static_cast<Name>(v);
}

/// encode_name's inverse, so the stamp geometry lives in exactly two
/// adjacent functions.
Generations::Decoded decode_name(Name name, bool guard) {
  std::uint64_t raw = static_cast<std::uint64_t>(name);
  Generations::Decoded d{};
  if (guard) {
    d.stamp = (raw >> Generations::kGenStampShift) & Generations::kGenStampMask;
    raw &= (std::uint64_t{1} << Generations::kGenStampShift) - 1;
  }
  d.tag = static_cast<std::uint32_t>(raw) & (Generations::kMaxGroups - 1);
  d.local = raw >> Generations::kTagBits;
  return d;
}

}  // namespace

// ------------------------------------------------------------ the core --

/// Per-(thread, service) hot-path state. The namespace handle (counter
/// node or epoch slot) and the stripe are registered lazily, so the
/// introspection accessors can touch the entry without registering; the
/// sticky shard hint is after a reset or resize merely stale, never wrong.
template <class Policy>
struct ServiceCore<Policy>::PerThread {
  typename Policy::Handle* handle = nullptr;
  telemetry::MetricsRegistry::ThreadStripe* stripe = nullptr;
  Xoshiro256* rng = nullptr;  // the thread context's generator
  std::uint32_t shard = 0;
  /// Release-path maintenance sample counter (policy-defined cadence).
  std::uint32_t sample = 0;
  /// Detailed-mode sampling phases (every (mask+1)-th op observed).
  /// Acquire and release keep separate phases: churn loops alternate the
  /// two ops strictly, so a shared counter would park one side on a
  /// parity the mask never selects.
  std::uint32_t op_tick = 0;
  std::uint32_t rel_tick = 0;
  NameStash stash;  // tagged with the policy's stash generation
  /// This thread's lease heartbeat cell (null until the first op under a
  /// leasing service; heap-owned by the LeaseTable, outlives the thread).
  lease::Heartbeat* hb = nullptr;
};

template <class Policy>
ServiceCore<Policy>::ServiceCore(const ServiceOptions& options,
                                 const typename Policy::Init& init)
    : options_(options),
      id_(next_service_instance_id()),
      owned_metrics_(options.telemetry.registry != nullptr
                         ? nullptr
                         : std::make_unique<telemetry::MetricsRegistry>()),
      // Resolve the telemetry surface once: attached registry = detailed
      // mode (per-op histograms live), internal fallback = event counters
      // only. Metric ids are interned here so the hot paths never touch a
      // name.
      ins_([&] {
        Instruments ins;
        ins.registry = options.telemetry.registry != nullptr
                           ? options.telemetry.registry
                           : owned_metrics_.get();
        // The controller is fed from the per-op latency histograms, so
        // enabling control implies detailed sampling even on the internal
        // registry (the 1-in-256 cadence keeps the hot-path cost inside
        // the telemetry overhead contract either way).
        ins.detailed = options.telemetry.registry != nullptr ||
                       options.control.mode != control::ControlMode::kOff;
        telemetry::MetricsRegistry& reg = *ins.registry;
        const std::string p = Policy::kMetricPrefix;
        ins.cache_hits = reg.counter(p + "cache.hits");
        ins.cache_misses = reg.counter(p + "cache.misses");
        ins.sweep_budget_exhausted = reg.counter(p + "sweep.budget_exhausted");
        ins.shard_migrations = reg.counter(p + "shard.migrations");
        ins.sweeps = reg.counter(p + "sweep.invocations");
        ins.stash_spills = reg.counter(p + "stash.spills");
        ins.stash_flushes = reg.counter(p + "stash.flushes");
        ins.acquire_ticks = reg.histogram(p + "acquire.ticks");
        ins.release_ticks = reg.histogram(p + "release.ticks");
        ins.probe_len = reg.histogram(p + "acquire.probe_len");
        ins.lost_races = reg.histogram(p + "acquire.lost_races");
        ins.ring_walk = reg.histogram(p + "batch.ring_walk");
        return ins;
      }()),
      controller_([&]() -> std::unique_ptr<control::AdaptiveController> {
        if (options.control.mode == control::ControlMode::kOff) return nullptr;
        static_assert(control::AdaptiveController::kStashFloor ==
                          NameStash::kMinCapacity,
                      "stash knob floor must match the stash's own minimum");
        control::AdaptiveController::KnobSeeds seeds = Policy::knob_seeds(init);
        seeds.stash_cap = NameStash::kMaxCapacity;
        return std::make_unique<control::AdaptiveController>(
            options.control, ins_.registry, ins_.acquire_ticks, seeds);
      }()),
      leases_(options.lease.ttl_ticks != 0
                  ? std::make_unique<lease::LeaseTable>(options.lease,
                                                        ins_.registry)
                  : nullptr),
      ns_(init, options, *ins_.registry, controller_.get()) {
  if (leases_ != nullptr) leases_->set_reclaimer(&ServiceCore::reclaim_cell, this);
  // Last: once registered, exiting threads may flush into us, so every
  // member above must already be live.
  ServiceDirectory::instance().register_service(id_, this,
                                                &ServiceCore::directory_flush);
}

template <class Policy>
ServiceCore<Policy>::~ServiceCore() {
  // Unregister first: the directory holds its lock across in-flight exit
  // flushes, so after this returns no thread can touch the dying service.
  ServiceDirectory::instance().unregister_service(id_);
}

template <class Policy>
std::uint64_t ServiceCore<Policy>::thread_slot() const {
  return thread_ctx<PerThread>(options_.seed).slot;
}

template <class Policy>
typename ServiceCore<Policy>::PerThread& ServiceCore<Policy>::per_thread() const {
  ThreadCtx<PerThread>& ctx = thread_ctx<PerThread>(options_.seed);
  return ctx.services.for_service(id_, [&](PerThread& p) {
    p.rng = &ctx.rng;
    p.shard = static_cast<std::uint32_t>(ns_.home_shard(ctx.slot));
    p.stash.configure(options_.name_cache_capacity);
  });
}

template <class Policy>
typename ServiceCore<Policy>::PerThread& ServiceCore<Policy>::registered() {
  PerThread& per = per_thread();
  if (per.handle == nullptr) {
    per.handle = &ns_.register_thread();
    per.stripe = &ins_.registry->stripe();
  }
  return per;
}

template <class Policy>
typename ServiceCore<Policy>::PerThread& ServiceCore<Policy>::enter() {
  PerThread& per = registered();
  if (leases_ != nullptr) lease_heartbeat(per);
  return per;
}

template <class Policy>
void ServiceCore<Policy>::lease_heartbeat(PerThread& per) {
  if (per.hb == nullptr) per.hb = &leases_->register_thread();
  const lease::Heartbeat::Beat beat = per.hb->beat();
  if (beat.doomed && options_.name_cache) {
    // The reaper found this thread quiet for ttl + grace: its stashed
    // leases may have been expired (and their cells reclaimed), so every
    // stashed name must be revalidated (an owner-word CAS) before it can
    // be re-issued. The stash is synced first, so only names it may still
    // serve are revalidated. A name whose lease is gone was already
    // reclaimed — dropping the stash entry is the only safe move.
    sync_stash(per);
    NameStash& st = per.stash;
    if (!st.empty()) {
      Name buf[NameStash::kMaxCapacity];
      const std::uint32_t n = st.take_oldest(buf, st.size());
      for (std::uint32_t i = 0; i < n; ++i) {
        if (leases_->validate(buf[i], per.hb)) st.push(buf[i]);
      }
    }
  }
  // The op-path scan gate: the only clock read on a holder's path, on
  // one call in kScanSampleEvery.
  if (beat.count % lease::kScanSampleEvery != 0) return;
  const std::uint64_t now = leases_->now();
  if (leases_->scan_due(now)) {
    reap(per, [&] { return leases_->try_reap(now, per.stripe); });
  }
}

template <class Policy>
template <class Pass>
std::size_t ServiceCore<Policy>::reap(PerThread& per, Pass&& pass) {
  std::size_t reclaimed;
  {
    // The reclaim callback goes through the policy's group lookup: pin
    // around the whole pass, exactly like a release.
    typename Policy::Pin pin(ns_, *per.handle);
    reclaimed = pass();
  }
  if (reclaimed > 0) {
    ns_.note_reaped(*per.handle, reclaimed);
    if (controller_ != nullptr) controller_->note_release();
  }
  return reclaimed;
}

template <class Policy>
Name ServiceCore<Policy>::renew_lease(Name name) {
  if (leases_ == nullptr) return name;
  typename Policy::Decoded d;
  if (!ns_.decode(name, &d)) return kLeaseExpired;
  PerThread& per = enter();
  return leases_->renew(name, leases_->now(), per.hb, per.stripe)
             ? name
             : kLeaseExpired;
}

template <class Policy>
std::size_t ServiceCore<Policy>::reap_expired() {
  if (leases_ == nullptr) return 0;
  // Deliberately NO heartbeat beat here: reap_expired is a maintenance
  // op (a dedicated reaper holds nothing; the post-crash drain must be
  // able to expire the *caller's own* abandoned names). Holders keep
  // their leases alive through regular ops or renew_lease().
  PerThread& per = registered();
  const std::size_t reclaimed =
      reap(per, [&] { return leases_->reap(leases_->now(), per.stripe); });
  // Reaped names may have emptied a retired generation: push the
  // policy's drain pipeline forward now.
  if (reclaimed > 0) ns_.maintain();
  return reclaimed;
}

template <class Policy>
std::uint64_t ServiceCore<Policy>::sync_stash(PerThread& per) {
  NameStash& st = per.stash;
  const std::uint64_t gen = ns_.stash_gen();
  if (st.gen() == gen) return 0;
  std::uint64_t flushed = 0;
  if constexpr (Policy::kFlushStaleStash) {
    // A resize was published since the stash was filled: its contents
    // are names still *held* in what is now a retired (or at least
    // older) generation. Flush them through the shared path so that
    // generation can drain. (The tag and generation are read separately;
    // a resize racing between the two loads only costs one extra flush on
    // the next call — the stale pairing fails this check again and
    // self-heals.)
    if (!st.empty()) {
      Name buf[NameStash::kMaxCapacity];
      const std::uint32_t n = st.take_oldest(buf, st.size());
      flushed = release_shared(buf, n, *per.handle, per.stripe, per.hb);
    }
  } else {
    // reset() ran since the stash was filled: the epoch bump already made
    // every stashed cell winnable again, so the values are simply stale.
    st.clear();
  }
  st.set_gen(gen);
  st.set_expected_tag(ns_.live_tag());
  return flushed;
}

template <class Policy>
void ServiceCore<Policy>::note_stash_acquire(PerThread& per, bool hit) {
  NameStash& st = per.stash;
  const NameStash::WindowStats ws = st.note_acquire(hit);
  if (ws.rolled) {
    per.stripe->add(ins_.cache_hits, ws.hits);
    per.stripe->add(ins_.cache_misses, ws.misses);
    // The controller's capacity bound is re-applied at every adaptation
    // rollup, so the stash's own doubling can never outrun it for more
    // than one window; the excess spill below drains what the clamp cut.
    if (controller_ != nullptr) st.clamp_capacity(controller_->stash_cap());
    if (st.excess() > 0) spill(per, st.excess());
  }
}

template <class Policy>
void ServiceCore<Policy>::spill(PerThread& per, std::uint32_t k) {
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = per.stash.take_oldest(buf, k);
  // Names leave the (thread-private) stash and hit shared cells/counter.
  LOREN_SIM_POINT("stash.spill");
  LOREN_TRACE("stash.spill", n);
  per.stripe->add(ins_.stash_spills, n);
  release_shared(buf, n, *per.handle, per.stripe, per.hb);
}

template <class Policy>
bool ServiceCore<Policy>::may_absorb(PerThread& per,
                                     const typename Policy::Decoded& d,
                                     Name name) {
  // The cell must actually be taken for the release to be legitimate; a
  // plain load suffices (the cell stays taken while stashed), and for a
  // conforming caller the line is still in this core's cache from the
  // acquisition. Contract-violating races (two threads releasing one held
  // name) are undetectable without the RMW — see release()'s contract.
  const ShardGroup* g = ns_.resolve_pinned(d);
  if (g == nullptr || !g->is_held(d.local)) return false;
  // Absorbing keeps the lease open (the cell stays taken) and re-homes it
  // onto this thread's heartbeat, so the reaper tracks the stash's owner,
  // not the original holder (who may exit). A rebind miss means the
  // reaper already expired the lease and reclaimed the cell — absorbing
  // now would hand a recycled cell back as a stash hit.
  return leases_ == nullptr || leases_->rebind(name, per.hb) ||
         !leases_->release_guard();
}

template <class Policy>
Name ServiceCore<Policy>::acquire() {
  PerThread& per = enter();
  // Detailed mode: every (mask+1)-th op is the observed sample — one
  // trace_ticks() pair plus probe/lost-race accumulation into stack
  // locals, recorded as single stripe adds at the exits, never an RMW on
  // shared state. The unobserved ops pay one counter increment and a
  // predictable branch, which is what keeps detailed mode inside the
  // <= 5% hot-path overhead contract (docs/observability.md).
  const telemetry::SampledTicks sample(
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0),
      per.stripe, ins_.acquire_ticks);
  if (controller_ != nullptr) controller_->note_ops(*per.stripe, 1, per.op_tick);
  if (options_.name_cache) {
    sync_stash(per);
    if (!per.stash.empty()) {
      // The whole hot path: a pop from thread-owned memory. The name's
      // cell stayed taken and live accounting never moved, so no shared
      // state needs touching at all (and no epoch pin: the generation
      // matched, so the name's group is the live one).
      const Name name = static_cast<Name>(per.stash.pop());
      note_stash_acquire(per, true);
      return name;
    }
    note_stash_acquire(per, false);
  }
  // Admission control gates the *shared* namespace only: a stash hit
  // above still serves (it touches no shared state), but a shedding
  // controller fails the call here before any probe or sweep — so a shed
  // call records no probe length.
  if (controller_ != nullptr && !controller_->admit(*per.stripe)) {
    return kShed;
  }
  // The policy's probe walk: the sticky shard, ringward stealing and
  // migration, the sweep backstop (and on the elastic service the grow
  // loop). A migration is a hint that moved.
  ShardGroup::ProbeStats stats;
  const std::uint32_t hint = per.shard;
  const Name name = ns_.acquire(*per.rng, &per.shard, *per.handle,
                                options_.sweep_retry_budget, stats,
                                sample.timed());
  if (per.shard != hint) {
    per.stripe->add(ins_.shard_migrations);
    LOREN_TRACE(Policy::kMigrateTrace, per.shard);
  }
  if (stats.sweep_shards != 0) per.stripe->add(ins_.sweeps, stats.sweep_shards);
  if (sample.timed()) {
    per.stripe->record(ins_.probe_len, stats.probes);
    if (stats.lost_races != 0) per.stripe->record(ins_.lost_races, stats.lost_races);
  }
  if (name >= 0) {
    if (leases_ != nullptr) leases_->open(name, 0, per.hb, per.stripe);
    return name;
  }
  if (controller_ != nullptr) controller_->note_saturation(*per.stripe);
  if (name == ShardGroup::kSweepBudgetTruncated) {
    per.stripe->add(ins_.sweep_budget_exhausted);
    return kSweepBudgetExhausted;
  }
  return kExhausted;
}

template <class Policy>
std::uint64_t ServiceCore<Policy>::acquire_many(std::uint64_t k, Name* out) {
  if (k == 0) return 0;
  PerThread& per = enter();
  const telemetry::SampledTicks sample(
      ins_.detailed && ((per.op_tick++ & kLatencySampleMask) == 0),
      per.stripe, ins_.acquire_ticks);
  const auto finish = [&](std::uint64_t n) {
    if (controller_ != nullptr) controller_->note_ops(*per.stripe, n, per.op_tick);
    return n;
  };
  std::uint64_t got = 0;
  if (options_.name_cache) {
    sync_stash(per);
    while (got < k && !per.stash.empty()) {
      out[got++] = static_cast<Name>(per.stash.pop());
      note_stash_acquire(per, true);
    }
    if (got == k) return finish(got);
  }
  std::uint64_t want = k - got;
  if (controller_ != nullptr) {
    // Shedding: hand back whatever the stash served, touch nothing
    // shared. The partial batch is the admission-control contract, not
    // an exhaustion signal.
    if (!controller_->admit(*per.stripe)) return finish(got);
    // The batch knob: one call claims at most batch_limit() names from
    // the shared namespace, whatever was asked — callers see a short
    // fill and come back, which is the whole adaptive-batching mechanism.
    want = std::min<std::uint64_t>(want, controller_->batch_limit());
  }
  // The policy's seed-and-run-claim ring walk: a shortfall past its sweep
  // backstop means fewer than `want` cells were free when scanned (and
  // the namespace could not grow) — unless the bounded sweep budget
  // truncated the scan, which is counted, not conflated.
  bool budget_hit = false;
  ShardGroup::ProbeStats stats;
  const std::uint64_t shared =
      ns_.acquire_many(*per.rng, &per.shard, want, out + got, *per.handle,
                       options_.sweep_retry_budget, &budget_hit, stats);
  if (budget_hit) per.stripe->add(ins_.sweep_budget_exhausted);
  // A clamped request coming back short is still a failed shared
  // acquisition from the controller's seat.
  if (controller_ != nullptr && (budget_hit || shared < want)) {
    controller_->note_saturation(*per.stripe);
  }
  if (stats.sweep_shards != 0) per.stripe->add(ins_.sweeps, stats.sweep_shards);
  if (ins_.detailed) {
    per.stripe->record(ins_.ring_walk, stats.ring_shards);
    if (stats.probes != 0) per.stripe->record(ins_.probe_len, stats.probes);
    if (stats.lost_races != 0) per.stripe->record(ins_.lost_races, stats.lost_races);
  }
  // Every lease opens on the call's heartbeat, with no clock read.
  if (leases_ != nullptr) {
    for (std::uint64_t i = 0; i < shared; ++i) {
      leases_->open(out[got + i], 0, per.hb, per.stripe);
    }
  }
  if (options_.name_cache) {
    for (std::uint64_t i = 0; i < shared; ++i) note_stash_acquire(per, false);
  }
  return finish(got + shared);
}

// Cache-line aligned: this loop is the stash's spill path, so it sets
// the release tail of cached churn, and its speed depends on where it
// lands in the binary (a 16-byte shift caused by an unrelated edit cost
// ~30% release p99 on perfbench pool-churn). Pinning its start keeps
// edits elsewhere from moving it. The four public op bodies are pinned
// the same way, for the same reason (and CMakeLists.txt aligns this
// file's loops).
template <class Policy>
[[gnu::aligned(kCacheLine)]] std::uint64_t ServiceCore<Policy>::release_shared(
    const Name* names, std::uint64_t count, typename Policy::Handle& handle,
    telemetry::MetricsRegistry::ThreadStripe* stripe,
    const lease::Heartbeat* hb) {
  typename Policy::Pin pin(ns_, handle);
  typename Policy::ReleaseRun run(handle);  // batched live accounting
  for (std::uint64_t i = 0; i < count; ++i) {
    const Name name = names[i];
    typename Policy::Decoded d;
    if (!ns_.decode(name, &d)) continue;
    ShardGroup* g = ns_.resolve_pinned(d);
    if (g == nullptr) continue;
    if (leases_ != nullptr && !leases_->close(name, hb, stripe) &&
        leases_->release_guard()) {
      // The reaper won the close: the cell was already reclaimed (and
      // possibly reissued to someone else) — a late release must be
      // rejected here, never applied. The guard trip is counted.
      continue;
    }
    if (g->release_local(d.local)) run.add(*g);
  }
  const std::uint64_t freed = run.finish();
  // Shared capacity really freed (stash absorbs don't count — their
  // cells stay taken): end any admission-control saturation episode.
  if (freed > 0 && controller_ != nullptr) controller_->note_release();
  return freed;
}

template <class Policy>
bool ServiceCore<Policy>::release(Name name) {
  typename Policy::Decoded d;
  if (!ns_.decode(name, &d)) return false;
  PerThread& per = enter();
  const telemetry::SampledTicks sample(
      ins_.detailed && ((per.rel_tick++ & kLatencySampleMask) == 0),
      per.stripe, ins_.release_ticks);
  if (options_.name_cache) {
    sync_stash(per);
    NameStash& st = per.stash;
    if (st.contains(name)) return false;  // same-thread double release
    // Only names the policy lets the stash serve are absorbed (on the
    // elastic service: live-generation names; a name from a retired but
    // draining generation takes the shared path below, so retirees keep
    // draining).
    if (ns_.stashable(d, st)) {
      // A failing release must have no side effects, so the overflow
      // spill waits until the name has validated.
      bool absorb;
      {
        typename Policy::Pin pin(ns_, *per.handle);
        absorb = may_absorb(per, d, name);
      }
      if (!absorb) return false;
      if (st.full()) spill(per, st.capacity() / 2 + 1);
      st.push(name);
      ns_.after_release(per.sample);
      return true;
    }
  }
  if (release_shared(&name, 1, *per.handle, per.stripe, per.hb) == 0) {
    return false;
  }
  ns_.after_release(per.sample);
  return true;
}

template <class Policy>
std::uint64_t ServiceCore<Policy>::release_many(const Name* names,
                                                std::uint64_t count) {
  if (count == 0) return 0;
  PerThread& per = enter();
  std::uint64_t freed = 0;
  if (!options_.name_cache) {
    freed = release_shared(names, count, *per.handle, per.stripe, per.hb);
  } else {
    sync_stash(per);
    NameStash& st = per.stash;
    // Classify under the policy's pin: stashable names are validated and
    // parked, everything else — names the policy will not stash, stash
    // overflow — is forwarded to the shared path in chunks, so an
    // arbitrarily long batch still does O(count / chunk) live-accounting
    // adds. A pin never nests on one handle, so it is dropped around each
    // chunk's shared release.
    Name shared_buf[NameStash::kMaxCapacity];
    std::uint32_t n_shared = 0;
    std::optional<typename Policy::Pin> pin(std::in_place, ns_, *per.handle);
    for (std::uint64_t i = 0; i < count; ++i) {
      const Name name = names[i];
      typename Policy::Decoded d;
      if (!ns_.decode(name, &d)) continue;
      if (st.contains(name)) continue;  // same-thread double release
      if (!st.full() && ns_.stashable(d, st)) {
        // Rejected: not held, or the reaper won — as the shared path would.
        if (may_absorb(per, d, name)) {
          st.push(name);
          ++freed;
        }
        continue;
      }
      shared_buf[n_shared++] = name;
      if (n_shared == NameStash::kMaxCapacity) {
        pin.reset();
        freed += release_shared(shared_buf, n_shared, *per.handle, per.stripe,
                                per.hb);
        n_shared = 0;
        pin.emplace(ns_, *per.handle);
      }
    }
    pin.reset();
    if (n_shared > 0) {
      freed += release_shared(shared_buf, n_shared, *per.handle, per.stripe,
                              per.hb);
    }
  }
  // One batch counts once toward the release-path maintenance cadence.
  if (freed > 0) ns_.after_release(per.sample);
  return freed;
}

template <class Policy>
std::uint64_t ServiceCore<Policy>::flush_thread_cache() {
  if (!options_.name_cache) return 0;
  PerThread& per = registered();
  std::uint64_t freed = sync_stash(per);
  NameStash& st = per.stash;
  const NameStash::WindowStats ws = st.take_partial_window();
  if (ws.rolled) {
    per.stripe->add(ins_.cache_hits, ws.hits);
    per.stripe->add(ins_.cache_misses, ws.misses);
  }
  if (!st.empty()) {
    Name buf[NameStash::kMaxCapacity];
    const std::uint32_t n = st.take_oldest(buf, st.size());
    LOREN_SIM_POINT("stash.flush");
    LOREN_TRACE("stash.flush", n);
    per.stripe->add(ins_.stash_flushes);
    freed += release_shared(buf, n, *per.handle, per.stripe, per.hb);
  }
  // A flush often precedes a drain check; push the policy's reclamation
  // forward now rather than waiting for the sampled release-path cadence.
  if (freed > 0) ns_.maintain();
  return freed;
}

template <class Policy>
std::uint32_t ServiceCore<Policy>::thread_cache_size() const {
  const NameStash& st = per_thread().stash;
  // A stash the policy discards on invalidation holds nothing once its
  // generation is stale; one it flushes still holds its names until then.
  if constexpr (!Policy::kFlushStaleStash) {
    if (st.gen() != ns_.stash_gen()) return 0;
  }
  return st.size();
}

template <class Policy>
std::uint32_t ServiceCore<Policy>::thread_cache_capacity() const {
  return per_thread().stash.capacity();
}

template <class Policy>
bool ServiceCore<Policy>::reclaim_cell(void* ctx, Name name) {
  return static_cast<ServiceCore*>(ctx)->ns_.reclaim_cell(name);
}

template <class Policy>
void ServiceCore<Policy>::directory_flush(void* service, void* payload) {
  auto& self = *static_cast<ServiceCore*>(service);
  auto& per = *static_cast<PerThread*>(payload);
  NameStash& st = per.stash;
  if (st.empty()) return;
  // Mid-TLS-destruction: only the payload's cached pointers are legal.
  // The namespace handle is heap-owned and registrable without TLS; the
  // stripe is not (MetricsRegistry::stripe() probes a thread_local
  // table), so a thread that never cached one flushes uninstrumented.
  if (per.handle == nullptr) per.handle = &self.ns_.register_thread();
  // A stale stash is discarded or flushed by the policy's rule, exactly
  // as on a live thread's next call.
  self.sync_stash(per);
  if (st.empty()) return;
  if (per.stripe != nullptr) per.stripe->add(self.ins_.stash_flushes);
  Name buf[NameStash::kMaxCapacity];
  const std::uint32_t n = st.take_oldest(buf, st.size());
  self.release_shared(buf, n, *per.handle, per.stripe, per.hb);
}

// -------------------------------------------- StaticGroup (fixed service) --

StaticGroup::StaticGroup(std::uint64_t n, const ServiceOptions& options,
                         telemetry::MetricsRegistry& /*registry*/,
                         const control::AdaptiveController* /*controller*/) {
  if (n == 0) throw std::invalid_argument("RenamingService: n must be >= 1");
  const BatchLayoutParams params = options.layout();
  const std::uint64_t shards =
      shard_count_for(n, options.shards, params, options.arena_kind);
  const std::uint64_t shard_n = (n + shards - 1) / shards;
  group_ = std::make_unique<ShardGroup>(
      /*tag=*/0, /*generation=*/1, n, shards, options.arena_kind,
      std::make_shared<const CachedSchedule>(shard_n, params));
  shard_mask_ = shards - 1;
  capacity_ = group_->local_capacity();
}

std::int64_t StaticGroup::acquire(Xoshiro256& rng, std::uint32_t* shard,
                                  Handle& live, std::uint32_t sweep_budget,
                                  ShardGroup::ProbeStats& stats, bool timed) {
  // Fast path: the sticky shard; on pressure (late win) the group
  // migrates the hint ringward, on a full miss it steals ringward, so
  // loaded shards shed to neighbours.
  std::int64_t local = group_->try_acquire(rng, shard, timed ? &stats : nullptr);
  if (local < 0) {
    // Every schedule missed (probability 1/n^(beta-o(1)) per shard unless
    // the namespace really is near-exhausted): deterministic sweep, so
    // acquire() fails only when zero cells are free, or fails fast once
    // the bounded retry budget (if configured) is spent.
    local = group_->sweep_acquire(shard, sweep_budget, &stats);
    LOREN_TRACE("service.sweep", stats.sweep_shards);
  }
  if (local >= 0) RegisteredCounter::add(live, 1);
  return local;
}

std::uint64_t StaticGroup::acquire_many(Xoshiro256& rng, std::uint32_t* shard,
                                        std::uint64_t want, Name* out,
                                        Handle& live, std::uint32_t sweep_budget,
                                        bool* budget_hit,
                                        ShardGroup::ProbeStats& stats) {
  const std::uint64_t got = group_->try_acquire_many(
      rng, shard, want, out, sweep_budget, budget_hit, &stats);
  if (stats.sweep_shards > 0) LOREN_TRACE("service.sweep", stats.sweep_shards);
  if (got > 0) RegisteredCounter::add(live, static_cast<std::int64_t>(got));
  return got;
}

// ----------------------------------------- Generations (elastic service) --

std::int64_t Generations::acquire(Xoshiro256& rng, std::uint32_t* shard,
                                  Handle& slot, std::uint32_t sweep_budget,
                                  ShardGroup::ProbeStats& stats, bool timed) {
  ShardGroup::ProbeStats* const pstats = timed ? &stats : nullptr;
  // Bounded by the doubling ladder: each failed round either resized the
  // service or returns -1, so the loop runs O(log2(max/min)) times worst
  // case; 40 covers the full default range with margin.
  for (int attempt = 0; attempt < 40; ++attempt) {
    std::uint64_t seen_gen;
    {
      Pin pin(*this, slot);
      // Generation before group: if a resize lands between the two loads
      // we hold (old gen, new group) and a miss leads grow_from() to a
      // gen mismatch — a harmless retry. The other order would pair a
      // stale full group with the *current* gen and let one pressure
      // event double capacity twice.
      seen_gen = generation_.load(std::memory_order_acquire);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      const std::int64_t local = g->try_acquire(rng, shard, pstats);
      if (local >= 0) return won(*g, local);
    }
    // Full schedule miss: record pressure, grow when it is sustained.
    const std::uint32_t streak =
        // sim:exempt(streak bookkeeping; the probe RMWs carry the sim points)
        miss_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.auto_grow && streak >= grow_threshold() &&
        grow_from(seen_gen)) {
      continue;
    }
    // Growth unavailable (or pressure not yet sustained): deterministic
    // sweep so we fail only on true exhaustion of the live group (or, with
    // a sweep budget set, fail fast once the bounded walk is spent).
    std::int64_t swept;
    {
      Pin pin(*this, slot);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      LOREN_SIM_POINT("elastic.sweep");
      LOREN_TRACE("elastic.sweep", seen_gen);
      swept = g->sweep_acquire(shard, sweep_budget, &stats);
      if (swept >= 0) return won(*g, swept);
    }
    // Budget-truncated sweep: the walk gave up before covering every
    // shard, so this is *not* evidence the group is full. Report it
    // without forcing a grow — feeding a truncated scan into the grow
    // path would reintroduce the spurious-grow bug the miss-streak
    // discipline exists to prevent.
    if (swept == ShardGroup::kSweepBudgetTruncated) return swept;
    // True exhaustion: force a grow regardless of streak, or give up.
    if (!options_.auto_grow || !grow_from(seen_gen)) return -1;
  }
  return -1;
}

std::uint64_t Generations::acquire_many(Xoshiro256& rng, std::uint32_t* shard,
                                        std::uint64_t want, Name* out,
                                        Handle& slot, std::uint32_t sweep_budget,
                                        bool* budget_hit,
                                        ShardGroup::ProbeStats& stats) {
  // Each round runs against one generation under one epoch pin (safe: a
  // pin never blocks a resize, only delays reclamation by at most one
  // batch); a round that leaves a shortfall grows the namespace and the
  // next round claims the remainder from the new generation, so the loop
  // is bounded by the doubling ladder exactly like acquire()'s.
  std::uint64_t got = 0;
  for (int attempt = 0; attempt < 40 && got < want; ++attempt) {
    std::uint64_t seen_gen = 0;
    bool round_budget_hit = false;
    {
      Pin pin(*this, slot);
      // Generation before group, for the same reason as acquire().
      seen_gen = generation_.load(std::memory_order_acquire);
      ShardGroup* g = live_group_.load(std::memory_order_acquire);
      const std::uint64_t round =
          g->try_acquire_many(rng, shard, want - got, out + got, sweep_budget,
                              &round_budget_hit, &stats);
      if (round > 0) {
        // One live-counter add and one tag/stamp encode pass per
        // sub-batch — the whole point of batching.
        g->note_acquired_n(static_cast<std::int64_t>(round));
        for (std::uint64_t i = got; i < got + round; ++i) {
          out[i] = encode_name(*g, out[i], options_.debug_release_guard);
        }
        got += round;
      }
    }
    if (got == want) {
      // Any fully served batch ends the miss streak, sweep-served or not:
      // pressure must be *sustained* to trigger an automatic grow.
      if (miss_streak_.load(std::memory_order_relaxed) != 0) {
        miss_streak_.store(0, std::memory_order_relaxed);
      }
      break;
    }
    if (round_budget_hit) {
      // The shortfall came from a budget-truncated backstop sweep, not
      // from scanning every shard — no exhaustion evidence, so no miss
      // streak and no grow. Hand back the partial batch.
      *budget_hit = true;
      break;
    }
    // Shortfall past try_acquire_many's sweep backstop: the live group
    // really had fewer than the remaining demand free. That is one
    // pressure event for the whole batch — not one per missing name — and,
    // like acquire()'s true-exhaustion path, grounds for growing now.
    // sim:exempt(streak bookkeeping; the claim RMWs carry the sim points)
    miss_streak_.fetch_add(1, std::memory_order_relaxed);
    if (!options_.auto_grow || !grow_from(seen_gen)) break;
  }
  return got;
}

Name Generations::won(ShardGroup& g, std::int64_t local) {
  g.note_acquired();
  // A win — schedule or sweep — ends any miss streak: pressure must be
  // sustained (uninterrupted misses) to trigger an automatic grow.
  // Leaving the streak in place after a sweep win let one later schedule
  // miss cross grow_miss_threshold and double capacity with no sustained
  // pressure at all.
  if (miss_streak_.load(std::memory_order_relaxed) != 0) {
    miss_streak_.store(0, std::memory_order_relaxed);
  }
  return encode_name(g, local, options_.debug_release_guard);
}

bool Generations::decode(Name name, Decoded* d) const {
  if (name < 0) return false;
  *d = decode_name(name, options_.debug_release_guard);
  return true;
}

ShardGroup* Generations::resolve_pinned(const Decoded& d) const {
  ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
  if (g == nullptr) return nullptr;
  LOREN_SIM_POINT("elastic.release.stamp");
  // The stale double-release ABA guard: with the guard on, the tag has
  // been recycled since the name was issued iff the generation stamp
  // mismatches — freeing the cell would hit a victim in the *new* group.
  if (options_.debug_release_guard &&
      (g->generation() & kGenStampMask) != d.stamp) {
    return nullptr;
  }
  return g;
}

bool Generations::reclaim_cell(Name name) {
  // The caller (the reap driver) holds an epoch pin — the tag-table deref
  // below follows the same rules as release_shared's. The lease table
  // passes the unstamped cell index, so there is no generation stamp to
  // check — and none is needed: the lease was live until the reaper's
  // CAS, so its cell is still taken, the group's live() > 0, and the tag
  // cannot have been recycled.
  if (name < 0) return false;
  const Decoded d = decode_name(name, /*guard=*/false);
  ShardGroup* g = groups_[d.tag].load(std::memory_order_acquire);
  if (g == nullptr || !g->release_local(d.local)) return false;
  g->note_released();
  return true;
}

void Generations::after_release(std::uint32_t& sample) {
  // Sampled maintenance: drive reclamation (and auto-shrink) forward
  // without a background thread and without taxing every release.
  if ((++sample & 63u) == 0) maintain();
}

template class ServiceCore<StaticGroup>;
template class ServiceCore<Generations>;

}  // namespace loren
