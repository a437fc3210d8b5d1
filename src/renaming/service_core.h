// ServiceCore: the one acquire/release pipeline of both long-lived
// renaming services, RenamingService (renaming/service.h) and
// ElasticRenamingService (elastic/elastic_service.h). They serve one
// contract — unique names from a (1+eps)n namespace in log log n + O(1)
// test-and-set steps, long-lived — and differ only in how the namespace
// behind it is kept, so everything around the namespace lives here once:
// the per-(thread, service) context and op prologue (handle and stripe
// registration, the lease heartbeat, sampled timing, controller hooks),
// the thread-local name stash (hit, absorb, spill, flush, the thread-exit
// flush and invalidation), lease open/close/rebind/revalidation with
// renew_lease and reap_expired, and the Instruments, interned under the
// policy's metric prefix (`service.` or `elastic.`).
//
// What differs is the namespace policy, the template argument: StaticGroup
// (renaming/service.h) or Generations (elastic/elastic_service.h); their
// class comments say what each keeps. The policy interface is compile-time
// only — no op body asks which service it is — and both instantiations
// are explicit in service_core.cpp, so the hot paths stay out of headers.
//
// Hot-path engineering (measured in bench/bench_throughput.cpp):
//   * one thread_local context per call — cached Xoshiro256, thread slot,
//     shard hint, namespace handle and metrics stripe behind a single TLS
//     access; the per-call reseed-from-ticket of
//     ConcurrentRenamer::get_name_direct (a shared fetch_add + six
//     SplitMix64 rounds per acquisition) happens once per thread here;
//   * the stash serves steady-state churn from thread-owned memory, with
//     no probe, no pin and no shared RMW;
//   * detailed telemetry times one op in 256 per thread.
#pragma once

#include <cstdint>
#include <memory>

#include "control/adaptive_controller.h"
#include "lease/lease_table.h"
#include "platform/cacheline.h"
#include "renaming/acquire_result.h"
#include "renaming/batch_layout.h"
#include "renaming/thread_ctx.h"
#include "sim/env.h"
#include "tas/bitmap_arena.h"
#include "telemetry/metrics.h"

namespace loren {

/// The options both services share, documented once. The fixed service
/// takes exactly these (RenamingServiceOptions); ElasticOptions adds the
/// resize knobs and overrides the arena_kind and seed defaults.
struct ServiceOptions {
  double epsilon = 0.5;
  /// Number of shards, rounded up to a power of two (per generation on
  /// the elastic service). 0 = auto: enough shards that (a) hardware
  /// threads get distinct home shards and (b) a shard's padded arena
  /// segment (of `arena_kind`) fits in half an L1d (32 KiB), clamped so
  /// every shard still serves >= 64 holders (see auto_shard_count).
  std::uint64_t shards = 0;
  /// Substrate for the shard arenas: kCellProbe (TasArena, one RMW per
  /// cell probed) or kBitmap (BitmapArena, 64 cells per probe via word
  /// scans — see tas/bitmap_arena.h for the tradeoff). kCellProbe by
  /// default on the fixed service: it runs at or below design load,
  /// where the word scan saves few probes and concurrent releases on
  /// shared words cost release latency. The elastic service defaults to
  /// kBitmap (see ElasticOptions).
  ArenaKind arena_kind = ArenaKind::kCellProbe;
  std::uint64_t seed = 0x53ED;
  /// Per-shard batch geometry. Defaults to the practical probe budget,
  /// t0 = kServiceT0 (8) probes on B_0, not the paper's proof constant
  /// ceil(17 ln(8e/eps) / eps) (129 at eps = 0.5), which lets a near-full
  /// shard spend up to 129 cell RMWs before it reaches the emptier small
  /// batches. The value comes from bench_e12's sweep (docs/protocols.md,
  /// "Service probe budget"); names stay compact at the short budget
  /// because the ring walk probes B_0 of the home shard and its next
  /// neighbours before any small batch (ShardGroup::try_acquire).
  /// Assigning the field wholesale (`layout_extra = {...}`) drops back to
  /// the proof constant unless the new value sets t0_override too; `{}`
  /// pins the paper's schedule. Its `epsilon` is always overwritten by
  /// `epsilon` above.
  BatchLayoutParams layout_extra{.t0_override = kServiceT0};
  /// Thread-local name cache: each thread keeps a bounded stash of names
  /// it released against this service, so a steady-state churn thread
  /// re-acquires its own names with zero probes, zero counter traffic and
  /// no shared RMW. A stashed name's cell stays taken and stays counted
  /// by names_live() until the stash spills or is flushed. The stash is
  /// invalidated per policy: a fixed service's reset() discards it, an
  /// elastic resize flushes it through the tag table on the owning
  /// thread's next call (a *parked* thread's stash delays a retired
  /// generation's drain until it calls again or flush_thread_cache()s) —
  /// see docs/protocols.md, "The thread-local name cache". Disable for
  /// the tightest exhaustion semantics (acquire() == -1 then means *zero*
  /// cells free, with no residue parked in other threads' stashes).
  bool name_cache = true;
  /// Initial per-thread stash capacity; per-thread hit-rate adaptation
  /// moves it within [NameStash::kMinCapacity, NameStash::kMaxCapacity].
  std::uint32_t name_cache_capacity = 16;
  /// Bounded retry budget for the deterministic sweep backstop: the
  /// maximum number of shards a single acquire()/acquire_many() may
  /// sweep after every probe schedule missed. 0 = unbounded (sweep the
  /// whole namespace — the historical behaviour). With a budget set, an
  /// acquisition that exhausts it fails fast with kSweepBudgetExhausted
  /// instead of walking every remaining cell, and the service counts the
  /// event in sweep_budget_exhausted(). A truncated sweep is not
  /// exhaustion evidence, so on the elastic service it neither feeds the
  /// miss streak nor triggers a grow.
  std::uint32_t sweep_retry_budget = 0;
  /// Observability surface (telemetry/metrics.h). With a registry
  /// attached, the service publishes its metrics there (`service.*` on
  /// the fixed service, `elastic.*` on the elastic one) — including the
  /// per-op hot-path histograms (acquire/release latency, probe lengths,
  /// lost races, batch ring-walk lengths), which are recorded only in
  /// this mode. Left null, the service counts its event metrics on an
  /// internal registry — one counting idiom either way — and the per-op
  /// histograms stay off, so the default configuration pays nothing per
  /// operation. See docs/observability.md.
  telemetry::TelemetryOptions telemetry{};
  /// Closed-loop control (control/adaptive_controller.h). With mode !=
  /// kOff the service constructs an AdaptiveController over its metrics
  /// registry: per-window latency/arrival measurement, the acquire_many
  /// batch clamp, the stash capacity bound, on the elastic service the
  /// grow/shrink hysteresis knob (seeded from grow_miss_threshold and
  /// shrink_low_threshold), and — in kAdapt mode — admission control
  /// (acquire fails fast with kShed once the consecutive-failure streak
  /// reaches control.retry_budget, until a release frees capacity).
  /// Enabling control switches the service into detailed telemetry mode
  /// (the controller is fed from the per-op latency histograms). See
  /// docs/adaptive-control.md.
  control::ControlOptions control{};
  /// Crash-safe ownership (lease/lease_table.h). With lease.ttl_ticks !=
  /// 0 every shared acquisition also registers a lease, every op by the
  /// holder's thread heartbeats it alive, and abandoned names (holder
  /// crashed, parked, or exited) are reaped back into their group after
  /// ttl + grace ticks — at which point any late release by a revived
  /// holder is rejected (kLeaseExpired / a guard trip), never applied to
  /// a cell that may have been reissued. ttl_ticks == 0 (the default)
  /// disables leasing entirely: no per-op cost, the pre-lease behavior.
  /// See docs/leases.md.
  lease::LeaseOptions lease{};

  /// layout_extra with `epsilon` applied: every group's batch geometry.
  [[nodiscard]] BatchLayoutParams layout() const {
    BatchLayoutParams p = layout_extra;
    p.epsilon = epsilon;
    return p;
  }
};

template <class Policy>
class ServiceCore {
 public:
  /// acquire() failure codes (acquire_many reports shortfalls by count).
  /// kExhausted: every cell scanned was taken (and, on the elastic
  /// service, the namespace cannot grow). kSweepBudgetExhausted: the
  /// bounded sweep budget (options.sweep_retry_budget) ran out before a
  /// free cell was found — the namespace may NOT be full; the caller
  /// chose bounded latency over a full walk. kShed: admission control
  /// rejected the call outright — the controller's consecutive-failure
  /// streak hit its retry budget, and the caller pays one relaxed load
  /// instead of another sweep; a successful release re-admits (see
  /// control/adaptive_controller.h). kLeaseExpired: a lease operation
  /// (renew_lease, a guarded release) referred to a name whose lease the
  /// reaper already expired — the caller no longer owns it and the cell
  /// may have been reissued. The values are defined from the shared
  /// loren::AcquireResult enum (renaming/acquire_result.h).
  static constexpr sim::Name kExhausted = to_name(AcquireResult::kExhausted);
  static constexpr sim::Name kSweepBudgetExhausted =
      to_name(AcquireResult::kSweepBudgetExhausted);
  static constexpr sim::Name kShed = to_name(AcquireResult::kShed);
  static constexpr sim::Name kLeaseExpired =
      to_name(AcquireResult::kLeaseExpired);

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  /// Unique name in [0, capacity()), or a negative code. Safe from any
  /// thread; never blocks (an elastic acquisition never waits on a
  /// resize). After every probe schedule missed, one bounded
  /// deterministic sweep backstops, so kExhausted means every cell was
  /// taken when scanned and the namespace could not grow. With the name
  /// cache on, "taken" includes names parked in *other* threads' stashes
  /// (bounded by stash capacity x threads); callers that must squeeze
  /// the last few names out have the holders flush_thread_cache() first.
  [[gnu::aligned(kCacheLine)]] sim::Name acquire();

  /// Frees `name` for reacquisition (on the elastic service, a name from
  /// *any* generation, including groups retired since the acquisition).
  /// Returns false (and changes nothing) when the name is not currently
  /// held — a double release or a foreign value. Safe from any thread;
  /// never blocks. Uncached, validation is a single RMW, so concurrent
  /// double releases cannot both succeed; with the name cache on, a
  /// release the stash absorbs validates with a stash-duplicate scan plus
  /// a cell load instead (same observable results for conforming callers;
  /// two *racing* releases of one held name — already outside the release
  /// contract — may both return true).
  [[gnu::aligned(kCacheLine)]] bool release(sim::Name name);

  /// Batched acquisition: claims up to `k` unique names into `out` and
  /// returns the number acquired, through ShardGroup::try_acquire_many's
  /// seeded run-claims with one live-accounting add per batch — one TLS
  /// lookup and ~one schedule walk instead of k. Returns < k only when
  /// fewer than k cells were free over the scan (and, on the elastic
  /// service, growth is unavailable: a shortfall there grows the
  /// namespace and claims the remainder from the new generation, so a
  /// batch may span generations). Under concurrent churn the one-pass
  /// sweep can come up short transiently (cells freed behind its cursor
  /// are not revisited); callers that must have all k retry the
  /// remainder.
  [[gnu::aligned(kCacheLine)]] std::uint64_t acquire_many(std::uint64_t k,
                                                         sim::Name* out);

  /// Frees `count` names with batched live accounting (stash absorption
  /// first, then one shared pass for the remainder). Returns how many
  /// were actually freed; invalid or not-held entries are skipped
  /// (validation as in release()). Safe from any thread; never blocks.
  [[gnu::aligned(kCacheLine)]] std::uint64_t release_many(
      const sim::Name* names, std::uint64_t count);

  /// Releases every name in the calling thread's stash for this service
  /// through the shared path and folds the thread's pending cache
  /// statistics into the aggregate. Returns the number of names flushed.
  /// Call it when a thread parks, before asserting exact names_live()
  /// figures at quiescence, or before a worker exits (an exiting thread's
  /// stash is also flushed by the thread-exit hook). No-op when the cache
  /// is off or the stash is empty.
  std::uint64_t flush_thread_cache();

  /// Explicitly renews the calling thread's lease on `name`: pushes its
  /// deadline to now + ttl, so it survives even if the thread goes quiet
  /// (every service op already renews implicitly by bumping the thread's
  /// heartbeat — this is for holders that go quiet between ops, e.g. a
  /// thread parking on I/O while holding names). Returns `name` on
  /// success and kLeaseExpired when the lease no longer exists: the
  /// reaper reclaimed the cell and the caller must treat the name as
  /// lost. With leasing off it trivially returns `name`.
  sim::Name renew_lease(sim::Name name);

  /// One full blocking reap pass over the lease table: every stale lease
  /// is expired and its cell handed back to its group. Returns the
  /// number of cells reclaimed. A lease is stale once its holder's
  /// heartbeat count stood still for ttl + grace between two passes, so
  /// after an idle period the first call only observes and a second
  /// call ttl + grace later expires. The op paths already poll
  /// try_reap() periodically — this is the deterministic variant for
  /// tests, shutdown drains, and dedicated reaper threads. It does not
  /// beat the caller's heartbeat (a post-crash drain must be able to
  /// expire the caller's own abandoned names). 0 with leasing off.
  std::size_t reap_expired();

  /// Lease observability (all 0 / false with leasing off).
  [[nodiscard]] bool leasing_enabled() const { return leases_ != nullptr; }
  [[nodiscard]] std::uint64_t leases_live() const {
    return leases_ != nullptr ? leases_->leases_live() : 0;
  }
  [[nodiscard]] std::uint64_t lease_expired() const {
    return leases_ != nullptr ? leases_->expired() : 0;
  }
  /// Times the generation guard rejected a stale lease operation (late
  /// release/renew/validate after the reaper won). Each trip is a
  /// detected — not silently applied — stale-ownership event.
  [[nodiscard]] std::uint64_t lease_guard_trips() const {
    return leases_ != nullptr ? leases_->guard_trips() : 0;
  }
  /// The underlying table (null with leasing off): test/bench
  /// introspection, never needed on the hot path.
  [[nodiscard]] lease::LeaseTable* lease_table() const { return leases_.get(); }

  /// Bound on newly issued names (on the elastic service the live
  /// generation's local capacity times 2^kTagBits; names from earlier,
  /// larger generations may exceed it until released).
  [[nodiscard]] std::uint64_t capacity() const { return ns_.capacity(); }
  /// Names currently held, stashed names included (they are unavailable
  /// to every other thread; flush_thread_cache() on each thread drains
  /// them). Approximate while calls are in flight, exact at quiescence
  /// (after the workers have been joined or otherwise synchronized).
  [[nodiscard]] std::uint64_t names_live() const { return ns_.names_live(); }
  /// Aggregate name-cache statistics, folded in window-at-a-time from the
  /// per-thread stashes (so they lag by up to one adaptation window per
  /// thread until flush_thread_cache()). Thin snapshot reads of the
  /// metrics registry, exact at quiescence.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return ins_.registry->counter_value(ins_.cache_hits);
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return ins_.registry->counter_value(ins_.cache_misses);
  }
  /// Times the bounded sweep budget ran out (acquire returning
  /// kSweepBudgetExhausted, or an acquire_many shortfall caused by the
  /// budget rather than true exhaustion). Always 0 when
  /// options.sweep_retry_budget is 0.
  [[nodiscard]] std::uint64_t sweep_budget_exhausted() const {
    return ins_.registry->counter_value(ins_.sweep_budget_exhausted);
  }
  /// The registry this service records into: the one attached via
  /// options.telemetry, or the internal fallback. Snapshot/exposition
  /// surface for callers and the bench harness.
  [[nodiscard]] telemetry::MetricsRegistry& metrics_registry() const {
    return *ins_.registry;
  }
  /// Admissions rejected with kShed (exact: one per kShed returned).
  /// Always 0 without a controller (options.control.mode == kOff).
  [[nodiscard]] std::uint64_t shed_events() const {
    return controller_ != nullptr ? controller_->shed_events() : 0;
  }
  /// The attached controller, or nullptr when control is off. Knob and
  /// window introspection for tests, benches and operators.
  [[nodiscard]] control::AdaptiveController* controller() const {
    return controller_.get();
  }
  /// The calling thread's stash occupancy / adaptive capacity for this
  /// service (introspection and tests; never registers the thread).
  [[nodiscard]] std::uint32_t thread_cache_size() const;
  [[nodiscard]] std::uint32_t thread_cache_capacity() const;

 protected:
  /// `init` is the policy's construction argument.
  ServiceCore(const ServiceOptions& options, const typename Policy::Init& init);
  ~ServiceCore();

  /// The dense thread slot of the calling thread (home-shard hash).
  [[nodiscard]] std::uint64_t thread_slot() const;

  /// Resolved telemetry surface: the registry (attached or internal
  /// fallback) plus the interned ids, named `<Policy::kMetricPrefix>...`.
  /// The event counters always count; the per-op histograms record only
  /// when `detailed` (a registry was attached, or control is on).
  struct Instruments {
    telemetry::MetricsRegistry* registry = nullptr;
    bool detailed = false;
    telemetry::MetricId cache_hits = 0;
    telemetry::MetricId cache_misses = 0;
    telemetry::MetricId sweep_budget_exhausted = 0;
    telemetry::MetricId shard_migrations = 0;
    telemetry::MetricId sweeps = 0;
    telemetry::MetricId stash_spills = 0;
    telemetry::MetricId stash_flushes = 0;
    telemetry::MetricId acquire_ticks = 0;  // histograms from here on
    telemetry::MetricId release_ticks = 0;
    telemetry::MetricId probe_len = 0;
    telemetry::MetricId lost_races = 0;
    telemetry::MetricId ring_walk = 0;
  };

  ServiceOptions options_;
  /// Process-unique instance id. Per-thread state is keyed by this, never
  /// by `this`: a new service placed at a recycled address must not
  /// inherit another instance's cached state — in particular a handle
  /// pointing into a freed registry.
  std::uint64_t id_;
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  Instruments ins_;
  /// The closed control loop (null when options.control.mode == kOff);
  /// constructed over ins_.registry, after it, destroyed before it.
  std::unique_ptr<control::AdaptiveController> controller_;
  /// The lease table (null when options.lease.ttl_ticks == 0, which is
  /// what keeps the leasing-off hot path at one null check per op).
  std::unique_ptr<lease::LeaseTable> leases_;
  Policy ns_;

 private:
  /// Per-(thread, service) state, defined in service_core.cpp.
  struct PerThread;

  /// Detailed-mode sampling: every (mask+1)-th acquire/release on a
  /// thread is the observed sample — timestamped, probe counts
  /// accumulated and recorded. 1-in-256 keeps the histograms
  /// representative (tens of thousands of samples per bench second)
  /// while amortizing the timestamp cost to well under the 5% overhead
  /// contract even where rdtsc is hypervisor-slow (docs/observability.md).
  static constexpr std::uint32_t kLatencySampleMask = 255;

  // The helpers on every op's path are forced inline (the explicit
  // instantiation otherwise leaves them out of line, a call per op).
  /// The calling thread's entry, without registering anything.
  [[gnu::always_inline]] inline PerThread& per_thread() const;
  /// The entry with its namespace handle and metrics stripe registered.
  [[gnu::always_inline]] inline PerThread& registered();
  /// The op prologue: registered(), and with leasing on the heartbeat.
  [[gnu::always_inline]] inline PerThread& enter();
  /// Beats the heartbeat, revalidates a doomed stash, polls try_reap.
  void lease_heartbeat(PerThread& per);
  /// One reap pass (`pass`) under the policy's pin, plus its bookkeeping.
  template <class Pass>
  std::size_t reap(PerThread& per, Pass&& pass);

  /// The shared release path, bypassing the stash, that every release
  /// surface and the stash spill/flush paths bottom out in. `stripe` is
  /// nullable only on the thread-exit flush path; `hb` is the releasing
  /// thread's heartbeat (the identity lease closes are checked against).
  /// Cache-line aligned in both instantiations, like the four public op
  /// bodies: see the definition.
  [[gnu::aligned(kCacheLine)]] std::uint64_t release_shared(
      const sim::Name* names, std::uint64_t count,
      typename Policy::Handle& handle,
      telemetry::MetricsRegistry::ThreadStripe* stripe,
      const lease::Heartbeat* hb);

  /// Re-tags the stash against the policy's stash generation, discarding
  /// or flushing stale contents by the policy's rule; returns names flushed.
  [[gnu::always_inline]] inline std::uint64_t sync_stash(PerThread& per);
  /// Hit/miss accounting; window roll-ups fold into the registry and
  /// spill any excess above an adaptively shrunk capacity.
  void note_stash_acquire(PerThread& per, bool hit);
  /// Spills the `k` oldest stashed names through release_shared.
  void spill(PerThread& per, std::uint32_t k);
  /// Whether the stash may absorb `name` (caller holds the policy's pin):
  /// its cell is held and, with leasing on, its lease rebinds to `per`.
  [[gnu::always_inline]] inline bool may_absorb(
      PerThread& per, const typename Policy::Decoded& d, sim::Name name);

  /// LeaseTable::ReclaimFn: hands an expired name's cell back to its
  /// group through the policy.
  static bool reclaim_cell(void* ctx, sim::Name name);
  /// ServiceDirectory::FlushFn: an exiting thread's stash flush.
  static void directory_flush(void* service, void* payload);
};

}  // namespace loren
