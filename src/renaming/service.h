// RenamingService: sharded long-lived loose renaming as a service.
//
// The ConcurrentRenamer is one ReBatching object over one arena: every
// thread probes the same B_0, and under churn all acquisitions funnel
// through one probe geometry and one set of hot lines. The service splits
// the namespace into S shards (a power of two): one ShardGroup
// (renaming/shard_group.h, which describes the probing discipline — the
// sticky shard, the two-pass ring walk, migration, the sweep backstop),
// owned for the service's lifetime (tag 0, generation 1, never retired):
// an elastic service with growth off and one generation that never
// swaps. S is chosen so one padded shard fits in L1: under churn a
// thread's entire probe target stays cache-resident, which a single
// (1+eps)n-cell arena can never be, and acquire() fails only when the
// whole namespace is exhausted.
//
// Names are interleaved across shards — name = local * S + shard — so
// mapping a name back to its shard is a mask, not a division, and the
// namespace stays exactly [0, S * (1+eps)ceil(n/S) + O(S)).
//
// Guarantees (cf. the long-lived variant in Aspnes's notes, and [16, 20]
// in the paper's related work):
//   * uniqueness — names are handed out by per-cell TAS, so a name is
//     held by at most one caller at any time, globally across shards;
//   * namespace — every name is < capacity() = S * (1+eps)ceil(n/S) + O(S)
//     (each shard's layout rounds its batches independently);
//   * per-acquisition step bounds — while a shard serves at most n/S
//     concurrent holders, an acquisition that stays on its sticky shard
//     performs log2 log2 (n/S) + O(1) probes w.h.p.; stealing adds one
//     B_0 walk per visited shard, then one tail walk per shard.
//
// The acquire/release pipeline is the one both services share
// (renaming/service_core.h); this header adds the fixed namespace policy,
// StaticGroup, and the fixed service's extras (reset(), home_shard(),
// num_shards()). Hot-path engineering of the fixed namespace:
//   * padded L1-sized shard segments — concurrent wins on distinct names
//     never share a cache line, and a sticky thread's probes stay in L1;
//   * registered per-thread live counter — bookkeeping is a plain store
//     to a thread-owned cache line, not a locked RMW, and acquire/release
//     never serialize on one cell;
//   * shift/mask name decoding — release() does no division.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "platform/registered_counter.h"
#include "renaming/service_core.h"
#include "renaming/shard_group.h"

namespace loren {

/// The fixed service takes exactly the shared options (documented on
/// ServiceOptions, renaming/service_core.h).
using RenamingServiceOptions = ServiceOptions;

/// The static-single-group namespace policy of ServiceCore (see the file
/// comment): no path pins an epoch, names are group-local, and live names
/// are counted on the per-thread RegisteredCounter — not on the group's
/// striped live counter (a locked RMW), which stays unused with the
/// group's retire fields. reset() invalidates stashes by discarding them.
class StaticGroup {
 public:
  using Handle = RegisteredCounter::Node;
  using Init = std::uint64_t;  // the holder count n
  struct Pin {  // nothing to pin: the group outlives every call
    Pin(const StaticGroup& /*ns*/, Handle& /*live*/) {}
  };
  struct Decoded {
    std::uint64_t local;
  };
  static constexpr const char* kMetricPrefix = "service.";
  static constexpr const char* kMigrateTrace = "service.migrate";
  /// A stash stranded across reset() holds dead values: discard it.
  static constexpr bool kFlushStaleStash = false;
  static control::AdaptiveController::KnobSeeds knob_seeds(Init /*n*/) {
    return {};
  }

  /// Throws std::invalid_argument for n == 0.
  StaticGroup(Init n, const ServiceOptions& options,
              telemetry::MetricsRegistry& registry,
              const control::AdaptiveController* controller);

  Handle& register_thread() { return live_.register_thread(); }
  [[nodiscard]] std::uint64_t home_shard(std::uint64_t slot) const {
    return slot & shard_mask_;
  }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t names_live() const {
    const std::int64_t live = live_.sum();
    return live > 0 ? static_cast<std::uint64_t>(live) : 0;
  }

  [[nodiscard]] std::uint64_t stash_gen() const {
    return cache_gen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t live_tag() const { return 0; }
  /// Names are dense: a value in [0, capacity()) is a cell.
  bool decode(sim::Name name, Decoded* d) const {
    if (name < 0 || static_cast<std::uint64_t>(name) >= capacity_) return false;
    d->local = static_cast<std::uint64_t>(name);
    return true;
  }
  static bool stashable(const Decoded& /*d*/, const NameStash& /*st*/) {
    return true;
  }
  [[nodiscard]] ShardGroup* resolve_pinned(const Decoded& /*d*/) const {
    return group_.get();
  }

  std::int64_t acquire(Xoshiro256& rng, std::uint32_t* shard, Handle& live,
                       std::uint32_t sweep_budget,
                       ShardGroup::ProbeStats& stats, bool timed);
  std::uint64_t acquire_many(Xoshiro256& rng, std::uint32_t* shard,
                             std::uint64_t want, sim::Name* out, Handle& live,
                             std::uint32_t sweep_budget, bool* budget_hit,
                             ShardGroup::ProbeStats& stats);

  /// Live accounting of one shared release pass: one add at the end.
  class ReleaseRun {
   public:
    explicit ReleaseRun(Handle& live) : live_(live) {}
    void add(ShardGroup& /*g*/) { ++freed_; }
    std::uint64_t finish() {
      if (freed_ != 0) RegisteredCounter::add(live_, -freed_);
      return static_cast<std::uint64_t>(freed_);
    }

   private:
    Handle& live_;
    std::int64_t freed_ = 0;
  };
  /// The reclaim callback has no thread context: the reaper's node counts.
  static void note_reaped(Handle& live, std::size_t n) {
    RegisteredCounter::add(live, -static_cast<std::int64_t>(n));
  }
  static void after_release(std::uint32_t& /*sample*/) {}
  static void maintain() {}
  bool reclaim_cell(sim::Name name) {
    return name >= 0 && group_->release_local(static_cast<std::uint64_t>(name));
  }

 private:
  friend class RenamingService;  // reset() and the geometry accessors

  std::unique_ptr<ShardGroup> group_;
  /// Cached copies of the group's geometry for the op prologues: the
  /// home-shard mask and the release range check.
  std::uint64_t shard_mask_ = 0;
  std::uint64_t capacity_ = 0;
  RegisteredCounter live_;
  /// Stash-invalidation generation: reset() bumps it, and a stash tagged
  /// with an older value discards its contents on its owner's next call.
  /// Starts at 1 so a fresh stash (gen 0) always re-tags before serving.
  // mo: relaxed -- invalidation stamp: readers only compare it against
  // their stash tag; reset() already requires external quiescence, so the
  // bump never races the arena epoch bump it trails.
  std::atomic<std::uint64_t> cache_gen_{1};
};

class RenamingService : public ServiceCore<StaticGroup> {
 public:
  /// Serves up to `n` concurrent holders from a ~(1+eps)n namespace.
  /// Throws std::invalid_argument for n == 0. The constructed service is
  /// immediately usable from any thread.
  explicit RenamingService(std::uint64_t n, RenamingServiceOptions options = {})
      : ServiceCore(options, n) {}

  /// O(1) full reset: epoch-bumps the group's arena, zeroes the live
  /// counter, drops every lease without reclaiming (the epoch bump
  /// already freed every cell, so reclaim callbacks would double-free),
  /// and invalidates every thread's stash (its contents are discarded on
  /// the owning thread's next call). Not safe concurrently with
  /// acquire/release — quiesce first.
  void reset() {
    ns_.group_->reset();
    ns_.live_.reset();
    if (leases_ != nullptr) leases_->clear();
    // sim:exempt(reset() requires external quiescence; nothing races it)
    ns_.cache_gen_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Geometry accessors: fixed at construction, safe from any thread.
  /// Every issued name is < capacity(); each shard is laid out for
  /// shard_holders() concurrent holders.
  [[nodiscard]] std::uint64_t num_shards() const { return ns_.group_->shards(); }
  [[nodiscard]] std::uint64_t shard_holders() const {
    return ns_.group_->shard_layout().n();
  }
  [[nodiscard]] ArenaKind arena_kind() const { return options_.arena_kind; }
  /// The shard acquire() tries first on this thread before any migration
  /// (for tests).
  [[nodiscard]] std::uint64_t home_shard() const {
    return ns_.home_shard(thread_slot());
  }
};

}  // namespace loren
