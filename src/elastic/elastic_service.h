// ElasticRenamingService: a contention-adaptive namespace that grows and
// shrinks at runtime.
//
// The fixed RenamingService freezes n, shard count, and arena size at
// construction, so a deployment serving bursty traffic must provision for
// peak forever. This service makes capacity a runtime quantity — the
// paper's "namespace proportional to actual contention" promise, carried
// from the one-shot setting into a long-lived, resizable one (cf. the
// long-lived/adaptive renaming chapters of Aspnes's notes):
//
//   * The live namespace is one ShardGroup (renaming/shard_group.h, the
//     namespace layer the fixed RenamingService also runs on): one arena
//     carved into sticky-probed shards under a ReBatching schedule sized
//     for the group's holder count.
//   * GROW: when acquisitions keep missing the whole probe schedule
//     (a streak of `grow_miss_threshold` full misses with no intervening
//     schedule win — "sustained pressure"), or when even the backstop
//     sweep finds nothing, a group with double the holders is built,
//     linked into the tag table, and published with one pointer store —
//     an RCU-style swap; no acquisition ever blocks on a resize.
//   * SHRINK: shrink() (or the sampled auto-shrink watermark) publishes a
//     *smaller* group the same way. The old group is not torn down: it
//     retires. New acquisitions only ever probe the live group, so the
//     retiree only drains; a name acquired from generation g stays valid —
//     release(name) finds g through the tag table — until its holder
//     releases it, however many resizes have happened since.
//   * RECLAIM: a retired group's memory is freed only after (a) the epoch
//     domain quiesced past the retirement (no acquisition that might still
//     insert into it is in flight), (b) its live counter drained to zero
//     (no held names), and (c) a second quiescence after it is unlinked
//     from the tag table (no release() can still be dereferencing it).
//     See DESIGN.md, "Elastic renaming: the epoch-based resize protocol".
//
// Name encoding: name = (group_local << kTagBits) | tag. The tag selects
// one of kMaxGroups (8) table slots, so release() decodes its group with a
// mask — no search — and uniqueness across generations is structural:
// distinct tags can never collide, and a tag is only reused after its
// previous group was reclaimed (which requires zero held names). The cost
// is namespace looseness: issued names are < capacity() =
// local_capacity * 2^kTagBits, a constant factor over the (1+eps)-tight
// fixed service. That is the price of elasticity here, and it is bounded
// and documented rather than hidden (DESIGN.md discusses the tradeoff).
//
// The acquire/release pipeline is the one both services share
// (renaming/service_core.h); this header adds the epoch-published
// namespace policy, Generations, and the elastic service's extras.
//
// Concurrency contract: acquire/release/grow/shrink/resize/reclaim are
// safe from any thread. Destruction requires external quiescence (no
// calls in flight), the same contract as the other services' reset().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/epoch.h"
#include "platform/sim_point.h"
#include "renaming/schedule_cache.h"
#include "renaming/service_core.h"
#include "renaming/shard_group.h"

namespace loren {

/// The shared options (ServiceOptions, renaming/service_core.h) plus the
/// resize knobs. Two shared defaults differ: the substrate is kBitmap —
/// growth waits for exhaustion, so every generation is driven to full,
/// where a word probe still finds the last free cells (it misses only on
/// a full word) and the backstop sweep reads 64 cells per load; shards
/// are sized by the substrate's bytes (auto_shard_count), so a bitmap
/// generation gets about one shard per hardware thread — and the seed.
/// Growth is unchanged by the practical probe budget (layout_extra):
/// auto_grow still fires only after every shard's whole schedule missed.
struct ElasticOptions : ServiceOptions {
  ElasticOptions()
      : ServiceOptions{.arena_kind = ArenaKind::kBitmap, .seed = 0xE1A5} {}

  /// Smallest holder count shrink may reach. 0 = the initial holder count.
  std::uint64_t min_holders = 0;
  /// Largest holder count grow may reach.
  std::uint64_t max_holders = std::uint64_t{1} << 22;
  /// Grow automatically under sustained probe-schedule misses (and always
  /// on true exhaustion). Off = fixed capacity, explicit resize only.
  bool auto_grow = true;
  /// Full-schedule misses (with no intervening schedule win) that trigger
  /// an automatic grow.
  std::uint32_t grow_miss_threshold = 4;
  /// Shrink automatically (sampled on the release path) when live names
  /// stay below holders/4 across `shrink_low_threshold` consecutive
  /// samples — like grow, the pressure must be *sustained*, so a
  /// transient dip between bursts does not thrash the namespace. Off by
  /// default: shrinking trades latency for memory and most callers prefer
  /// to decide when (e.g. between traffic phases).
  bool auto_shrink = false;
  std::uint32_t shrink_low_threshold = 2;
  /// Diagnostic hardening against *contract-violating* releases: stamp
  /// the issuing generation into bits [48, 63) of every name and reject a
  /// release whose stamp does not match the generation currently holding
  /// the name's tag. This catches the stale double-release ABA — a copy
  /// of a name from a long-reclaimed generation whose 3-bit tag has been
  /// recycled would otherwise free a victim's cell in the *new* group.
  /// Stamped names are no longer < capacity() (the stamp rides above the
  /// value bits), so keep this off in production and on in tests/debug
  /// deployments. See DESIGN.md, "The release contract".
  bool debug_release_guard = false;
};

/// The epoch-published-generations namespace policy of ServiceCore (see
/// the file comment): every group access pinned, tagged (optionally
/// stamped) names, live names on each group's striped counter (the drain
/// detector), the grow loop on sustained misses, and stashes flushed on a
/// resize (their names are still held in a retired group that must drain).
class Generations {
 public:
  /// Tag bits spent in every name; bounds the generations that can be
  /// in flight (live + draining) at once.
  static constexpr std::uint32_t kTagBits = 3;
  static constexpr std::uint32_t kMaxGroups = 1u << kTagBits;
  /// debug_release_guard stamp geometry: 15 generation bits at bit 48 —
  /// far above any realistic local<<kTagBits value (max_holders tops out
  /// at 2^22 by default) and, at 15 bits, stopping short of bit 63 so a
  /// stamped name can never go negative (sim::Name is a signed int64 and
  /// negative means "failure" everywhere).
  static constexpr std::uint32_t kGenStampShift = 48;
  static constexpr std::uint64_t kGenStampMask = 0x7FFF;
  static_assert(kGenStampShift == lease::kNameIndexBits,
                "lease cells are indexed by the unstamped name bits");

  using Handle = EpochDomain::Slot;
  struct Init {
    std::uint64_t initial_holders;
    const ElasticOptions* options;
  };
  struct Pin : EpochDomain::Guard {
    Pin(const Generations& ns, Handle& slot) : EpochDomain::Guard(ns.domain_, slot) {}
  };
  struct Decoded {
    std::uint64_t local;
    std::uint32_t tag;
    std::uint64_t stamp;  // meaningful only when the guard is on
  };
  static constexpr const char* kMetricPrefix = "elastic.";
  static constexpr const char* kMigrateTrace = "elastic.migrate";
  /// A stale stash still holds live names of a retired group: flush it.
  static constexpr bool kFlushStaleStash = true;
  /// The controller's grow/shrink hysteresis knobs start at the options.
  static control::AdaptiveController::KnobSeeds knob_seeds(const Init& init) {
    return {.grow_miss_threshold = init.options->grow_miss_threshold,
            .shrink_low_threshold = init.options->shrink_low_threshold};
  }

  /// Publishes generation 1. Throws std::invalid_argument for
  /// initial_holders == 0 or min_holders > max_holders.
  Generations(const Init& init, const ServiceOptions& options,
              telemetry::MetricsRegistry& registry,
              const control::AdaptiveController* controller);

  // The hot-path interface (service_core.cpp).
  Handle& register_thread() { return domain_.register_thread(); }
  [[nodiscard]] std::uint64_t home_shard(std::uint64_t slot) const {
    return slot;  // masked per generation by ShardGroup::try_acquire
  }
  [[nodiscard]] std::uint64_t capacity() const {
    return live_local_capacity_.load(std::memory_order_acquire) << kTagBits;
  }
  [[nodiscard]] std::uint64_t stash_gen() const {
    return generation_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t live_tag() const {
    return live_tag_.load(std::memory_order_acquire);
  }
  bool decode(sim::Name name, Decoded* d) const;
  /// Only live-generation names are ever stashed (docs/protocols.md).
  bool stashable(const Decoded& d, const NameStash& st) const {
    return d.tag == st.expected_tag() &&
           d.local < live_local_capacity_.load(std::memory_order_acquire);
  }
  /// The group holding `d` if its stamp matches (caller holds a Pin).
  [[nodiscard]] ShardGroup* resolve_pinned(const Decoded& d) const;
  std::int64_t acquire(Xoshiro256& rng, std::uint32_t* shard, Handle& slot,
                       std::uint32_t sweep_budget,
                       ShardGroup::ProbeStats& stats, bool timed);
  std::uint64_t acquire_many(Xoshiro256& rng, std::uint32_t* shard,
                             std::uint64_t want, sim::Name* out, Handle& slot,
                             std::uint32_t sweep_budget, bool* budget_hit,
                             ShardGroup::ProbeStats& stats);
  /// Live accounting of one shared release pass: batches overwhelmingly
  /// come from one generation, so decrements coalesce per group.
  class ReleaseRun {
   public:
    explicit ReleaseRun(Handle& /*slot*/) {}
    void add(ShardGroup& g) {
      if (&g != group_) flush(&g);
      ++run_;
      ++freed_;
    }
    std::uint64_t finish() {
      flush(nullptr);
      return freed_;
    }

   private:
    void flush(ShardGroup* next) {
      if (group_ != nullptr) group_->note_released_n(run_);
      group_ = next;
      run_ = 0;
    }
    ShardGroup* group_ = nullptr;
    std::int64_t run_ = 0;
    std::uint64_t freed_ = 0;
  };
  /// reclaim_cell already counted the reaped names on their groups.
  static void note_reaped(Handle& /*slot*/, std::size_t /*n*/) {}
  void after_release(std::uint32_t& sample);
  /// Reclamation plus the auto-shrink check; try-locks, so it never waits.
  void maintain();
  bool reclaim_cell(sim::Name name);  // caller holds a Pin

  [[nodiscard]] std::uint64_t names_live() const;

 private:
  friend class ElasticRenamingService;  // its resize and accounting extras

  struct LimboEntry {
    std::unique_ptr<ShardGroup> group;
    std::uint64_t unlink_epoch;
  };

  /// Counts the win on the group, ends the miss streak, encodes.
  sim::Name won(ShardGroup& g, std::int64_t local);
  /// Resize if the generation still equals `seen_gen`; returns true when
  /// the service resized (by this call or a concurrent one) so the caller
  /// should re-probe. Prevents a stampede of threads that all saw the
  /// same pressure from growing once each.
  bool grow_from(std::uint64_t seen_gen);
  bool grow_locked();  // double, up to max_holders
  bool resize_locked(std::uint64_t target);
  std::size_t reclaim_locked();
  int find_free_tag_locked() const;
  /// The thresholds the miss streak (grow) and the low-watermark streak
  /// (auto-shrink) compare against: the controller's hysteresis knobs
  /// when attached, else the options.
  [[nodiscard]] std::uint32_t grow_threshold() const {
    return controller_ != nullptr ? controller_->grow_miss_threshold()
                                  : options_.grow_miss_threshold;
  }
  [[nodiscard]] std::uint32_t shrink_threshold() const {
    return controller_ != nullptr ? controller_->shrink_low_threshold()
                                  : options_.shrink_low_threshold;
  }

  ElasticOptions options_;
  std::uint64_t min_holders_;
  EpochDomain domain_;
  ScheduleCache schedules_;
  telemetry::MetricsRegistry* registry_;
  const control::AdaptiveController* controller_;
  telemetry::MetricId grow_events_;
  telemetry::MetricId shrink_events_;
  telemetry::MetricId reclaimed_groups_;
  telemetry::MetricId epoch_advances_;
  telemetry::MetricId quiesce_ticks_;  // histogram

  /// RCU-published pointers: the live group (acquire path) and the tag
  /// table (release path). Dereferenced only under an epoch pin.
  // mo: acquire, release, relaxed -- RCU pointer: release-publish on swap,
  // acquire-load before any deref (under an epoch pin); relaxed only for
  // pointer-identity checks under resize_mu_, which wrote the pointer.
  std::atomic<ShardGroup*> live_group_{nullptr};
  // mo: acquire, release, relaxed -- tag table: release-publish with the
  // swap, acquire-load before deref on the release path; relaxed for
  // nullptr slot scans under resize_mu_ (use sites carry mo:relaxed-ok —
  // the std::array wrapper hides the element type from the decl index).
  std::array<std::atomic<ShardGroup*>, kMaxGroups> groups_{};

  /// Lock-free mirrors of the live group's geometry so capacity()/holders()
  /// never dereference a pointer that a concurrent resize might retire —
  /// and so the name-cache fast paths can validate a name's tag and range
  /// without pinning the epoch.
  // mo: acquire, release -- geometry mirror: release-published with the
  // group swap, acquire-read by the name-cache range checks.
  std::atomic<std::uint64_t> live_local_capacity_{0};
  // mo: acquire, release, relaxed -- release-published with the group
  // swap; relaxed reads feed maintenance() sizing hints, never a deref.
  std::atomic<std::uint64_t> live_holders_{0};
  // mo: acquire, release -- published with the swap; acquire-read to stamp
  // per-thread stashes with the tag they must match.
  std::atomic<std::uint32_t> live_tag_{0};

  // mo: acquire, release, relaxed -- resize ticket: release-incremented
  // after each swap, acquire-read to detect a missed swap; relaxed inside
  // maintenance(), which holds resize_mu_ and so cannot race a writer.
  std::atomic<std::uint64_t> generation_{0};
  // mo: relaxed -- contended-acquire streak heuristic; a lost update only
  // delays a grow decision, it cannot corrupt state.
  std::atomic<std::uint32_t> miss_streak_{0};
  /// Consecutive low-watermark observations (maintain() only, under
  /// resize_mu_); plain int would do but keeps the header self-consistent.
  // mo: relaxed -- written only under resize_mu_; atomic for the header's
  // self-consistency, not for cross-thread ordering.
  std::atomic<std::uint32_t> low_streak_{0};

  /// Serializes resize + reclamation bookkeeping (cold path only).
  /// SimMutex, not std::mutex: the critical sections contain sim points
  /// (the scenario engine suspends workers *inside* a resize to test the
  /// publication order), and a blocking lock would deadlock the
  /// serialized schedule — see platform/sim_point.h. Identical to
  /// std::mutex in normal builds.
  mutable SimMutex resize_mu_;
  std::vector<std::unique_ptr<ShardGroup>> linked_;  // live + draining
  std::vector<LimboEntry> limbo_;  // unlinked, awaiting final quiescence
};

class ElasticRenamingService : public ServiceCore<Generations> {
 public:
  static constexpr std::uint32_t kTagBits = Generations::kTagBits;
  static constexpr std::uint32_t kMaxGroups = Generations::kMaxGroups;
  static constexpr std::uint32_t kGenStampShift = Generations::kGenStampShift;
  static constexpr std::uint64_t kGenStampMask = Generations::kGenStampMask;

  /// Publishes generation 1, laid out for `initial_holders` (clamped to
  /// [min_holders, max_holders]). Throws std::invalid_argument for
  /// initial_holders == 0 or min_holders > max_holders. Immediately
  /// usable from any thread. Destruction requires external quiescence
  /// (no calls in flight on any thread) — the same contract as the fixed
  /// service's reset().
  explicit ElasticRenamingService(std::uint64_t initial_holders,
                                  ElasticOptions options = {})
      : ServiceCore(options, Generations::Init{initial_holders, &options}) {}

  /// Publish a generation with double / half / exactly `holders` holders
  /// (clamped to [min_holders, max_holders]). False when the target equals
  /// the current size, the clamp makes it a no-op, or no tag slot is free
  /// (kMaxGroups generations already in flight). Safe concurrently with
  /// acquire/release.
  bool grow();
  bool shrink();
  bool resize(std::uint64_t holders);

  /// One reclamation pass: unlink drained retirees, free quiesced limbo
  /// groups. Returns groups freed by this call. Also runs opportunistically
  /// (sampled) on the release path, so calling it is optional. Safe from
  /// any thread; takes the (cold) resize mutex. Cannot reclaim a group
  /// whose names sit in some thread's stash — that thread must call into
  /// the service (or flush_thread_cache()) once after the resize first.
  std::size_t reclaim();

  /// Holder count the live generation is laid out for.
  [[nodiscard]] std::uint64_t holders() const {
    return ns_.live_holders_.load(std::memory_order_acquire);
  }
  /// Monotonic resize count (initial construction = 1).
  [[nodiscard]] std::uint64_t generation() const {
    return ns_.generation_.load(std::memory_order_acquire);
  }
  /// Linked generations (live + draining). 1 at rest.
  [[nodiscard]] std::size_t groups_in_flight() const;
  /// Cell-storage bytes across linked + limbo groups: the number that
  /// shrinking + reclamation drives back down.
  [[nodiscard]] std::uint64_t footprint_bytes() const;
  /// Resize accounting: thin snapshot reads of the `elastic.*` counters,
  /// exact at quiescence like every registry sum.
  [[nodiscard]] std::uint64_t grow_events() const {
    return ins_.registry->counter_value(ns_.grow_events_);
  }
  [[nodiscard]] std::uint64_t shrink_events() const {
    return ins_.registry->counter_value(ns_.shrink_events_);
  }
  [[nodiscard]] std::uint64_t reclaimed_groups() const {
    return ins_.registry->counter_value(ns_.reclaimed_groups_);
  }
  [[nodiscard]] const ElasticOptions& options() const { return ns_.options_; }
};

}  // namespace loren
