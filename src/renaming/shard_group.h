// ShardGroup: the sharded namespace layer of both renaming services.
//
// A shard group is a fixed probe geometry (BatchLayout for n_g/S holders
// per shard, flattened once and shared via CachedSchedule) over a *single*
// arena — a cell-probe TasArena or a word-packed BitmapArena, chosen by
// ArenaKind — carved into S shard segments. The fixed RenamingService owns
// exactly one group for its whole lifetime (tag 0, generation 1, never
// retired); the ElasticRenamingService publishes, retires and reclaims a
// sequence of them, one per generation. One allocation per group — not
// one per shard — so the epoch-based resize protocol frees a retired
// generation with one deallocation, and a group's whole footprint
// appears/disappears atomically from the service's accounting.
//
// The probing discipline: a sticky shard and a two-pass ring walk from it
// — B_0 of the home shard and its next neighbours first, then every
// shard's small batches — so a thread whose home B_0 misses steals a
// neighbour's B_0 before it hands out a name above B_0; migration on late
// wins; a deterministic sweep as the exhaustion backstop. Names are group-local here —
// (cell << shard_shift) | shard, so mapping a name back to its shard is a
// mask, not a division. The fixed service issues them as they are; the
// elastic service adds its group tag (elastic_service.h), which is also
// where uniqueness across generations is argued.
//
// The striped live counter is the elastic service's drain detector:
// acquisitions increment it inside an epoch pin, so once the service has
// (a) unpublished the group from the live pointer and (b) seen the retire
// epoch quiesce, the counter is monotonically non-increasing, and zero
// means drained — no name from this generation is still held, so the
// group can be unlinked and, after a second quiescence, freed. The fixed
// service keeps its own per-thread bookkeeping and leaves the counter and
// the retire fields unused.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "platform/rng.h"
#include "platform/striped_counter.h"
#include "renaming/batch_layout.h"
#include "renaming/schedule_cache.h"
#include "tas/arena_segment.h"
#include "tas/bitmap_arena.h"
#include "tas/tas_arena.h"

namespace loren {

/// The auto-sharding heuristic shared by both services: the smallest
/// power-of-two shard count such that (a) hardware threads get distinct
/// home shards and (b) a shard's arena fits in half an L1d (32 KiB),
/// clamped so every shard still serves >= 64 holders (tiny shards
/// overflow constantly and every acquisition degenerates to stealing).
///
/// `kind` is the substrate the shards are built on, and (b) measures its
/// real footprint: one 64-byte line per cell for kCellProbe, one padded
/// 64-byte word slot per 64 cells for kBitmap. So a bitmap shard holds
/// 64x the cells of a cell-probe shard before (b) splits it, and a large
/// bitmap namespace gets about one shard per hardware thread.
///
/// `hw_threads` is the hardware thread count to shard for; 0 means
/// "unknown" (std::thread::hardware_concurrency() is allowed to return 0)
/// and is treated as 1 — left unclamped it would silently disable the
/// distinct-home-shards growth condition. Injectable so the policy is
/// unit-testable without faking the host's topology.
std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params,
                               std::uint32_t hw_threads,
                               ArenaKind kind = ArenaKind::kCellProbe);
/// Convenience overload: shard for this host (hardware_concurrency()).
std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params,
                               ArenaKind kind = ArenaKind::kCellProbe);

/// Resolves a requested shard count: 0 = auto_shard_count, otherwise
/// rounded up to a power of two and clamped so a shard never serves less
/// than one holder. One policy for both services, each passing its own
/// substrate. The form without `hw_threads` uses this host's
/// hardware_concurrency().
std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params,
                              ArenaKind kind = ArenaKind::kCellProbe);
std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params,
                              std::uint32_t hw_threads,
                              ArenaKind kind = ArenaKind::kCellProbe);

class ShardGroup {
 public:
  /// `shards` must be a power of two; `schedule` is the plan for this
  /// group's per-shard holder count (schedule->layout.n() == holders/S).
  /// `arena_kind` picks the substrate: one cell-probe TasArena or one
  /// word-packed BitmapArena, either way a single padded allocation
  /// carved into shard segments (the segments dispatch, so the probing
  /// discipline below is substrate-agnostic except for the word-granular
  /// probes). The caller sizes `shards` for the substrate's bytes
  /// (shard_count_for with the same kind).
  ShardGroup(std::uint32_t tag, std::uint64_t generation, std::uint64_t holders,
             std::uint64_t shards, ArenaKind arena_kind,
             std::shared_ptr<const CachedSchedule> schedule);

  /// Optional per-call observability (telemetry detailed mode): probe
  /// counts, observable lost races (load-before-RMW paths only — a lost
  /// single-RMW test_and_set is indistinguishable from "already taken"),
  /// and how far the batched ring walk / backstop sweep went. The ring
  /// walk counts visits(), up to S + kB0PassShards: one per shard in the
  /// B_0 pass and one per shard in the tail pass. All fields accumulate,
  /// so one struct can span a multi-round acquisition.
  struct ProbeStats {
    std::uint32_t probes = 0;
    std::uint32_t lost_races = 0;
    std::uint32_t ring_shards = 0;
    std::uint32_t sweep_shards = 0;
  };

  /// Walk the shard ring starting at *sticky in two passes: B_0 of the
  /// first kB0PassShards shards, then the rest of every shard's schedule
  /// (see visit()). *sticky is updated in place: it moves to the winning
  /// shard when stealing, and to the next shard on a late win at home.
  /// Returns the group-local name, or -1 when every shard's whole
  /// schedule missed. B_0 first keeps names compact: a tail name is
  /// handed out only when the first pass's B_0 probes all missed. The sticky hint is what keeps a loaded home shard
  /// from becoming a tax: without it, a thread whose home shard has
  /// filled walks that shard's B_0 and fails it on every acquisition
  /// before stealing.
  std::int64_t try_acquire(Xoshiro256& rng, std::uint32_t* sticky,
                           ProbeStats* stats = nullptr);

  /// Deterministic sweep of every cell (ring order from *sticky): fails
  /// with -1 only when zero cells in the group are free. `sweep_budget`
  /// bounds the walk to that many shards (0 = unbounded): a truncated
  /// sweep that found nothing returns kSweepBudgetTruncated (-2), which
  /// the elastic service must NOT treat as exhaustion pressure (a
  /// bounded scan giving up is not evidence the group is full).
  static constexpr std::int64_t kSweepBudgetTruncated = -2;
  std::int64_t sweep_acquire(std::uint32_t* sticky,
                             std::uint64_t sweep_budget = 0,
                             ProbeStats* stats = nullptr);

  /// Batched acquisition: claims up to `k` group-local names into `out`,
  /// returning the number claimed. One probe-schedule walk finds a seed
  /// cell per visited shard; the rest of that shard's demand is taken by
  /// a linear run-claim around the seed (one cache line at a time — see
  /// TasArena::try_claim_run — or one fetch_or per word on a bitmap).
  /// Walks the shard ring from *sticky like try_acquire (B_0s first, so
  /// seeds and the runs grown from them stay low), then
  /// falls back to the deterministic sweep, so a shortfall (return < k)
  /// means the group had fewer than k free cells when scanned — the
  /// per-batch exhaustion signal the elastic service's grow-on-shortfall
  /// policy consumes. `sweep_budget` bounds the backstop sweep
  /// (0 = unbounded); a budget-truncated shortfall sets *sweep_budget_hit
  /// so the caller can keep it out of the pressure signals (an elastic
  /// service that grew on a truncated scan would reintroduce the
  /// spurious-grow bug).
  std::uint64_t try_acquire_many(Xoshiro256& rng, std::uint32_t* sticky,
                                 std::uint64_t k, std::int64_t* out,
                                 std::uint64_t sweep_budget = 0,
                                 bool* sweep_budget_hit = nullptr,
                                 ProbeStats* stats = nullptr);

  /// Frees a group-local name; false when it is not currently taken
  /// (single-RMW validation, concurrent double releases cannot both
  /// succeed).
  bool release_local(std::uint64_t local) {
    if (local >= local_capacity()) return false;
    return segments_[local & shard_mask_].try_release(local >> shard_shift_);
  }

  /// True iff `local` is currently taken (a plain acquire load, no RMW).
  /// The release path of the thread-local name cache uses this to
  /// validate a name before stashing it instead of freeing its cell.
  [[nodiscard]] bool is_held(std::uint64_t local) const {
    if (local >= local_capacity()) return false;
    return segments_[local & shard_mask_].read(local >> shard_shift_) == 1;
  }

  /// O(1) full reset: one epoch bump of the group's arena frees every
  /// cell. Not safe concurrently with acquire/release — quiesce first.
  void reset() {
    if (bitmap_ != nullptr) {
      bitmap_->reset();
    } else {
      arena_->reset();
    }
  }

  /// Bookkeeping around the arena ops (the elastic service calls these
  /// inside the same epoch pin as the arena op itself — see the preamble).
  void note_acquired() { live_.add(1); }
  void note_released() { live_.add(-1); }
  /// Batch variants: one striped add for the whole batch.
  void note_acquired_n(std::int64_t n) { live_.add(n); }
  void note_released_n(std::int64_t n) { live_.add(-n); }
  [[nodiscard]] std::int64_t live() const { return live_.sum(); }

  /// Marks the group retiring; `epoch` is the domain epoch returned by the
  /// advance() that followed the live-pointer swap. `ticks` (optional) is
  /// the retirement timestamp in telemetry::trace_ticks() units — the
  /// service's reclaim pass turns it into the quiescence-wait histogram.
  void retire(std::uint64_t epoch, std::uint64_t ticks = 0) {
    retire_ticks_.store(ticks, std::memory_order_relaxed);
    retire_epoch_.store(epoch, std::memory_order_relaxed);
    retired_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool retired() const {
    return retired_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t retire_epoch() const {
    return retire_epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retire_ticks() const {
    return retire_ticks_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t tag() const { return tag_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Concurrent holders this generation is laid out for.
  [[nodiscard]] std::uint64_t holders() const { return holders_; }
  [[nodiscard]] std::uint64_t shards() const { return shard_mask_ + 1; }
  /// Group-local namespace bound: every local name is < this.
  [[nodiscard]] std::uint64_t local_capacity() const {
    return shard_stride_ << shard_shift_;
  }
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return bitmap_ != nullptr ? bitmap_->footprint_bytes()
                              : arena_->footprint_bytes();
  }
  [[nodiscard]] ArenaKind arena_kind() const {
    return bitmap_ != nullptr ? ArenaKind::kBitmap : ArenaKind::kCellProbe;
  }
  [[nodiscard]] const BatchLayout& shard_layout() const {
    return schedule_->layout;
  }

 private:
  /// A home-shard win at or past this probe position means the shard is
  /// running hot (expected position under the analysis' load is O(1)),
  /// and the caller's sticky hint migrates to the next shard. The
  /// position is absolute in the shard's schedule, so what "late" means
  /// depends on t0. At the services' default t0 = kServiceT0 (8), B_0 is
  /// positions 0..7: a B_0-pass win is never late, and only a tail-pass
  /// win at home (every first-pass B_0 missed) moves the hint. At a larger
  /// t0 (16, 32, the paper's 129), a B_0-pass win after 8 or more home
  /// misses moves the hint before the walk needs a neighbour's B_0
  /// (without the rule, bench_e12's churn took 1.5-2.7x the probes at
  /// t0 = 32 and 129; docs/protocols.md, "Service probe budget").
  static constexpr std::ptrdiff_t kMigrateThreshold = 8;

  /// Shards whose B_0 the ring walk's first pass probes, home included.
  /// Bounding the pass bounds what a B_0-first walk costs under churn at
  /// full design load: misses in the first pass are what send names to
  /// the tails, so B_0 refills until its free fraction q solves
  /// q = (1 - q)^(t0 * passes), and each acquisition walks about 1/q
  /// probes. With all 64 shards of a 16384-holder fixed service in the
  /// pass, bench_e12 read 85-98 probes per churn acquisition at
  /// live / n 1.0 (4.5-4.8 with one shard); four shards keep a growing
  /// elastic fill as compact as the proof constant does
  /// (docs/protocols.md, "Service probe budget").
  static constexpr std::uint64_t kB0PassShards = 4;

  /// One step of the ring walk: a shard and the slot range of its
  /// flattened schedule to probe.
  struct Visit {
    std::uint64_t shard;
    const FlatProbeSchedule::Slot* from;
    const FlatProbeSchedule::Slot* to;
  };
  /// Step k of the walk from shard `home`: steps k < b0_pass_shards_
  /// probe B_0 of the next shards in ring order; the S steps after them
  /// probe every shard's tail batches B_1..B_kappa, or its whole schedule
  /// if the first pass skipped it. So a full walk that misses has
  /// probed every shard's whole schedule.
  [[nodiscard]] Visit visit(std::uint64_t home, std::uint64_t k) const;
  [[nodiscard]] std::uint64_t visits() const {
    return b0_pass_shards_ + shard_mask_ + 1;
  }

  /// Probe one visit's slots. Returns the group-local name, or -1 when
  /// every probe missed; sets *late when the win arrived at or past
  /// kMigrateThreshold.
  std::int64_t probe_segment(const Visit& v, Xoshiro256& rng, bool* late,
                             ProbeStats* stats = nullptr);

  /// Run-claim over shard `si`'s window [from, to), encoding wins as
  /// group-local names directly into `out`. Returns the number claimed.
  std::uint64_t claim_encoded(std::uint64_t si, std::uint64_t from,
                              std::uint64_t to, std::uint64_t k,
                              std::int64_t* out,
                              std::uint32_t* lost_races = nullptr);

  std::uint32_t tag_;
  std::uint64_t generation_;
  std::uint64_t holders_;
  std::uint64_t shard_stride_;  // cells per shard
  std::uint64_t shard_mask_;    // shards - 1 (power of two)
  std::uint32_t shard_shift_;   // log2(shards)
  std::shared_ptr<const CachedSchedule> schedule_;
  /// End of the B_0 slots in schedule_: the split between the ring walk's
  /// two passes.
  const FlatProbeSchedule::Slot* b0_end_;
  std::uint64_t b0_pass_shards_;  // min(S, kB0PassShards)
  /// Exactly one substrate is engaged (by arena_kind at construction);
  /// either way one allocation of shards * stride cells that the
  /// segments window into.
  std::unique_ptr<TasArena> arena_;
  std::unique_ptr<BitmapArena> bitmap_;
  std::vector<ArenaSegment> segments_;
  StripedCounter live_;
  // mo: acquire, release -- retirement flag: retire() release-stores it
  // last so an acquire reader that sees true also sees epoch and ticks.
  std::atomic<bool> retired_{false};
  // mo: relaxed -- payload ordered by the retired_ release/acquire pair;
  // never read before retired() observes true.
  std::atomic<std::uint64_t> retire_epoch_{0};
  // mo: relaxed -- payload ordered by the retired_ release/acquire pair;
  // feeds the quiescence-wait histogram only.
  std::atomic<std::uint64_t> retire_ticks_{0};
};

}  // namespace loren
