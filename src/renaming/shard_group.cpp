#include "renaming/shard_group.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "platform/cacheline.h"
#include "platform/sim_point.h"

namespace loren {

namespace {

/// A shard arena's real footprint: the cell-probe TasArena spends a
/// padded line per cell, the BitmapArena a padded word slot per 64 cells.
std::uint64_t padded_shard_bytes(std::uint64_t n, std::uint64_t shards,
                                 const BatchLayoutParams& params,
                                 ArenaKind kind) {
  const std::uint64_t holders = (n + shards - 1) / shards;
  std::uint64_t cells = BatchLayout(holders, params).total();
  if (kind == ArenaKind::kBitmap) {
    cells = (cells + BitmapArena::kBitsPerWord - 1) / BitmapArena::kBitsPerWord;
  }
  return cells * kCacheLine;
}

}  // namespace

std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params,
                               std::uint32_t hw_threads, ArenaKind kind) {
  // hardware_concurrency() may legitimately return 0 ("unknown"). Treat
  // it as 1 — the conservative reading, made explicit here rather than
  // left to the accident that `shards < 0u` is unsatisfiable (the clamp
  // pins the hw==0 contract down so it is documented and, with hw
  // injectable, unit-tested; the L1-size condition below still drives
  // the shard count up for large namespaces).
  const std::uint64_t hw = std::max<std::uint32_t>(1u, hw_threads);
  // Grow while (a) hardware threads would share home shards or (b) a
  // shard's arena spills out of half an L1d — the sticky hot path is
  // fastest when a thread's whole probe target is cache-resident — but
  // never shard below 64 holders.
  constexpr std::uint64_t kHalfL1 = 32 * 1024;
  std::uint64_t shards = 1;
  while (n / (shards * 2) >= 64 &&
         (shards < hw ||
          padded_shard_bytes(n, shards, params, kind) > kHalfL1)) {
    shards <<= 1;
  }
  return shards;
}

std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params,
                               ArenaKind kind) {
  return auto_shard_count(n, params, std::thread::hardware_concurrency(),
                          kind);
}

std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params,
                              std::uint32_t hw_threads, ArenaKind kind) {
  if (requested == 0) return auto_shard_count(n, params, hw_threads, kind);
  std::uint64_t shards = 1;
  while (shards < requested) shards <<= 1;  // round up to a power of two
  while (shards > 1 && shards > n) shards >>= 1;
  return shards;
}

std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params, ArenaKind kind) {
  return shard_count_for(n, requested, params,
                         std::thread::hardware_concurrency(), kind);
}

ShardGroup::ShardGroup(std::uint32_t tag, std::uint64_t generation,
                       std::uint64_t holders, std::uint64_t shards,
                       ArenaKind arena_kind,
                       std::shared_ptr<const CachedSchedule> schedule)
    : tag_(tag),
      generation_(generation),
      holders_(holders),
      shard_stride_(schedule->layout.total()),
      shard_mask_(shards - 1),
      shard_shift_(0),
      schedule_(std::move(schedule)),
      b0_end_(schedule_->schedule.begin() + schedule_->layout.probes(0)),
      b0_pass_shards_(std::min<std::uint64_t>(shards, kB0PassShards)) {
  if (shards == 0 || (shards & (shards - 1)) != 0) {
    throw std::invalid_argument("ShardGroup: shards must be a power of two");
  }
  for (std::uint64_t s = shards; s > 1; s >>= 1) ++shard_shift_;
  const std::uint64_t total = shard_stride_ * shards;
  if (arena_kind == ArenaKind::kBitmap) {
    bitmap_ = std::make_unique<BitmapArena>(total);
  } else {
    arena_ = std::make_unique<TasArena>(total);
  }
  segments_.reserve(shards);
  for (std::uint64_t i = 0; i < shards; ++i) {
    if (bitmap_ != nullptr) {
      segments_.emplace_back(*bitmap_, i * shard_stride_, shard_stride_);
    } else {
      segments_.emplace_back(*arena_, i * shard_stride_, shard_stride_);
    }
  }
}

ShardGroup::Visit ShardGroup::visit(std::uint64_t home,
                                    std::uint64_t k) const {
  const FlatProbeSchedule::Slot* const first = schedule_->schedule.begin();
  if (k < b0_pass_shards_) return {(home + k) & shard_mask_, first, b0_end_};
  const std::uint64_t j = k - b0_pass_shards_;
  return {(home + j) & shard_mask_, j < b0_pass_shards_ ? b0_end_ : first,
          schedule_->schedule.end()};
}

std::int64_t ShardGroup::probe_segment(const Visit& v, Xoshiro256& rng,
                                       bool* late, ProbeStats* stats) {
  const std::uint64_t si = v.shard;
  const FlatProbeSchedule::Slot* const first = schedule_->schedule.begin();
  const FlatProbeSchedule::Slot* const from = v.from;
  const FlatProbeSchedule::Slot* const to = v.to;
  ArenaSegment& seg = segments_[si];
  std::uint32_t* const lost =
      stats != nullptr ? &stats->lost_races : nullptr;
  if (seg.kind() == ArenaKind::kBitmap) {
    // Word-granular probe schedule: each slot's random draw nominates a
    // word, and the 64-way scan claims any free cell in it (clamped to
    // this shard's window). A probe fails only when its whole word is
    // full, so a word-scan schedule walk covers up to 64x the cells of a
    // cell-probe walk at the same probe budget.
    for (const auto* slot = from; slot != to; ++slot) {
      const std::uint64_t x = slot->offset + rng.below(slot->size);
      const std::int64_t cell = seg.try_claim_word(x, lost);
      if (cell >= 0) {
        *late = (slot - first) >= kMigrateThreshold;
        if (stats != nullptr) {
          stats->probes += static_cast<std::uint32_t>(slot - from) + 1;
        }
        return static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(cell) << shard_shift_) | si);
      }
    }
    if (stats != nullptr) stats->probes += static_cast<std::uint32_t>(to - from);
    return -1;
  }
  for (const auto* slot = from; slot != to; ++slot) {
    const std::uint64_t x = slot->offset + rng.below(slot->size);
    // sim:exempt(forwards to the arena RMW, which carries the sim point)
    if (seg.test_and_set(x)) {
      *late = (slot - first) >= kMigrateThreshold;
      if (stats != nullptr) {
        stats->probes += static_cast<std::uint32_t>(slot - from) + 1;
      }
      return static_cast<std::int64_t>((x << shard_shift_) | si);
    }
  }
  if (stats != nullptr) stats->probes += static_cast<std::uint32_t>(to - from);
  return -1;
}

std::int64_t ShardGroup::try_acquire(Xoshiro256& rng, std::uint32_t* sticky,
                                     ProbeStats* stats) {
  // B_0 of the first shards from the hint, then every shard's tail: a
  // thread whose home B_0 misses steals a neighbour's B_0 before the
  // small batches give out a name.
  const std::uint64_t home = *sticky & shard_mask_;
  for (std::uint64_t k = 0; k < visits(); ++k) {
    const Visit v = visit(home, k);
    bool late = false;
    const std::int64_t local = probe_segment(v, rng, &late, stats);
    if (local >= 0) {
      if (v.shard != home) {
        *sticky = static_cast<std::uint32_t>(v.shard);
      } else if (late) {
        *sticky = static_cast<std::uint32_t>((home + 1) & shard_mask_);
      }
      return local;
    }
  }
  return -1;
}

std::int64_t ShardGroup::sweep_acquire(std::uint32_t* sticky,
                                       std::uint64_t sweep_budget,
                                       ProbeStats* stats) {
  const std::uint64_t S = shard_mask_ + 1;
  const std::uint64_t cap =
      sweep_budget == 0 || sweep_budget > S ? S : sweep_budget;
  for (std::uint64_t k = 0; k < cap; ++k) {
    const std::uint64_t si = (*sticky + k) & shard_mask_;
    LOREN_SIM_POINT("group.sweep");
    if (stats != nullptr) ++stats->sweep_shards;
    // One-cell run-claim: word-at-a-time snapshots on a bitmap segment
    // (64 cells per load), line-at-a-time load-before-RMW on a cell
    // arena — either way the backstop fails only when the shard really
    // had zero free cells when scanned.
    std::uint64_t cell = 0;
    if (segments_[si].try_claim_run(
            0, shard_stride_, 1, &cell,
            stats != nullptr ? &stats->lost_races : nullptr) == 1) {
      *sticky = static_cast<std::uint32_t>(si);
      return static_cast<std::int64_t>((cell << shard_shift_) | si);
    }
  }
  return cap < S ? kSweepBudgetTruncated : -1;
}

std::uint64_t ShardGroup::claim_encoded(std::uint64_t si, std::uint64_t from,
                                        std::uint64_t to, std::uint64_t k,
                                        std::int64_t* out,
                                        std::uint32_t* lost_races) {
  // Claim raw cell indices into the caller's slots, then encode in place:
  // uint64/int64 alias legally and every index fits either, so no scratch
  // buffer is needed.
  auto* raw = reinterpret_cast<std::uint64_t*>(out);
  const std::uint64_t got =
      segments_[si].try_claim_run(from, to, k, raw, lost_races);
  for (std::uint64_t i = 0; i < got; ++i) {
    out[i] = static_cast<std::int64_t>((raw[i] << shard_shift_) | si);
  }
  return got;
}

std::uint64_t ShardGroup::try_acquire_many(Xoshiro256& rng,
                                           std::uint32_t* sticky,
                                           std::uint64_t k, std::int64_t* out,
                                           std::uint64_t sweep_budget,
                                           bool* sweep_budget_hit,
                                           ProbeStats* stats) {
  std::uint32_t* const lost =
      stats != nullptr ? &stats->lost_races : nullptr;
  const std::uint64_t S = shard_mask_ + 1;
  std::uint64_t got = 0;
  // Phase 1 — schedule-seeded run claims: per visited shard, one probe
  // walk wins a seed cell and the remaining demand is run-claimed from
  // the seed forward, then wrapping once to the cells before it. The
  // walk makes try_acquire's two passes, B_0s first, then tails, so seeds
  // (and the runs that grow from them) stay low in each shard. The
  // origin is captured up front: the sticky hint moves during the walk,
  // and indexing off the live hint would revisit shards and skip others.
  const std::uint64_t origin = *sticky & shard_mask_;
  std::uint64_t walked = 0;
  for (; walked < visits() && got < k; ++walked) {
    const Visit v = visit(origin, walked);
    const std::uint64_t si = v.shard;
    bool late = false;
    const std::int64_t seed = probe_segment(v, rng, &late, stats);
    if (seed < 0) continue;
    out[got++] = seed;
    const std::uint64_t x = static_cast<std::uint64_t>(seed) >> shard_shift_;
    if (got < k) {
      got += claim_encoded(si, x + 1, shard_stride_, k - got, out + got, lost);
    }
    if (got < k) got += claim_encoded(si, 0, x, k - got, out + got, lost);
    if (si != origin) {
      *sticky = static_cast<std::uint32_t>(si);
    } else if (late) {
      *sticky = static_cast<std::uint32_t>((si + 1) & shard_mask_);
    }
  }
  if (stats != nullptr) {
    stats->ring_shards += static_cast<std::uint32_t>(walked);
  }
  if (got == k) return got;
  // Phase 2 — deterministic sweep backstop from the (possibly moved)
  // hint: a shortfall past here is true (near-)exhaustion — or, with a
  // budget set, a deliberately truncated scan, reported separately.
  const std::uint64_t cap =
      sweep_budget == 0 || sweep_budget > S ? S : sweep_budget;
  const std::uint32_t origin2 = *sticky;
  std::uint64_t w = 0;
  for (; w < cap && got < k; ++w) {
    const std::uint64_t si = (origin2 + w) & shard_mask_;
    LOREN_SIM_POINT("group.sweep");
    got += claim_encoded(si, 0, shard_stride_, k - got, out + got, lost);
  }
  if (stats != nullptr) stats->sweep_shards += static_cast<std::uint32_t>(w);
  if (got < k && cap < S && sweep_budget_hit != nullptr) {
    *sweep_budget_hit = true;
  }
  return got;
}

}  // namespace loren
