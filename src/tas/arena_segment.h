// ArenaSegment: a relocatable window into a TAS substrate.
//
// A segment is a non-owning [base, base+size) view of one arena. Both
// services run on shard groups (renaming/shard_group.h), and a group
// allocates a single arena and carves it into shard segments: one epoch
// word and one allocation per namespace, not per shard. So a whole group
// can be published, retired, and reclaimed as a unit (the property the
// elastic service's epoch-based resize protocol needs), and creating or
// destroying a group is one allocation regardless of shard count.
//
// A segment exposes the same memory concept as the arena itself
// (test_and_set / read / write / try_release / size), so BasicDirectEnv
// and the probe loops run over a window unchanged — "relocating" a shard
// is rebinding a view, never copying cells.
//
// Since the word-scan substrate (tas/bitmap_arena.h) a segment views
// either arena kind: it holds one of a TasArena* or a BitmapArena* plus
// the ArenaKind discriminator, and every operation dispatches on one
// predictable branch. The shard layer (renaming/shard_group.cpp) stays
// substrate-agnostic: it asks the segment for its kind once per probe
// loop and uses the word-granular surface (try_claim_word,
// word-at-a-time try_claim_run) when it is a bitmap.
#pragma once

#include <cassert>
#include <cstdint>

#include "tas/bitmap_arena.h"
#include "tas/direct_env.h"
#include "tas/tas_arena.h"

namespace loren {

class ArenaSegment {
 public:
  ArenaSegment() = default;
  ArenaSegment(TasArena& arena, std::uint64_t base, std::uint64_t size)
      : arena_(&arena), base_(base), size_(size) {}
  ArenaSegment(BitmapArena& arena, std::uint64_t base, std::uint64_t size)
      : bitmap_(&arena), base_(base), size_(size) {}

  [[nodiscard]] ArenaKind kind() const {
    return bitmap_ != nullptr ? ArenaKind::kBitmap : ArenaKind::kCellProbe;
  }

  bool test_and_set(std::uint64_t i) {
    // sim:exempt(forwards to the arena RMW, which carries the sim point)
    return bitmap_ != nullptr ? bitmap_->test_and_set(base_ + i)
                              : arena_->test_and_set(base_ + i);
  }
  [[nodiscard]] std::uint64_t read(std::uint64_t i) const {
    return bitmap_ != nullptr ? bitmap_->read(base_ + i)
                              : arena_->read(base_ + i);
  }
  void write(std::uint64_t i, std::uint64_t v) {
    if (bitmap_ != nullptr) {
      bitmap_->write(base_ + i, v);
    } else {
      arena_->write(base_ + i, v);
    }
  }
  bool try_release(std::uint64_t i) {
    return bitmap_ != nullptr ? bitmap_->try_release(base_ + i)
                              : arena_->try_release(base_ + i);
  }

  /// The word-scan probe (bitmap segments only — callers guard on
  /// kind()): claims any free cell of the word containing
  /// segment-relative `hint`, clamped to this segment's window so a word
  /// straddling the segment edge never claims a neighbouring shard's
  /// cell (which would corrupt the name encoding). Returns the
  /// segment-relative index, or -1 when the word is full. `lost_races`
  /// (optional) forwards BitmapArena's observable-loss count (telemetry).
  std::int64_t try_claim_word(std::uint64_t hint,
                              std::uint32_t* lost_races = nullptr) {
    assert(bitmap_ != nullptr && "try_claim_word on a cell-probe segment");
    const std::int64_t got = bitmap_->try_claim_in_word(
        base_ + hint, base_, base_ + size_, lost_races);
    return got < 0 ? got : got - static_cast<std::int64_t>(base_);
  }

  /// Batched claim over the window [begin, end) (segment-relative): up to
  /// `k` free cells are claimed in one linear scan — word-at-a-time mask
  /// claims on a bitmap, line-at-a-time load-before-RMW on a cell arena —
  /// and their *segment-relative* indices appended to `out`. Returns the
  /// number claimed.
  std::uint64_t try_claim_run(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t k, std::uint64_t* out,
                              std::uint32_t* lost_races = nullptr) {
    const std::uint64_t got =
        bitmap_ != nullptr
            ? bitmap_->try_claim_run(base_ + begin, base_ + end, k, out,
                                     lost_races)
            : arena_->try_claim_run(base_ + begin, base_ + end, k, out,
                                    lost_races);
    for (std::uint64_t i = 0; i < got; ++i) out[i] -= base_;
    return got;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] TasArena* arena() const { return arena_; }
  [[nodiscard]] BitmapArena* bitmap() const { return bitmap_; }

 private:
  TasArena* arena_ = nullptr;
  BitmapArena* bitmap_ = nullptr;
  std::uint64_t base_ = 0;
  std::uint64_t size_ = 0;
};

/// Run the coroutine algorithms over one shard window of a shared arena.
using SegmentEnv = BasicDirectEnv<ArenaSegment>;

}  // namespace loren
