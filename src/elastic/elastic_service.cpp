// The elastic namespace policy's cold paths: construction, resize and
// reclamation (its hot paths are in renaming/service_core.cpp).
#include "elastic/elastic_service.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "platform/sim_point.h"
#include "telemetry/trace.h"

namespace loren {

Generations::Generations(const Init& init, const ServiceOptions& /*shared*/,
                         telemetry::MetricsRegistry& registry,
                         const control::AdaptiveController* controller)
    : options_(*init.options),
      min_holders_(options_.min_holders != 0 ? options_.min_holders
                                             : init.initial_holders),
      schedules_(options_.layout()),
      registry_(&registry),
      controller_(controller),
      grow_events_(registry.counter("elastic.grow.events")),
      shrink_events_(registry.counter("elastic.shrink.events")),
      reclaimed_groups_(registry.counter("elastic.reclaim.groups")),
      epoch_advances_(registry.counter("elastic.epoch.advances")),
      quiesce_ticks_(registry.histogram("elastic.reclaim.quiesce_ticks")) {
  if (init.initial_holders == 0) {
    throw std::invalid_argument("ElasticRenamingService: n must be >= 1");
  }
  if (min_holders_ > options_.max_holders) {
    throw std::invalid_argument(
        "ElasticRenamingService: min_holders > max_holders");
  }
  const std::uint64_t initial =
      std::clamp(init.initial_holders, min_holders_, options_.max_holders);
  std::lock_guard<SimMutex> lock(resize_mu_);
  const std::uint64_t shards = shard_count_for(
      initial, options_.shards, schedules_.params(), options_.arena_kind);
  const std::uint64_t shard_n = (initial + shards - 1) / shards;
  auto group = std::make_unique<ShardGroup>(
      /*tag=*/0, /*generation=*/1, initial, shards, options_.arena_kind,
      schedules_.get(shard_n));
  ShardGroup* raw = group.get();
  live_local_capacity_.store(raw->local_capacity(), std::memory_order_release);
  live_holders_.store(initial, std::memory_order_release);
  live_tag_.store(0, std::memory_order_release);
  groups_[0].store(raw, std::memory_order_release);
  live_group_.store(raw, std::memory_order_release);
  generation_.store(1, std::memory_order_release);
  linked_.push_back(std::move(group));
}

bool Generations::grow_from(std::uint64_t seen_gen) {
  LOREN_SIM_POINT("elastic.grow");
  std::lock_guard<SimMutex> lock(resize_mu_);
  if (generation_.load(std::memory_order_relaxed) != seen_gen) {
    return true;  // someone already resized since the caller's miss
  }
  return grow_locked();
}

bool Generations::grow_locked() {
  const std::uint64_t h = live_holders_.load(std::memory_order_relaxed);
  if (h >= options_.max_holders) return false;
  return resize_locked(std::min(h * 2, options_.max_holders));
}

bool ElasticRenamingService::grow() {
  std::lock_guard<SimMutex> lock(ns_.resize_mu_);
  return ns_.grow_locked();
}

bool ElasticRenamingService::shrink() {
  std::lock_guard<SimMutex> lock(ns_.resize_mu_);
  const std::uint64_t h = ns_.live_holders_.load(std::memory_order_relaxed);
  return ns_.resize_locked(std::max(h / 2, ns_.min_holders_));
}

bool ElasticRenamingService::resize(std::uint64_t holders) {
  std::lock_guard<SimMutex> lock(ns_.resize_mu_);
  return ns_.resize_locked(holders);
}

bool Generations::resize_locked(std::uint64_t target) {
  target = std::clamp(target, min_holders_, options_.max_holders);
  ShardGroup* cur = live_group_.load(std::memory_order_relaxed);
  if (target == cur->holders()) return false;
  // Free tag slots before looking for one: a long-drained retiree should
  // never block a resize.
  reclaim_locked();
  const int tag = find_free_tag_locked();
  if (tag < 0) return false;  // kMaxGroups generations still in flight

  const std::uint64_t shards =
      shard_count_for(target, options_.shards, schedules_.params(),
                      options_.arena_kind);
  const std::uint64_t shard_n = (target + shards - 1) / shards;
  const std::uint64_t gen =
      generation_.load(std::memory_order_relaxed) + 1;
  auto group = std::make_unique<ShardGroup>(
      static_cast<std::uint32_t>(tag), gen, target, shards,
      options_.arena_kind, schedules_.get(shard_n));
  ShardGroup* raw = group.get();

  // Publication order matters: the tag table entry must be visible before
  // the live pointer (an acquisition from the new group may release
  // immediately), and the retiring advance comes only after the swap so
  // quiesced(retire_epoch) really means "no in-flight acquisition can
  // still insert into the old group".
  LOREN_SIM_POINT("elastic.swap.publish");
  live_local_capacity_.store(raw->local_capacity(), std::memory_order_release);
  live_holders_.store(target, std::memory_order_release);
  live_tag_.store(static_cast<std::uint32_t>(tag), std::memory_order_release);
  groups_[static_cast<std::size_t>(tag)].store(raw, std::memory_order_release);
  live_group_.store(raw, std::memory_order_release);
  generation_.store(gen, std::memory_order_release);
  LOREN_SIM_POINT("elastic.swap.retire");
  cur->retire(domain_.advance(), telemetry::trace_ticks());
  linked_.push_back(std::move(group));

  telemetry::MetricsRegistry::ThreadStripe& stripe = registry_->stripe();
  stripe.add(epoch_advances_);
  if (target > cur->holders()) {
    stripe.add(grow_events_);
    LOREN_TRACE("elastic.grow", gen);
  } else {
    stripe.add(shrink_events_);
    LOREN_TRACE("elastic.shrink", gen);
  }
  miss_streak_.store(0, std::memory_order_relaxed);
  low_streak_.store(0, std::memory_order_relaxed);
  return true;
}

int Generations::find_free_tag_locked() const {
  for (std::uint32_t t = 0; t < kMaxGroups; ++t) {
    // mo:relaxed-ok(nullptr scan under resize_mu_, the only writer; no deref)
    if (groups_[t].load(std::memory_order_relaxed) == nullptr) {
      return static_cast<int>(t);
    }
  }
  return -1;
}

std::size_t Generations::reclaim_locked() {
  // Stage A: a retiree is drained once (a) the retire epoch quiesced (no
  // in-flight acquisition can still insert into it, so its live counter
  // is monotonically non-increasing from here) and (b) the counter hit
  // zero (no held names, so no legitimate release will look it up).
  // Unlink it and give it a fresh epoch to wait out in limbo.
  telemetry::MetricsRegistry::ThreadStripe& stripe = registry_->stripe();
  for (auto it = linked_.begin(); it != linked_.end();) {
    ShardGroup* g = it->get();
    if (g->retired() && domain_.quiesced(g->retire_epoch()) &&
        g->live() <= 0) {
      groups_[g->tag()].store(nullptr, std::memory_order_release);
      const std::uint64_t e = domain_.advance();
      stripe.add(epoch_advances_);
      LOREN_TRACE("elastic.unlink", g->tag());
      limbo_.push_back(LimboEntry{std::move(*it), e});
      it = linked_.erase(it);
    } else {
      ++it;
    }
  }
  // Stage B: limbo groups whose unlink epoch has quiesced — no release()
  // can still hold a pointer read from the tag table — are freed. Runs
  // after stage A so that with no readers in flight (quiescence is
  // immediate) a single pass unlinks *and* frees.
  std::size_t freed = 0;
  for (auto it = limbo_.begin(); it != limbo_.end();) {
    if (domain_.quiesced(it->unlink_epoch)) {
      // Quiescence wait: retirement to reclamation, in trace_ticks()
      // units (engine steps under LOREN_SIM, TSC otherwise).
      const std::uint64_t retired_at = it->group->retire_ticks();
      if (retired_at != 0) {
        stripe.record(quiesce_ticks_,
                      telemetry::trace_ticks() - retired_at);
      }
      LOREN_TRACE("elastic.reclaim", it->group->tag());
      it = limbo_.erase(it);
      ++freed;
      stripe.add(reclaimed_groups_);
    } else {
      ++it;
    }
  }
  return freed;
}

std::size_t ElasticRenamingService::reclaim() {
  std::lock_guard<SimMutex> lock(ns_.resize_mu_);
  return ns_.reclaim_locked();
}

void Generations::maintain() {
  std::unique_lock<SimMutex> lock(resize_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // someone else is already on it
  reclaim_locked();
  if (!options_.auto_shrink) return;
  const std::uint64_t h = live_holders_.load(std::memory_order_relaxed);
  if (h / 2 < min_holders_) return;
  std::int64_t live = 0;
  for (const auto& g : linked_) live += g->live();
  if (live >= 0 && static_cast<std::uint64_t>(live) * 4 <= h) {
    // Low watermark — but only shrink once it is *sustained* across
    // consecutive samples, mirroring the grow-side miss streak.
    const std::uint32_t streak =
        // sim:exempt(maintenance-only counter under resize_mu_; no races)
        low_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= shrink_threshold()) resize_locked(h / 2);
  } else {
    low_streak_.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Generations::names_live() const {
  std::lock_guard<SimMutex> lock(resize_mu_);
  std::int64_t live = 0;
  for (const auto& g : linked_) live += g->live();
  return live > 0 ? static_cast<std::uint64_t>(live) : 0;
}

std::size_t ElasticRenamingService::groups_in_flight() const {
  std::lock_guard<SimMutex> lock(ns_.resize_mu_);
  return ns_.linked_.size();
}

std::uint64_t ElasticRenamingService::footprint_bytes() const {
  std::lock_guard<SimMutex> lock(ns_.resize_mu_);
  std::uint64_t bytes = 0;
  for (const auto& g : ns_.linked_) bytes += g->footprint_bytes();
  for (const auto& e : ns_.limbo_) bytes += e.group->footprint_bytes();
  return bytes;
}

}  // namespace loren
