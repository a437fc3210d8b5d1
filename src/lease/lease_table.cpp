#include "lease/lease_table.h"

#include <algorithm>
#include <stdexcept>

namespace loren::lease {
namespace {

// Owner word: bit 0 live, bits [1, 33) holder (heartbeat id + 1, 0 for
// a holderless lease), bits [33, 64) a version bumped by every
// transition, so a CAS against a word read before any other transition
// fails.
constexpr std::uint64_t kLive = 1;
constexpr unsigned kHolderShift = 1;
constexpr std::uint64_t kHolderMask = std::uint64_t{0xFFFFFFFF} << kHolderShift;
constexpr std::uint64_t kVersionOne = std::uint64_t{1} << 33;

/// The cell index of a name: its bits below kNameIndexBits.
std::uint64_t index_of(sim::Name name) {
  return static_cast<std::uint64_t>(name) &
         ((std::uint64_t{1} << kNameIndexBits) - 1);
}

std::uint64_t holder_bits(const Heartbeat* hb) {
  return hb == nullptr ? 0 : (std::uint64_t{hb->id} + 1) << kHolderShift;
}

/// The word after `w` with the given live bit and holder.
std::uint64_t next_word(std::uint64_t w, std::uint64_t live,
                        std::uint64_t holder) {
  return ((w & ~(kLive | kHolderMask)) + kVersionOne) | holder | live;
}

/// Live and closable/renewable by `hb`: bound to it, or holderless.
bool owned_by(std::uint64_t w, const Heartbeat* hb) {
  const std::uint64_t h = w & kHolderMask;
  return (w & kLive) != 0 && (h == 0 || h == holder_bits(hb));
}

/// Single-writer increment (the RegisteredCounter idiom), never an RMW.
void bump(std::atomic<std::uint64_t>& w) {
  // mo:relaxed-ok(single-writer tally; sums are exact under quiescence)
  w.store(w.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

LeaseTable::LeaseTable(const LeaseOptions& opts,
                       telemetry::MetricsRegistry* registry)
    : ttl_(opts.ttl_ticks),
      grace_(opts.grace),
      scan_period_(std::max<std::uint64_t>(1, (opts.ttl_ticks + opts.grace) / 16)),
      clock_(opts.clock != nullptr ? opts.clock : &telemetry::trace_ticks),
      release_guard_(opts.release_guard),
      registry_(registry) {
  if (registry_ != nullptr) {
    ctr_opened_ = registry_->counter("lease.opened");
    ctr_closed_ = registry_->counter("lease.closed");
    ctr_expired_ = registry_->counter("lease.expired");
    ctr_renewals_ = registry_->counter("lease.renewals");
    ctr_guard_trips_ = registry_->counter("lease.guard_trips");
    hist_reap_late_ = registry_->histogram("lease.reap_late_ticks");
  }
}

Heartbeat& LeaseTable::register_thread() {
  LOREN_SIM_POINT("lease.register");
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (id >= 0xFFFFFFFFu) throw std::length_error("LeaseTable: heartbeat ids exhausted");
  Heartbeat& hb = heartbeats_.at(id);
  hb.id = static_cast<std::uint32_t>(id);
  return hb;
}

void LeaseTable::tally(std::atomic<std::uint64_t>* own,
                       std::atomic<std::uint64_t>& anon) {
  if (own != nullptr) {
    bump(*own);
    return;
  }
  LOREN_SIM_POINT("lease.tally");
  anon.fetch_add(1, std::memory_order_relaxed);  // mo:relaxed-ok(holderless tally)
}

bool LeaseTable::trip(const Heartbeat* hb) {
  tally(hb != nullptr ? &hb->guard_trips : nullptr, anon_trips_);
  return false;
}

void LeaseTable::open(sim::Name name, std::uint64_t now_ticks,
                      const Heartbeat* hb,
                      telemetry::MetricsRegistry::ThreadStripe* stripe) {
  Cell& c = cells_.at(index_of(name));
  // The cell is dead (its last lease closed or expired) and dead words
  // are never written by anyone else, so a load and a store suffice.
  const std::uint64_t w = c.owner.load(std::memory_order_relaxed);  // mo:relaxed-ok(dead word, no other writer)
  c.deadline.store(now_ticks + ttl_, std::memory_order_relaxed);
  LOREN_SIM_POINT("lease.open");
  c.owner.store(next_word(w, kLive, holder_bits(hb)), std::memory_order_release);
  tally(hb != nullptr ? &hb->opened : nullptr, anon_opened_);
  if (stripe != nullptr) stripe->add(ctr_opened_);
}

bool LeaseTable::close(sim::Name name, const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  Cell* c = cells_.find(index_of(name));
  bool ok = false;
  if (c != nullptr) {
    std::uint64_t w = c->owner.load(std::memory_order_acquire);
    LOREN_SIM_POINT("lease.close");
    // A failed CAS reloads w: the reaper expired it (dead) or, for a
    // holderless lease, someone renewed it (re-check and retry).
    while (owned_by(w, hb) &&
           !c->owner.compare_exchange_weak(w, next_word(w, 0, 0),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    }
    ok = owned_by(w, hb);
  }
  // Not ok: the reaper won — the cell was reclaimed, and if the name
  // bits were already reissued the live lease belongs to a *different*
  // holder. Either way this close must not free the cell.
  if (!ok) trip(hb);
  if (stripe != nullptr) stripe->add(ok ? ctr_closed_ : ctr_guard_trips_);
  return ok;
}

bool LeaseTable::refresh(sim::Name name, std::uint64_t now_ticks,
                         const Heartbeat* hb, bool rebind) {
  Cell* c = cells_.find(index_of(name));
  if (c == nullptr) return trip(hb);
  std::uint64_t w = c->owner.load(std::memory_order_acquire);
  if (!owned_by(w, hb)) return trip(hb);
  // Monotone push: if the lease was reaped and reissued since w was
  // read, this can only extend the new holder's deadline, never cut it.
  // A self-rebind stamped at now_ticks is covered and skips it: the
  // reaper's max(deadline, beat + ttl) already reaches due, and the
  // acq_rel CAS below orders the stamp before the new owner word, so a
  // reaper that acquires that word reads beat >= now_ticks (one that
  // read the old word fails its CAS). renew, holderless adoption and
  // foreign rebinds still push.
  const std::uint64_t due = now_ticks + ttl_;
  const bool covered = rebind && hb != nullptr &&
                       (w & kHolderMask) == holder_bits(hb) &&
                       hb->stamp() >= now_ticks;
  std::uint64_t d =
      covered ? due : c->deadline.load(std::memory_order_relaxed);
  LOREN_SIM_POINT(rebind ? "lease.rebind" : "lease.renew");
  while (d < due && !c->deadline.compare_exchange_weak(
                        d, due, std::memory_order_relaxed)) {
  }
  // The version bump makes a reaper that read the old deadline fail its
  // expiry CAS; a failed CAS reloads w: the reaper (or another renewer of
  // a holderless lease) moved first — re-check ownership and retry.
  while (owned_by(w, hb) &&
         !c->owner.compare_exchange_weak(
             w, next_word(w, kLive, rebind ? holder_bits(hb) : w & kHolderMask),
             std::memory_order_acq_rel, std::memory_order_acquire)) {
  }
  return owned_by(w, hb) || trip(hb);
}

bool LeaseTable::renew(sim::Name name, std::uint64_t now_ticks,
                       const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  const bool ok = refresh(name, now_ticks, hb, /*rebind=*/false);
  if (stripe != nullptr) stripe->add(ok ? ctr_renewals_ : ctr_guard_trips_);
  return ok;
}

bool LeaseTable::rebind(sim::Name name, std::uint64_t now_ticks,
                        const Heartbeat* hb) {
  return refresh(name, now_ticks, hb, /*rebind=*/true);
}

bool LeaseTable::validate(sim::Name name, const Heartbeat* hb) {
  const Cell* c = cells_.find(index_of(name));
  if (c != nullptr) {
    const std::uint64_t w = c->owner.load(std::memory_order_acquire);
    if ((w & kLive) != 0 && (w & kHolderMask) == holder_bits(hb)) return true;
  }
  return trip(hb);
}

std::size_t LeaseTable::scan(std::uint64_t now_ticks,
                             telemetry::MetricsRegistry::ThreadStripe* stripe) {
  std::size_t reclaimed = 0;
  cells_.for_each([&](std::uint64_t index, Cell& c) {
    std::uint64_t w = c.owner.load(std::memory_order_acquire);
    if ((w & kLive) == 0) return;
    std::uint64_t hb_deadline = 0;
    if (const std::uint64_t h = (w & kHolderMask) >> kHolderShift; h != 0) {
      const Heartbeat* hb = heartbeats_.find(h - 1);
      // mo:relaxed-ok(single-writer heartbeat stamp; a stale read only
      // delays expiry, the max() below can't go early)
      const std::uint64_t beat = hb->last.load(std::memory_order_relaxed);
      if (beat != 0) hb_deadline = beat + ttl_;
    }
    const std::uint64_t eff =
        std::max(c.deadline.load(std::memory_order_relaxed), hb_deadline) +
        grace_;
    if (eff > now_ticks) return;
    LOREN_SIM_POINT("lease.expire");
    // Fails iff a holder op (close, renew, rebind) moved first.
    if (!c.owner.compare_exchange_strong(w, next_word(w, 0, 0),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return;
    }
    expired_.fetch_add(1, std::memory_order_relaxed);
    if (stripe != nullptr) {
      stripe->add(ctr_expired_);
      stripe->record(hist_reap_late_, now_ticks - eff);
    }
    if (reclaim_ != nullptr &&
        reclaim_(reclaim_ctx_, static_cast<sim::Name>(index))) {
      ++reclaimed;
    }
  });
  return reclaimed;
}

std::size_t LeaseTable::reap(std::uint64_t now_ticks,
                             telemetry::MetricsRegistry::ThreadStripe* stripe) {
  LOREN_SIM_POINT("lease.reap");
  return scan(now_ticks, stripe);
}

std::size_t LeaseTable::try_reap(std::uint64_t now_ticks,
                                 telemetry::MetricsRegistry::ThreadStripe* stripe) {
  std::uint64_t due = next_scan_.load(std::memory_order_relaxed);
  if (now_ticks < due) return 0;
  LOREN_SIM_POINT("lease.reap");
  // One claimant per period: the loser's scan would find what the
  // winner's finds.
  if (!next_scan_.compare_exchange_strong(due, now_ticks + scan_period_,
                                          std::memory_order_relaxed)) {
    return 0;
  }
  return scan(now_ticks, stripe);
}

void LeaseTable::clear() {
  cells_.for_each([](std::uint64_t, Cell& c) {
    const std::uint64_t w = c.owner.load(std::memory_order_relaxed);  // mo:relaxed-ok(quiescent reset)
    if ((w & kLive) != 0) c.owner.store(next_word(w, 0, 0), std::memory_order_release);
  });
}

std::uint64_t LeaseTable::leases_live() const {
  std::uint64_t total = 0;
  cells_.for_each([&](std::uint64_t, const Cell& c) {
    total += c.owner.load(std::memory_order_acquire) & kLive;
  });
  return total;
}

std::uint64_t LeaseTable::opened() const {
  // mo:relaxed-ok(holderless tally; exact under quiescence)
  std::uint64_t total = anon_opened_.load(std::memory_order_relaxed);
  heartbeats_.for_each([&](std::uint64_t, const Heartbeat& hb) {
    total += hb.opened.load(std::memory_order_relaxed);
  });
  return total;
}

std::uint64_t LeaseTable::expired() const {
  return expired_.load(std::memory_order_relaxed);
}

std::uint64_t LeaseTable::guard_trips() const {
  std::uint64_t total = anon_trips_.load(std::memory_order_relaxed);
  heartbeats_.for_each([&](std::uint64_t, const Heartbeat& hb) {
    total += hb.guard_trips.load(std::memory_order_relaxed);
  });
  return total;
}

}  // namespace loren::lease
