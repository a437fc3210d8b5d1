#include "lease/lease_table.h"

#include <algorithm>
#include <mutex>
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

/// The CAS loop that ends rebind, renew and validate: moves the owner
/// word to its next version with holder `to(w)`, retrying while the
/// word stays `mine(w)`. The sim point sits between the load and the
/// CAS, where a reaper may slip in. False once the word is not mine.
template <class Mine, class To>
bool advance(std::atomic<std::uint64_t>& owner, [[maybe_unused]] const char* tag,
             Mine mine, To to) {
  std::uint64_t w = owner.load(std::memory_order_acquire);
  LOREN_SIM_POINT(tag);
  while (mine(w) &&
         !owner.compare_exchange_weak(w, next_word(w, kLive, to(w)),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
  }
  return mine(w);
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

bool LeaseTable::renew(sim::Name name, std::uint64_t now_ticks,
                       const Heartbeat* hb,
                       telemetry::MetricsRegistry::ThreadStripe* stripe) {
  Cell* c = cells_.find(index_of(name));
  bool ok = false;
  if (c != nullptr &&
      owned_by(c->owner.load(std::memory_order_acquire), hb)) {
    // Monotone push: if the lease was reaped and reissued since the load
    // above, this can only extend the new holder's deadline, never cut
    // it. The CAS below then bumps the version, so a reaper that read
    // the old deadline fails its expiry CAS.
    const std::uint64_t due = now_ticks + ttl_;
    std::uint64_t d = c->deadline.load(std::memory_order_relaxed);
    // sim:exempt(a monotone max; the owner-word CAS after it is the step the reaper races)
    while (d < due && !c->deadline.compare_exchange_weak(
                          d, due, std::memory_order_relaxed)) {
    }
    ok = advance(c->owner, "lease.renew",
                 [&](std::uint64_t w) { return owned_by(w, hb); },
                 [](std::uint64_t w) { return w & kHolderMask; });
  }
  if (!ok) trip(hb);
  if (stripe != nullptr) stripe->add(ok ? ctr_renewals_ : ctr_guard_trips_);
  return ok;
}

bool LeaseTable::rebind(sim::Name name, const Heartbeat* hb) {
  Cell* c = cells_.find(index_of(name));
  return (c != nullptr &&
          advance(c->owner, "lease.rebind",
                  [&](std::uint64_t w) { return owned_by(w, hb); },
                  [&](std::uint64_t) { return holder_bits(hb); })) ||
         trip(hb);
}

bool LeaseTable::validate(sim::Name name, const Heartbeat* hb) {
  // A CAS, not a load: the version bump makes a reaper that read this
  // word before it (and is about to expire the lease) fail its CAS, so
  // a revalidated name can no longer be reclaimed under its holder.
  Cell* c = cells_.find(index_of(name));
  const std::uint64_t mine = holder_bits(hb);
  return (c != nullptr &&
          advance(c->owner, "lease.validate",
                  [&](std::uint64_t w) {
                    return (w & kLive) != 0 && (w & kHolderMask) == mine;
                  },
                  [&](std::uint64_t) { return mine; })) ||
         trip(hb);
}

std::size_t LeaseTable::scan(std::uint64_t now_ticks,
                             telemetry::MetricsRegistry::ThreadStripe* stripe) {
  const std::uint64_t stale = ttl_ + grace_;
  std::size_t reclaimed = 0;
  cells_.for_each([&](std::uint64_t index, Cell& c) {
    std::uint64_t w = c.owner.load(std::memory_order_acquire);
    if ((w & kLive) == 0) return;
    std::uint64_t due =
        c.deadline.load(std::memory_order_relaxed) + grace_;
    Heartbeat* hb = nullptr;
    std::uint64_t count = 0;
    if (const std::uint64_t h = (w & kHolderMask) >> kHolderShift; h != 0) {
      hb = heartbeats_.find(h - 1);
      count = hb->beats.load(std::memory_order_seq_cst);
      if (count != hb->seen) {
        // The holder ran since the last look (or this is the first):
        // restart its still period. The clock is read after the count,
        // so the record never predates an op it reflects.
        hb->seen = count;
        hb->still_since = clock_();
        return;
      }
      due = std::max(due, hb->still_since + stale);
    }
    if (due > now_ticks) return;
    if (hb != nullptr) {
      // The handshake (see the file comment): doom, then re-load. A
      // holder that bumped before the doom shows here; one that bumps
      // after it sees the doom and revalidates its stash by CAS.
      LOREN_SIM_POINT("lease.doom");
      hb->doomed.store(1, std::memory_order_seq_cst);
      if (hb->beats.load(std::memory_order_seq_cst) != count) return;
    }
    LOREN_SIM_POINT("lease.expire");
    // Fails iff a holder op (close, renew, rebind, validate) moved first.
    if (!c.owner.compare_exchange_strong(w, next_word(w, 0, 0),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return;
    }
    expired_.fetch_add(1, std::memory_order_relaxed);
    if (stripe != nullptr) {
      stripe->add(ctr_expired_);
      stripe->record(hist_reap_late_, now_ticks - due);
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
  const std::lock_guard<SimMutex> lock(scan_mu_);
  return scan(now_ticks, stripe);
}

std::size_t LeaseTable::try_reap(std::uint64_t now_ticks,
                                 telemetry::MetricsRegistry::ThreadStripe* stripe) {
  if (!scan_due(now_ticks)) return 0;
  LOREN_SIM_POINT("lease.reap");
  // One claimant per period, and never a wait: the scan running now
  // finds what this one would.
  const std::unique_lock<SimMutex> lock(scan_mu_, std::try_to_lock);
  if (!lock.owns_lock() || !scan_due(now_ticks)) return 0;
  next_scan_.store(now_ticks + scan_period_, std::memory_order_relaxed);
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
