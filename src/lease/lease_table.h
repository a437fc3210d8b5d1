// LeaseTable: revocable, crash-safe name ownership.
//
// Every name a service hands out under leasing is registered here as a
// lease: (name, holder heartbeat, deadline). A holder that keeps
// operating keeps its leases alive for free — each service op stamps the
// thread's heartbeat cell, and the reaper treats a lease as fresh while
//   max(lease deadline, heartbeat + ttl) + grace > now.
// A holder that crashes, parks, or exits stops stamping; once its leases
// go stale the reaper expires them and hands the names back to the arena
// (via the service's reclaim callback), so the namespace no longer leaks
// under holder death — the liveness gap the renaming papers leave to the
// deployment (see docs/leases.md for the state machine and invariants).
//
// Structure: renaming exists to make names dense small integers, so the
// lease state needs no map. The table is a flat array of per-name cells,
// indexed by the name with the elastic generation stamp (bits >=
// kNameIndexBits) masked off, in chunks created the first time a name in
// their range is leased. Each cell is an owner word {live bit, holder id,
// version} plus an exact 64-bit deadline, padded to its own cache line:
// names interleave shards in their low bits, so neighbouring cells belong
// to other threads' home shards and would otherwise share a line.
//   * open   — a deadline store, then a release store of the owner word;
//   * close  — one CAS of the owner word to dead;
//   * renew / rebind — a monotone deadline push, then one CAS that bumps
//     the version (rebind also installs the new holder id). A self-rebind
//     whose heartbeat is already stamped at the call's tick skips the
//     push: the stamp covers it (see refresh());
//   * expire — the reaper's CAS of the owner word to dead, taken only
//     when max(deadline, heartbeat + ttl) + grace <= now.
// The owner-word CAS orders a holder's op against the reaper: every
// transition bumps the version, so whichever CAS lands second fails and
// re-reads the word. Exactly one of {holder's close(), reaper's expiry}
// moves a live word to dead. The services free an arena cell only after
// winning the close, and the reaper frees it only after winning the
// expiry — so a revived holder's late release is *detected* (close
// fails, the service reports kLeaseExpired / a guard trip), never applied
// to a cell that may already be someone else's. Expiry checks are exact
// at the reaper's read, so a lease can expire late but never early.
//
// The reaper is a scan of the allocated cells. reap() scans on every
// call; try_reap() — the op-path poll — scans only when the shared
// next-scan tick has passed, claiming it by CAS, so op traffic scans
// once per scan period ((ttl + grace) / 16) and an abandoned lease is
// expired at most one scan period after deadline + grace.
//
// Clock domains: ticks come from an injectable clock (LeaseOptions::clock),
// defaulting to telemetry::trace_ticks() — the TSC in production and the
// ScenarioEngine's deterministic step counter under -DLOREN_SIM with an
// engine bound (the same pattern as the adaptive controller). ttl and
// grace are in whatever unit the clock counts.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

#include "platform/cacheline.h"
#include "platform/sim_point.h"
#include "sim/env.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace loren::lease {

/// Name bits the table indexes by. The elastic service's debug release
/// guard stamps its generation at bit 48 and above (kGenStampShift); a
/// name and its stamped form share one lease cell.
inline constexpr unsigned kNameIndexBits = 48;

/// One thread's freshness stamp for one service: every op the thread
/// performs against the service relaxed-stores the current tick here,
/// which renews *all* of that thread's leases at once (the reaper max()es
/// the stamp into every effective deadline). The stamp is also the tick
/// of every lease op later in the same call: the services read the clock
/// once per call, in the stamp. Nodes are owned by the LeaseTable and
/// live as long as it does, so a lease may safely name its holder's
/// heartbeat even after the holder thread exits. A node is presented
/// to the table only by the thread that registered it, which is what
/// makes the tallies below single-writer.
struct alignas(kCacheLine) Heartbeat {
  // mo: relaxed -- single-writer freshness stamp: only the owning thread
  // stores; the reaper tolerates a stale value (staleness can only delay
  // an expiry by one scan, never cause a false one, because the effective
  // deadline is the max of the stamp-derived deadline and the lease's own).
  // A covered rebind relies on it instead of a deadline push; there the
  // rebind's acq_rel owner CAS publishes the stamp, so a reaper that
  // acquires the new owner word reads a stamp at least that recent.
  std::atomic<std::uint64_t> last{0};
  // mo: relaxed -- single-writer tally of leases this holder opened;
  // opened() sums it, exact under quiescence. Mutable: the table counts
  // through the const node its callers present.
  mutable std::atomic<std::uint64_t> opened{0};
  // mo: relaxed -- single-writer tally of this holder's guard trips;
  // guard_trips() sums it, exact under quiescence.
  mutable std::atomic<std::uint64_t> guard_trips{0};
  /// Dense registration id, never reused (the owner word stores id + 1).
  std::uint32_t id = 0;

  /// The latest stamp; exact on the owning thread.
  [[nodiscard]] std::uint64_t stamp() const {
    return last.load(std::memory_order_relaxed);
  }
};

struct LeaseOptions {
  /// Lease lifetime in clock ticks; 0 disables leasing entirely (the
  /// services skip every lease hook — the pre-lease behavior).
  std::uint64_t ttl_ticks = 0;
  /// Extra ticks past the deadline before the reaper may expire: slack
  /// for holders whose heartbeat is coarse (one stamp per op).
  std::uint64_t grace = 0;
  /// Tick source; nullptr selects telemetry::trace_ticks (TSC in
  /// production, the engine step counter under -DLOREN_SIM when bound).
  std::uint64_t (*clock)() = nullptr;
  /// Test knob (default on): when off, the services *ignore* a failed
  /// lease close and release the arena cell anyway — the unguarded
  /// behavior whose ABA corruption scenario_lease_test pins as a real,
  /// reproducible double-grant. Never disable outside tests.
  bool release_guard = true;
};

class LeaseTable {
 public:
  /// Frees the reclaimed cell back into the owning service's arena.
  /// Called after the reaper's expiry CAS won; returns true iff the cell
  /// was actually freed (false indicates the name no longer decodes to a
  /// live cell). The name passed is the cell index: any elastic
  /// generation stamp is not reproduced.
  using ReclaimFn = bool (*)(void* ctx, sim::Name name);

  LeaseTable(const LeaseOptions& opts, telemetry::MetricsRegistry* registry);
  LeaseTable(const LeaseTable&) = delete;
  LeaseTable& operator=(const LeaseTable&) = delete;

  /// One-time wiring by the owning service (before any open()).
  void set_reclaimer(ReclaimFn fn, void* ctx) {
    reclaim_ = fn;
    reclaim_ctx_ = ctx;
  }

  /// One-time per thread; callers cache the node. Nodes are never
  /// deregistered and ids are never reused (same contract as
  /// RegisteredCounter).
  Heartbeat& register_thread();

  [[nodiscard]] std::uint64_t now() const { return clock_(); }
  [[nodiscard]] std::uint64_t ttl() const { return ttl_; }
  [[nodiscard]] std::uint64_t grace_ticks() const { return grace_; }
  [[nodiscard]] std::uint64_t scan_period() const { return scan_period_; }
  [[nodiscard]] bool release_guard() const { return release_guard_; }

  /// Registers a lease on `name` held by `hb` (nullable: a lease with no
  /// heartbeat relies on its deadline alone). Caller has just won the
  /// arena cell, so `name` has no live lease.
  void open(sim::Name name, std::uint64_t now_ticks, const Heartbeat* hb,
            telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// The holder relinquishes the lease (it is about to free the cell).
  /// True iff the lease was live *and bound to `hb`* — false means the
  /// reaper got there first and the caller must NOT free the cell (a
  /// guard trip, counted). The identity check is what defeats same-bits
  /// ABA: a reaped name re-issued to another thread produces a lease
  /// with identical name bits but a different holder, so the revived
  /// original holder's close is rejected instead of silently closing the
  /// new holder's lease. A lease whose hb is null (opened holderless)
  /// may be closed by anyone.
  [[nodiscard]] bool close(sim::Name name, const Heartbeat* hb,
                           telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Explicit renewal: pushes the lease's own deadline to now + ttl.
  /// False (a guard trip) if the lease no longer exists or is bound to a
  /// different holder (same ABA rule as close()).
  [[nodiscard]] bool renew(sim::Name name, std::uint64_t now_ticks,
                           const Heartbeat* hb,
                           telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Refreshes the deadline of a lease this holder owns (or re-homes a
  /// holderless one onto `hb`) — the stash-absorb hook. Same identity
  /// rule as close(): a lease bound to a *different* live holder is not
  /// stealable; false is a counted guard trip and the caller must not
  /// absorb the name. A lease already bound to `hb` whose stamp is at
  /// least `now_ticks` keeps its deadline: the stamp covers it.
  [[nodiscard]] bool rebind(sim::Name name, std::uint64_t now_ticks,
                            const Heartbeat* hb);

  /// True iff a lease on `name` exists and is held by `hb` — the stash
  /// revalidation probe a thread runs after noticing its own heartbeat
  /// went stale (its stashed names may have been reaped and reissued).
  /// A mismatch is counted as a guard trip.
  [[nodiscard]] bool validate(sim::Name name, const Heartbeat* hb);

  /// Whether the op-path poll would scan now: one relaxed load, so the
  /// services can skip try_reap (and any pin it needs) between scans.
  [[nodiscard]] bool scan_due(std::uint64_t now_ticks) const {
    // mo:relaxed-ok(a hint: try_reap claims the scan with a CAS)
    return now_ticks >= next_scan_.load(std::memory_order_relaxed);
  }

  /// Expires every stale lease and reclaims its cell via the callback.
  /// Returns the number of cells reclaimed. reap() always scans;
  /// try_reap() scans only if it claims the next scan period (one CAS),
  /// so concurrent pollers scan once per period between them.
  std::size_t reap(std::uint64_t now_ticks,
                   telemetry::MetricsRegistry::ThreadStripe* stripe);
  std::size_t try_reap(std::uint64_t now_ticks,
                       telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Drops every lease without reclaiming (the service reset path: the
  /// arena epoch bump already freed every cell). Requires quiescence.
  void clear();

  // Exact under quiescence.
  [[nodiscard]] std::uint64_t leases_live() const;
  [[nodiscard]] std::uint64_t opened() const;
  [[nodiscard]] std::uint64_t expired() const;
  [[nodiscard]] std::uint64_t guard_trips() const;

 private:
  /// A lazily grown array indexed by a dense integer below 2^63. Chunk k
  /// holds 2^(kBaseBits + k) elements and covers indices
  /// [2^kBaseBits * (2^k - 1), 2^kBaseBits * (2^(k+1) - 1)), so the chunk
  /// table is a fixed array of pointers and a chunk is created — zeroed, by
  /// CAS — the first time an index lands in it. Elements never move, and
  /// memory is proportional to the largest index used.
  template <class T, unsigned kBaseBits>
  class LazyDir {
   public:
    LazyDir() = default;
    LazyDir(const LazyDir&) = delete;
    LazyDir& operator=(const LazyDir&) = delete;
    ~LazyDir() {
      for (auto& c : chunks_) {
        delete[] c.load(std::memory_order_relaxed);  // mo:relaxed-ok(dtor: no concurrent access)
      }
    }

    /// Element i, or nullptr if its chunk was never created.
    [[nodiscard]] T* find(std::uint64_t i) const {
      const unsigned k = chunk_of(i);
      T* c = chunks_[k].load(std::memory_order_acquire);
      return c == nullptr ? nullptr : c + (i - first_of(k));
    }

    /// Element i, creating its chunk on first use.
    T& at(std::uint64_t i) {
      const unsigned k = chunk_of(i);
      T* c = chunks_[k].load(std::memory_order_acquire);
      if (c == nullptr) {
        T* fresh = new T[std::uint64_t{1} << (kBaseBits + k)]();
        LOREN_SIM_POINT("lease.grow");
        if (chunks_[k].compare_exchange_strong(c, fresh,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          c = fresh;
        } else {
          delete[] fresh;  // another thread created it first
        }
      }
      return c[i - first_of(k)];
    }

    /// Calls f(index, element) for every element of every created chunk.
    template <class F>
    void for_each(F&& f) const {
      for (unsigned k = 0; k < kChunks; ++k) {
        T* c = chunks_[k].load(std::memory_order_acquire);
        if (c == nullptr) continue;
        const std::uint64_t n = std::uint64_t{1} << (kBaseBits + k);
        for (std::uint64_t j = 0; j < n; ++j) f(first_of(k) + j, c[j]);
      }
    }

   private:
    static constexpr unsigned kChunks = 64 - kBaseBits;
    static unsigned chunk_of(std::uint64_t i) {
      return static_cast<unsigned>(std::bit_width((i >> kBaseBits) + 1)) - 1;
    }
    static std::uint64_t first_of(unsigned k) {
      return ((std::uint64_t{1} << k) - 1) << kBaseBits;
    }

    // mo: acquire, release -- chunk publication: at() CAS-installs a zeroed
    // chunk (acq_rel) and every reader acquires before touching elements.
    std::atomic<T*> chunks_[kChunks] = {};
  };

  // One line per cell: cell i and i + 1 are names of different shards,
  // so packing them would false-share between home-shard threads.
  struct alignas(kCacheLine) Cell {
    // mo: acquire, release -- the owner word {live, holder, version}:
    // every transition is a release store (open) or an acq_rel CAS;
    // readers acquire it before trusting the deadline.
    std::atomic<std::uint64_t> owner{0};
    // mo: relaxed -- exact deadline; published by the owner-word release
    // that follows every write of it.
    std::atomic<std::uint64_t> deadline{0};
  };

  /// The renew/rebind body: a monotone deadline push, then the owner CAS.
  bool refresh(sim::Name name, std::uint64_t now_ticks, const Heartbeat* hb,
               bool rebind);
  /// Counts one event on the caller's own heartbeat tally (`own`), or on
  /// the shared `anon` tally when the caller is holderless (own null).
  static void tally(std::atomic<std::uint64_t>* own,
                    std::atomic<std::uint64_t>& anon);
  /// Counts a guard trip against `hb` and returns false.
  bool trip(const Heartbeat* hb);
  std::size_t scan(std::uint64_t now_ticks,
                   telemetry::MetricsRegistry::ThreadStripe* stripe);

  std::uint64_t ttl_;
  std::uint64_t grace_;
  std::uint64_t scan_period_;
  std::uint64_t (*clock_)();
  bool release_guard_;

  ReclaimFn reclaim_ = nullptr;
  void* reclaim_ctx_ = nullptr;

  LazyDir<Cell, 6> cells_;  // first chunk: 64 cells, one 4 KiB page
  LazyDir<Heartbeat, 6> heartbeats_;

  // mo: relaxed -- the op-path scan gate: it only elects who scans when;
  // the scan itself synchronizes per cell through the owner words.
  alignas(kCacheLine) std::atomic<std::uint64_t> next_scan_{0};
  // mo: relaxed -- heartbeat id allocator; the chunk CAS publishes nodes.
  alignas(kCacheLine) std::atomic<std::uint64_t> next_id_{0};
  // mo: relaxed -- reaper-side expiry tally (a scan, never a holder op).
  std::atomic<std::uint64_t> expired_{0};
  // mo: relaxed -- tallies for holderless (null-heartbeat) callers only;
  // the services always present a heartbeat.
  std::atomic<std::uint64_t> anon_opened_{0};
  // mo: relaxed -- same holderless-only contract as anon_opened_.
  std::atomic<std::uint64_t> anon_trips_{0};

  // Telemetry ids (sink-mapped when no registry is attached).
  telemetry::MetricsRegistry* registry_;
  telemetry::MetricId ctr_opened_{0};
  telemetry::MetricId ctr_closed_{0};
  telemetry::MetricId ctr_expired_{0};
  telemetry::MetricId ctr_renewals_{0};
  telemetry::MetricId ctr_guard_trips_{0};
  telemetry::MetricId hist_reap_late_{0};
};

}  // namespace loren::lease
