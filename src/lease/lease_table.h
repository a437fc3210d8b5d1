// LeaseTable: revocable, crash-safe name ownership.
//
// Every name a service hands out under leasing is registered here as a
// lease: (name, holder heartbeat, deadline). A holder that keeps
// operating keeps its leases alive for free: each service call bumps
// the thread's heartbeat count, and the reaper expires a lease only
// after its holder's count stood still for ttl + grace ticks of reaper
// time. A holder that crashes, parks, or exits stops counting; the
// reaper then expires its leases and hands the names back to the arena
// (via the service's reclaim callback), so the namespace no longer leaks
// under holder death — the liveness gap the renaming papers leave to the
// deployment (see docs/leases.md for the state machine and invariants).
//
// No clock on the holder's path. This is the classical heartbeat
// failure detector: holders count, the detector keeps the time. Each
// call is one seq_cst RMW on the holder's own Heartbeat line plus one
// load of its reaper-set `doomed` word. The reaper alone reads the clock
// and keeps, per heartbeat, the count it last saw and the tick it first
// saw it (`seen`, `still_since`). It expires a heartbeat-bound lease
// only when, in this order:
//   1. the cell's owner word is loaded (acquire) and live;
//   2. the count still equals `seen` and has since `still_since + ttl +
//      grace <= now` (a moved count resets the record instead);
//   3. the deadline, if renew() pushed one, has passed grace ago;
//   4. after a seq_cst store of `doomed`, a seq_cst re-load of the count
//      still equals `seen`;
//   5. the CAS of the owner word from step 1 to dead succeeds.
// The holder's bump-then-load and the reaper's doom-then-reload are a
// store-load (Dekker) pair, which seq_cst orders: in the single total
// order either the reload sees the bump (the reaper skips) or the
// holder's load sees the doom, and the holder then revalidates every
// stashed name by an owner-word CAS (validate()). That CAS bumps the
// version, and the reaper's step-1 word precedes it (the acquire in step
// 1 would otherwise order the holder's bump before the reload), so the
// reaper's step-5 CAS fails. The owner-word CAS still decides every
// holder-vs-reaper race.
//
// Structure: renaming exists to make names dense small integers, so the
// lease state needs no map. The table is a flat array of per-name cells,
// indexed by the name with the elastic generation stamp (bits >=
// kNameIndexBits) masked off, in chunks created the first time a name in
// their range is leased. Each cell is an owner word {live bit, holder id,
// version} plus an exact 64-bit deadline, padded to its own cache line:
// names interleave shards in their low bits, so neighbouring cells belong
// to other threads' home shards and would otherwise share a line.
//   * open     — a deadline store, then a release store of the owner word;
//   * close    — one CAS of the owner word to dead;
//   * renew    — a monotone deadline push (the caller's tick + ttl), then
//     one CAS that bumps the version;
//   * rebind / validate — one CAS that bumps the version (rebind also
//     installs the new holder id);
//   * expire   — the reaper's CAS of the owner word to dead (steps above).
// Every transition bumps the version, so whichever CAS lands second
// fails and re-reads the word. Exactly one of {holder's close(),
// reaper's expiry} moves a live word to dead. The services free an arena
// cell only after winning the close, and the reaper frees it only after
// winning the expiry — so a revived holder's late release is *detected*
// (close fails, the service reports kLeaseExpired / a guard trip), never
// applied to a cell that may already be someone else's.
//
// The deadline binds a holderless lease (opened with a null heartbeat)
// and a renewed one; a heartbeat-bound lease opened by a service has a
// vacuous deadline, since the services read no clock to open it.
//
// The reaper is a scan of the allocated cells, serialized by a SimMutex
// (a scan may be stalled at a sim point; SimMutex waiters keep
// yielding to the engine, and the op-path poll only try-locks). reap()
// scans on every call; try_reap() — the op-path poll — scans only when
// the shared next-scan tick has passed, so op traffic scans once per
// scan period ((ttl + grace) / 16). The services sample the clock for
// that poll on one call in kScanSampleEvery of each holder's count.
// Expiry needs two observations ttl + grace apart, so an abandoned lease
// is expired at most ttl + grace plus two scan periods after its
// holder's last op while scans run, and an explicit reap() after an idle
// period only observes: a second call ttl + grace later expires.
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

/// How often the op path samples the clock for the reaper's scan gate:
/// on one call in kScanSampleEvery of each heartbeat's count.
inline constexpr std::uint64_t kScanSampleEvery = 64;

/// One thread's liveness count for one service: every call the thread
/// makes to the service bumps it, which keeps *all* of that thread's
/// leases alive at once. Nodes are owned by the LeaseTable and live as
/// long as it does, so a lease may safely name its holder's heartbeat
/// even after the holder thread exits. A node is presented to the table
/// only by the thread that registered it, which is what makes the
/// tallies below single-writer.
struct alignas(kCacheLine) Heartbeat {
  /// What one call's beat() saw: the count before the call, and whether
  /// the reaper had doomed this heartbeat.
  struct Beat {
    std::uint64_t count;
    bool doomed;
  };

  // mo: seq_cst -- the holder's call count: one seq_cst RMW per call,
  // then a seq_cst load of `doomed`; the reaper stores `doomed`, then
  // re-loads the count, both seq_cst. Each side stores then loads, and
  // only seq_cst forbids both loads missing the other side's store (see
  // the file comment); a relaxed or release bump would let the reaper's
  // re-load miss it while the holder's load misses the doom.
  std::atomic<std::uint64_t> beats{0};
  // mo: seq_cst -- set by the reaper before its final count re-load,
  // loaded and cleared by the holder after its bump: the other half of
  // the store-load handshake on `beats`.
  std::atomic<std::uint32_t> doomed{0};
  /// Dense registration id, never reused (the owner word stores id + 1).
  std::uint32_t id = 0;
  // mo: relaxed -- single-writer tally of leases this holder opened;
  // opened() sums it, exact under quiescence. Mutable: the table counts
  // through the const node its callers present.
  mutable std::atomic<std::uint64_t> opened{0};
  // mo: relaxed -- single-writer tally of this holder's guard trips;
  // guard_trips() sums it, exact under quiescence.
  mutable std::atomic<std::uint64_t> guard_trips{0};
  /// The reaper's record, touched only by scans (which the table's scan
  /// lock serializes): the count the reaper last saw, and the reaper tick
  /// at which it first saw that count.
  std::uint64_t seen = ~std::uint64_t{0};
  std::uint64_t still_since = 0;

  /// The holder's per-call heartbeat: bumps the count, then takes the
  /// doom. A doomed caller must revalidate every name it parked (stash)
  /// with LeaseTable::validate before handing one out: the reaper may
  /// have expired it.
  Beat beat() {
    const std::uint64_t count = beats.fetch_add(1, std::memory_order_seq_cst);
    LOREN_SIM_POINT("lease.beat");
    if (doomed.load(std::memory_order_seq_cst) == 0) return {count, false};
    // Cleared before the caller revalidates, so a doom stored during the
    // revalidation is seen by the next call.
    doomed.store(0, std::memory_order_seq_cst);
    return {count, true};
  }
};

struct LeaseOptions {
  /// Lease lifetime in clock ticks; 0 disables leasing entirely (the
  /// services skip every lease hook — the pre-lease behavior).
  std::uint64_t ttl_ticks = 0;
  /// Extra ticks past ttl (of a still count, or of a deadline) before the
  /// reaper may expire: slack for holders that pause between calls.
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

  /// Registers a lease on `name` held by `hb` (nullable). Its deadline is
  /// `now_ticks + ttl`, which alone bounds a holderless lease; a lease
  /// bound to a heartbeat lives while the heartbeat's count moves, so a
  /// caller with a heartbeat may pass 0 (the services read no clock).
  /// Caller has just won the arena cell, so `name` has no live lease.
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

  /// Explicit renewal: pushes the lease's own deadline to now + ttl, so
  /// it outlives ttl + grace even if the holder's count stops. False (a
  /// guard trip) if the lease no longer exists or is bound to a
  /// different holder (same ABA rule as close()).
  [[nodiscard]] bool renew(sim::Name name, std::uint64_t now_ticks,
                           const Heartbeat* hb,
                           telemetry::MetricsRegistry::ThreadStripe* stripe);

  /// Binds a lease this holder owns (or a holderless one) to `hb` — the
  /// stash-absorb hook, one owner-word CAS. Same identity rule as
  /// close(): a lease bound to a *different* live holder is not
  /// stealable; false is a counted guard trip and the caller must not
  /// absorb the name.
  [[nodiscard]] bool rebind(sim::Name name, const Heartbeat* hb);

  /// True iff a lease on `name` exists and is held by `hb` — the stash
  /// revalidation a doomed holder runs before handing a parked name out
  /// (its stashed names may have been reaped and reissued). One
  /// owner-word CAS that bumps the version, so a reaper that read the
  /// word first fails its expiry CAS: exactly one of the two wins. A
  /// mismatch is counted as a guard trip.
  [[nodiscard]] bool validate(sim::Name name, const Heartbeat* hb);

  /// Whether the op-path poll would scan now: one relaxed load, so the
  /// services can skip try_reap (and any pin it needs) between scans.
  [[nodiscard]] bool scan_due(std::uint64_t now_ticks) const {
    // mo:relaxed-ok(a hint: try_reap claims the scan with a CAS)
    return now_ticks >= next_scan_.load(std::memory_order_relaxed);
  }

  /// Expires every stale lease and reclaims its cell via the callback.
  /// Returns the number of cells reclaimed. reap() always scans, waiting
  /// out a scan in progress; try_reap() scans only if the next scan
  /// period is due and no scan is running, so concurrent pollers scan
  /// once per period between them. A heartbeat-bound lease needs two
  /// scans ttl + grace apart: the first observes its holder's count.
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
    // readers acquire it before trusting the deadline, and the reaper's
    // acquire load precedes its count re-load (see the file comment).
    std::atomic<std::uint64_t> owner{0};
    // mo: relaxed -- exact deadline; published by the owner-word release
    // that follows every write of it.
    std::atomic<std::uint64_t> deadline{0};
  };

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

  // Serializes scans: the per-heartbeat records are the scan's own
  // state. A SimMutex, because a scan may be stalled at lease.expire.
  SimMutex scan_mu_;
  // mo: relaxed -- the op-path scan gate: it only elects when to scan;
  // it is written under scan_mu_, and the scan itself synchronizes per
  // cell through the owner words.
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
