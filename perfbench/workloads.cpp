#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>

#include "elastic/elastic_service.h"
#include "platform/cacheline.h"
#include "renaming/service.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace {

using loren::sim::Name;

/// Every 16th call on a thread is timed (and, when tracing, spanned).
constexpr std::uint32_t kSampleMask = 15;
constexpr std::size_t kSpanCap = std::size_t{1} << 14;
constexpr std::uint32_t kMaxBatch = 16;
/// Reclaim passes after a shrink before the cycle moves on: a retired
/// group needs its drain, one quiescence, an unlink and a second one.
constexpr int kReclaimPasses = 64;

template <class Svc>
struct Traits;

template <>
struct Traits<loren::RenamingService> {
  static constexpr const char* kAcquire = "renaming.acquire";
  static constexpr const char* kAcquireMany = "renaming.acquire_many";
  static constexpr const char* kRelease = "renaming.release";
  static constexpr const char* kReleaseMany = "renaming.release_many";
  static constexpr const char* kMetricPrefix = "service.";
  static std::uint64_t local(Name n) { return static_cast<std::uint64_t>(n); }
};

template <>
struct Traits<loren::ElasticRenamingService> {
  static constexpr const char* kAcquire = "elastic.acquire";
  static constexpr const char* kAcquireMany = "elastic.acquire_many";
  static constexpr const char* kRelease = "elastic.release";
  static constexpr const char* kReleaseMany = "elastic.release_many";
  static constexpr const char* kMetricPrefix = "elastic.";
  // Elastic names carry the generation tag in their low bits
  // (docs/architecture.md): the group-local name is name >> kTagBits.
  static std::uint64_t local(Name n) {
    return static_cast<std::uint64_t>(n) >>
           loren::ElasticRenamingService::kTagBits;
  }
};

/// One worker thread's (or, for crash-churn, one holder slot's) record.
/// Its counters are written on every call, so records of different
/// threads never share a cache line (or the adjacent-line prefetch pair).
struct alignas(2 * loren::kCacheLine) Worker {
  std::uint32_t id = 0;
  std::uint32_t round = 0;
  std::uint64_t names = 0, calls = 0, acquire_calls = 0;
  Failures fail;
  std::uint64_t max_plus1 = 0;  // highest decoded name + 1
  std::uint32_t acq_tick = 0, rel_tick = 0;  // per-surface sampling phase
  LatencyHist acq, rel;
  History hist;
  SpanBuffer spans;
  std::int32_t parent = -1;  // span index enclosing the current calls
  double prefill_s = 0;
  Clock::time_point start{}, end{};
  std::vector<double> resize_s;

  Worker(std::uint32_t i, std::uint32_t r, const Variant& v)
      : id(i), round(r), spans(v.spans ? kSpanCap : 0) {}

  std::int32_t open_span(const char* name) {
    return spans.add({name, ticks(), 0, parent, round, id});
  }
  void close_span(std::int32_t idx) {
    if (idx >= 0) spans.at(static_cast<std::size_t>(idx)).end = ticks();
  }
};

/// The benchmark's calls into a service: sampled timing, failure
/// accounting by cause, the namespace high-water mark, and (per variant)
/// spans and the op history. `counting` is off for prefill and teardown,
/// which are logged for the checker but are not timed work.
template <class Svc>
class Client {
 public:
  Client(Svc& svc, Worker& w, const Variant& v) : svc_(svc), w_(w), v_(v) {}

  bool counting = true;

  std::uint32_t acquire(std::uint32_t k, Name* out) {
    if (k == 0) return 0;
    const bool sampled = counting && (w_.acq_tick++ & kSampleMask) == 0;
    const std::int64_t wall0 = v_.log_history ? wall_ns() : 0;
    const std::uint64_t t0 = sampled ? ticks() : 0;
    std::uint32_t got = 0;
    if (k == 1) {
      const Name n = svc_.acquire();
      if (n >= 0) {
        out[0] = n;
        got = 1;
      } else if (counting) {
        note_code(n);
      }
    } else {
      got = static_cast<std::uint32_t>(svc_.acquire_many(k, out));
      if (got < k && counting) ++w_.fail.short_batches;
    }
    if (sampled) {
      const std::uint64_t t1 = ticks();
      w_.acq.record(t1 - t0);
      if (v_.spans) {
        w_.spans.add({k == 1 ? Traits<Svc>::kAcquire : Traits<Svc>::kAcquireMany,
                      t0, t1, w_.parent, w_.round, w_.id});
      }
    }
    if (counting) {
      ++w_.calls;
      ++w_.acquire_calls;
      w_.names += got;
    }
    for (std::uint32_t i = 0; i < got; ++i) {
      w_.max_plus1 = std::max(w_.max_plus1, Traits<Svc>::local(out[i]) + 1);
    }
    if (v_.log_history) log(out, got, wall0, OpKind::kAcquire);
    return got;
  }

  void release(const Name* names, std::uint32_t k) {
    if (k == 0) return;
    const bool sampled = counting && (w_.rel_tick++ & kSampleMask) == 0;
    const std::int64_t wall0 = v_.log_history ? wall_ns() : 0;
    const std::uint64_t t0 = sampled ? ticks() : 0;
    const std::uint64_t freed =
        k == 1 ? (svc_.release(names[0]) ? 1 : 0) : svc_.release_many(names, k);
    if (sampled) {
      const std::uint64_t t1 = ticks();
      w_.rel.record(t1 - t0);
      if (v_.spans) {
        w_.spans.add({k == 1 ? Traits<Svc>::kRelease : Traits<Svc>::kReleaseMany,
                      t0, t1, w_.parent, w_.round, w_.id});
      }
    }
    if (counting) {
      ++w_.calls;
      w_.names += freed;
      w_.fail.false_releases += k - freed;
    }
    if (v_.log_history) log(names, k, wall0, OpKind::kRelease);
  }

  /// The holder exits holding `names` (crash-churn).
  void abandon(const Name* names, std::uint32_t k) {
    if (v_.log_history) log(names, k, wall_ns(), OpKind::kAbandon);
  }

 private:
  void note_code(Name n) {
    using R = loren::AcquireResult;
    if (n == loren::to_name(R::kExhausted)) {
      ++w_.fail.exhausted;
    } else if (n == loren::to_name(R::kSweepBudgetExhausted)) {
      ++w_.fail.sweep_budget;
    } else if (n == loren::to_name(R::kShed)) {
      ++w_.fail.shed;
    } else if (n == loren::to_name(R::kLeaseExpired)) {
      ++w_.fail.lease_expired;
    } else {
      ++w_.fail.other_code;
    }
  }

  void log(const Name* names, std::uint32_t k, std::int64_t wall0, OpKind kind) {
    const std::int64_t wall1 = wall_ns();
    for (std::uint32_t i = 0; i < k; ++i) {
      w_.hist.push_back({wall0, wall1, names[i], kind});
    }
  }

  Svc& svc_;
  Worker& w_;
  const Variant& v_;
};

template <class Opts>
void configure(Opts& o, const Variant& v, loren::telemetry::MetricsRegistry* reg) {
  o.name_cache = v.name_cache;
  if (v.leases) {
    o.lease.ttl_ticks = kLeaseTtl;
    o.lease.grace = kLeaseGrace;
  }
  o.telemetry.registry = reg;
  if (v.control_observe) o.control.mode = loren::control::ControlMode::kObserve;
}

/// Owns the optional attached registry and the service, in that order, so
/// the registry outlives the service.
template <class Svc>
struct Rig {
  std::unique_ptr<loren::telemetry::MetricsRegistry> registry;
  std::unique_ptr<Svc> svc;
  double construct_s = 0;

  Rig(std::uint64_t n, const Variant& v) {
    if (v.registry) {
      registry = std::make_unique<loren::telemetry::MetricsRegistry>();
    }
    const auto t0 = Clock::now();
    if constexpr (std::is_same_v<Svc, loren::RenamingService>) {
      loren::RenamingServiceOptions o;
      configure(o, v, registry.get());
      svc = std::make_unique<Svc>(n, o);
    } else {
      loren::ElasticOptions o;
      configure(o, v, registry.get());
      svc = std::make_unique<Svc>(n, o);
    }
    construct_s = seconds_since(t0);
  }
};

void fail_round(RoundResult& r, const std::string& why) {
  if (r.ok) {
    r.ok = false;
    r.error = why;
  }
}

/// Folds the workers into the round result and reads the service's layer
/// counters; every worker has joined and flushed.
template <class Svc>
void collect(RoundResult& r, std::vector<std::unique_ptr<Worker>>& workers,
             Svc& svc, const Variant& v) {
  Clock::time_point start = Clock::time_point::max();
  Clock::time_point end = Clock::time_point::min();
  double prefill = 0;
  for (auto& wp : workers) {
    Worker& w = *wp;
    start = std::min(start, w.start);
    end = std::max(end, w.end);
    prefill = std::max(prefill, w.prefill_s);
    r.names += w.names;
    r.calls += w.calls;
    r.acquire_calls += w.acquire_calls;
    r.fail.add(w.fail);
    r.acquire.merge(w.acq);
    r.release.merge(w.rel);
    r.max_local = std::max(r.max_local, w.max_plus1 == 0 ? 0 : w.max_plus1 - 1);
    r.resize_s.insert(r.resize_s.end(), w.resize_s.begin(), w.resize_s.end());
    if (v.log_history) r.histories.push_back(std::move(w.hist));
    if (v.spans) r.spans.push_back(w.spans.spans());
  }
  r.timed_s = std::chrono::duration<double>(end - start).count();
  r.setup_s += prefill;
  r.fail.guard_trips += svc.lease_guard_trips();
  r.lease_expired = svc.lease_expired();
  r.cache_hits = svc.cache_hits();
  r.cache_misses = svc.cache_misses();
  const loren::telemetry::MetricsSnapshot snap = svc.metrics_registry().snapshot();
  const std::string p = Traits<Svc>::kMetricPrefix;
  auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto* c = snap.counter(p + name);
    return c != nullptr ? c->value : 0;
  };
  auto hist = [&](const std::string& name) {
    return snap.histogram(p + name);
  };
  r.stash_spills = counter("stash.spills");
  r.stash_flushes = counter("stash.flushes");
  r.sweeps = counter("sweep.invocations");
  r.migrations = counter("shard.migrations");
  if (const auto* h = hist("acquire.probe_len"); h != nullptr && h->count > 0) {
    r.probe_len_p50 = static_cast<double>(h->p50());
    r.probe_len_p99 = static_cast<double>(h->p99());
  }
  if (const auto* h = hist("acquire.lost_races"); h != nullptr && h->count > 0) {
    r.lost_races_p99 = static_cast<double>(h->p99());
  }
  if (const auto* h = hist("reclaim.quiesce_ticks"); h != nullptr && h->count > 0) {
    r.quiesce_p99_ticks = static_cast<double>(h->p99());
  }
}

/// End-state checks shared by every workload: nothing held once every
/// stash is flushed, no lease left open, every name inside the bound.
template <class Svc>
void check_end_state(RoundResult& r, Svc& svc, std::uint64_t leaked) {
  if (svc.names_live() != leaked) {
    fail_round(r, "names_live() is " + std::to_string(svc.names_live()) +
                      " after the round, expected " + std::to_string(leaked));
  }
  if (svc.leases_live() != 0) {
    fail_round(r, "leases_live() is " + std::to_string(svc.leases_live()) +
                      " after the final reap");
  }
  if (r.max_local >= r.bound) {
    fail_round(r, "name " + std::to_string(r.max_local) +
                      " outside the namespace bound " + std::to_string(r.bound));
  }
}

std::vector<std::unique_ptr<Worker>> make_workers(unsigned n, std::uint32_t round,
                                                  const Variant& v) {
  std::vector<std::unique_ptr<Worker>> out;
  for (unsigned i = 0; i < n; ++i) out.push_back(std::make_unique<Worker>(i, round, v));
  return out;
}

// ---------------------------------------------------------- pool-churn --

RoundResult run_pool(const Script& script, const Shape& shape, unsigned workers,
                     const Variant& v, std::uint32_t round) {
  using Svc = loren::RenamingService;
  RoundResult r;
  Rig<Svc> rig(shape.service_n, v);
  Svc& svc = *rig.svc;
  auto ws = make_workers(workers, round, v);
  SpinBarrier go(workers);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = *ws[t];
      const std::vector<std::uint8_t>& steps = script.workers[t].pool;
      Client<Svc> c(svc, w, v);
      constexpr std::uint32_t kMask = 127;  // FIFO ring; window + batch < 128
      std::array<Name, kMask + 1> fifo{};
      std::uint32_t head = 0, size = 0;
      Name tmp[kMaxBatch];
      const auto p0 = Clock::now();
      c.counting = false;
      size = c.acquire(kPoolWindow, fifo.data());
      c.counting = true;
      w.prefill_s = seconds_since(p0);
      go.wait();
      w.start = Clock::now();
      const std::int32_t round_span = w.open_span("round");
      w.parent = round_span;
      for (std::uint32_t i = 0; i < shape.pool_steps; ++i) {
        const std::uint32_t got = c.acquire(steps[i & (kPoolScriptSteps - 1)], tmp);
        for (std::uint32_t j = 0; j < got; ++j) fifo[(head + size++) & kMask] = tmp[j];
        if (size > kPoolWindow) {
          const std::uint32_t out = size - kPoolWindow;
          for (std::uint32_t j = 0; j < out; ++j) tmp[j] = fifo[(head + j) & kMask];
          head += out;
          size -= out;
          c.release(tmp, out);
        }
      }
      w.close_span(round_span);
      w.end = Clock::now();
      c.counting = false;
      while (size > 0) {
        const std::uint32_t out = std::min(size, kMaxBatch);
        for (std::uint32_t j = 0; j < out; ++j) tmp[j] = fifo[(head + j) & kMask];
        head += out;
        size -= out;
        c.release(tmp, out);
      }
      svc.flush_thread_cache();
    });
  }
  for (auto& th : threads) th.join();
  r.setup_s = rig.construct_s;
  r.sized_for = shape.service_n;
  r.bound = r.name_bound = svc.capacity();
  collect(r, ws, svc, v);
  check_end_state(r, svc, 0);
  return r;
}

// ------------------------------------------- fill-drain and burst-grow --

template <class Svc>
RoundResult run_cycles(const Script& script, const Shape& shape, unsigned workers,
                       const Variant& v, std::uint32_t round) {
  constexpr bool kElastic = std::is_same_v<Svc, loren::ElasticRenamingService>;
  RoundResult r;
  Rig<Svc> rig(shape.service_n, v);
  Svc& svc = *rig.svc;
  auto ws = make_workers(workers, round, v);
  SpinBarrier bar(workers);
  std::uint64_t peak_holders = shape.service_n;
  std::uint64_t peak_bound = svc.capacity();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = *ws[t];
      const WorkerScript& script_t = script.workers[t];
      Client<Svc> c(svc, w, v);
      std::vector<Name> held(script_t.cycles.front().order.size());
      Name tmp[kMaxBatch];
      bar.wait();
      w.start = Clock::now();
      const std::int32_t round_span = w.open_span("round");
      w.parent = round_span;
      for (std::uint32_t cycle = 0; cycle < shape.cycles; ++cycle) {
        const CycleScript& cs = script_t.cycles[cycle % script_t.cycles.size()];
        std::uint32_t n = 0;
        for (const std::uint8_t b : cs.fill) n += c.acquire(b, held.data() + n);
        bar.wait();
        if constexpr (kElastic) {
          if (t == 0) {
            peak_holders = std::max(peak_holders, svc.holders());
            peak_bound = std::max(peak_bound, svc.capacity());
          }
        }
        std::size_t pos = 0;
        for (const std::uint8_t b : cs.drain) {
          std::uint32_t m = 0;
          for (std::uint32_t j = 0; j < b; ++j) {
            const std::uint32_t idx = cs.order[pos++];
            if (idx < n) tmp[m++] = held[idx];
          }
          c.release(tmp, m);
        }
        if constexpr (kElastic) {
          // A retired generation drains only once the names parked in
          // stashes go back to it.
          svc.flush_thread_cache();
          bar.wait();
          if (t == 0) {
            const std::int32_t s = w.open_span("elastic.resize+reclaim");
            const auto r0 = Clock::now();
            svc.resize(shape.service_n);
            for (int i = 0; i < kReclaimPasses; ++i) {
              if (svc.reclaim() == 0 && svc.groups_in_flight() == 1) break;
            }
            w.resize_s.push_back(seconds_since(r0));
            w.close_span(s);
          }
        }
        bar.wait();
      }
      w.close_span(round_span);
      w.end = Clock::now();
      svc.flush_thread_cache();
    });
  }
  for (auto& th : threads) th.join();
  r.setup_s = rig.construct_s;
  r.sized_for = peak_holders;
  r.name_bound = peak_bound;
  r.bound = kElastic ? peak_bound >> loren::ElasticRenamingService::kTagBits
                     : peak_bound;
  collect(r, ws, svc, v);
  if constexpr (kElastic) {
    r.grows = svc.grow_events();
    r.shrinks = svc.shrink_events();
    r.reclaimed = svc.reclaimed_groups();
  }
  check_end_state(r, svc, 0);
  return r;
}

// --------------------------------------------------------- crash-churn --

RoundResult run_crash(const Script& script, const Shape& shape, unsigned workers,
                      const Variant& v, std::uint32_t round) {
  using Svc = loren::RenamingService;
  RoundResult r;
  Rig<Svc> rig(shape.service_n, v);
  Svc& svc = *rig.svc;
  auto slots = make_workers(workers, round, v);
  std::atomic<std::uint64_t> abandoned{0};
  const auto start = Clock::now();
  for (auto& w : slots) w->start = start;
  std::vector<std::thread> threads(workers);
  for (std::uint32_t i = 0; i < shape.lifetimes; ++i) {
    const unsigned slot = i % workers;
    if (threads[slot].joinable()) threads[slot].join();
    threads[slot] = std::thread([&, i, slot] {
      Worker& w = *slots[slot];
      const LifetimeScript& life = script.lifetimes[i];
      Client<Svc> c(svc, w, v);
      const std::int32_t life_span = w.open_span("thread.lifetime");
      w.parent = life_span;
      Name ring[kRing];
      const std::uint32_t got0 = c.acquire(kRing, ring);
      for (std::uint32_t j = got0; j < kRing; ++j) ring[j] = -1;
      std::uint32_t pos = 0;
      Name tmp[kRing];
      for (const std::uint8_t b : life.steps) {
        std::uint32_t m = 0;
        for (std::uint32_t j = 0; j < b; ++j) {
          const Name n = ring[(pos + j) % kRing];
          if (n >= 0) tmp[m++] = n;
        }
        c.release(tmp, m);
        const std::uint32_t got = c.acquire(b, tmp);
        for (std::uint32_t j = 0; j < b; ++j) {
          ring[(pos + j) % kRing] = j < got ? tmp[j] : -1;
        }
        pos = (pos + b) % kRing;
      }
      std::uint32_t m = 0;
      for (const Name n : ring) {
        if (n >= 0) tmp[m++] = n;
      }
      if (life.crash) {
        abandoned.fetch_add(m, std::memory_order_relaxed);
        c.abandon(tmp, m);
      } else {
        c.release(tmp, m);
      }
      w.close_span(life_span);
      w.parent = -1;
      w.end = Clock::now();
      // Returning runs the thread-exit hook, which flushes this holder's
      // stash; a crashing holder's ring stays leased until the reaper.
    });
  }
  for (auto& th : threads) {
    if (th.joinable()) th.join();
  }
  r.abandoned = abandoned.load();
  if (v.leases) {
    // Every abandoned lease is stale ttl + grace ticks after its holder's
    // last op; wait that out, then drain.
    const double stale_s =
        static_cast<double>(kLeaseTtl + kLeaseGrace) * ns_per_tick() * 1e-9;
    std::this_thread::sleep_for(std::chrono::duration<double>(stale_s * 1.25 + 0.002));
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    while (true) {
      const auto t0 = Clock::now();
      svc.reap_expired();
      r.reap_s += seconds_since(t0);
      if (svc.leases_live() == 0 || Clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  r.setup_s = rig.construct_s;
  r.sized_for = shape.service_n;
  r.bound = r.name_bound = svc.capacity();
  collect(r, slots, svc, v);
  check_end_state(r, svc, v.leases ? 0 : r.abandoned);
  return r;
}

}  // namespace

void Failures::add(const Failures& o) {
  exhausted += o.exhausted;
  sweep_budget += o.sweep_budget;
  shed += o.shed;
  lease_expired += o.lease_expired;
  other_code += o.other_code;
  short_batches += o.short_batches;
  false_releases += o.false_releases;
  guard_trips += o.guard_trips;
}

Variant default_variant(Workload w) {
  Variant v;
  v.leases = w == Workload::kCrashChurn;
  return v;
}

RoundResult run_round(const Script& script, const Shape& shape, unsigned workers,
                      const Variant& v, std::uint32_t round_index) {
  switch (script.workload) {
    case Workload::kPoolChurn:
      return run_pool(script, shape, workers, v, round_index);
    case Workload::kFillDrain:
      return run_cycles<loren::RenamingService>(script, shape, workers, v, round_index);
    case Workload::kBurstGrow:
      return run_cycles<loren::ElasticRenamingService>(script, shape, workers, v,
                                                       round_index);
    case Workload::kCrashChurn:
      return run_crash(script, shape, workers, v, round_index);
  }
  return {};
}

}  // namespace perfbench
