// MetricsRegistry: named, cacheline-striped per-thread counters and
// fixed-bucket log2 histograms for the whole service stack.
//
// The stack's protocols (word claims, run claims, epoch quiescence,
// elastic group swaps, stash invalidation) were observable only through a
// handful of ad-hoc atomics and end-of-run bench aggregates. The registry
// makes their behavior — probe lengths, sweep frequency, grow/shrink
// cadence, per-op latency — a first-class output, cheap enough to leave
// on in production runs.
//
// The record path follows the RegisteredCounter recipe
// (platform/registered_counter.h) generalized to many named metrics: each
// thread registers once per registry and receives a ThreadStripe — a
// cache-line-aligned block of per-metric words that no other thread ever
// writes. Single-writer means add()/record() are load-relaxed +
// store-relaxed — ordinary increments of memory words, wait-free and
// allocation-free, no shared RMW. Callers on hot paths cache the
// ThreadStripe* (the services keep it in their per-(thread, service)
// context), so a record is one pointer deref plus a relaxed add.
//
// snapshot() walks the stripe list under a mutex (cold path) and sums the
// per-thread words. Like RegisteredCounter::sum() it is epoch-consistent:
// approximate while writers are in flight, exact once they have quiesced
// and synchronized with the reader (thread join, or an epoch advance the
// writers have observed). Stripes live as long as the registry, so a
// thread that exits leaves its contribution behind.
//
// Histograms are fixed-bucket log2: value v lands in bucket bit_width(v)
// (0 for v == 0, else 1 + floor(log2 v)), 65 buckets covering the full
// u64 range. Three relaxed adds per record (bucket, count, sum); quantiles
// are reconstructed from the buckets at snapshot time and reported as the
// bucket's inclusive upper edge (2^b - 1), i.e. "p99 <= this".
//
// See docs/observability.md for the metric name table and the overhead
// contract; LOREN_TRACE (telemetry/trace.h) is the companion event-level
// instrument.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "platform/cacheline.h"
#include "telemetry/trace.h"

namespace loren::telemetry {

/// Dense per-registry metric index. Counters and histograms live in
/// separate id spaces; a MetricId is meaningful only with the
/// add()/record() family it was minted by (counter() vs histogram()).
using MetricId = std::uint32_t;

/// Log2 bucket count: bucket 0 holds value 0, bucket b in [1, 64] holds
/// values [2^(b-1), 2^b - 1].
inline constexpr std::uint32_t kHistogramBuckets = 65;

/// The bucket for `v` under the log2 scheme (== std::bit_width).
constexpr std::uint32_t bucket_of(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(std::bit_width(v));
}

/// Inclusive upper edge of bucket `b` — the value snapshot quantiles
/// report (saturates at the top bucket).
constexpr std::uint64_t bucket_upper_edge(std::uint32_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  /// Smallest bucket upper edge v such that >= q of recorded values are
  /// <= v (q in [0, 1]; returns 0 on an empty histogram).
  [[nodiscard]] std::uint64_t quantile(double q) const;
  [[nodiscard]] std::uint64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p99() const { return quantile(0.99); }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// The plain struct snapshot() sums stripes into.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Lookup by name; nullptr when absent (cold, linear scan).
  [[nodiscard]] const CounterSnapshot* counter(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  /// Fixed stripe geometry: metric creation past these caps fails (the
  /// registry returns the overflow sink id, see counter()). Fixed caps
  /// are what keep the record path allocation-free — a stripe allocated
  /// when a thread first touches the registry never needs to grow when
  /// someone mints a metric later.
  static constexpr std::uint32_t kMaxCounters = 128;
  static constexpr std::uint32_t kMaxHistograms = 32;

  /// Per-thread single-writer block. Obtain via stripe(), cache the
  /// pointer; only the owning thread may call add()/record().
  class ThreadStripe {
   public:
    void add(MetricId c, std::uint64_t delta = 1) noexcept {
      bump(counters_[c], delta);
    }
    void record(MetricId h, std::uint64_t value) noexcept {
      Hist& hs = hists_[h];
      bump(hs.buckets[bucket_of(value)], 1);
      bump(hs.count, 1);
      bump(hs.sum, value);
    }

   private:
    friend class MetricsRegistry;
    struct Hist {
      // mo: relaxed -- single-writer stripe statistic (bump());
      // snapshot() tolerates stale values by design.
      std::atomic<std::uint64_t> count{0};
      // mo: relaxed -- single-writer stripe statistic (bump());
      // snapshot() tolerates stale values by design.
      std::atomic<std::uint64_t> sum{0};
      // mo: relaxed -- single-writer stripe statistic (bump());
      // snapshot() tolerates stale values by design.
      std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
    };
    // Single-writer: an ordinary increment of an atomic word, never an
    // RMW (the RegisteredCounter idiom).
    static void bump(std::atomic<std::uint64_t>& w, std::uint64_t d) noexcept {
      w.store(w.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
    }
    // mo: relaxed -- single-writer stripe statistic (bump()); snapshot()
    // tolerates stale values by design.
    alignas(kCacheLine) std::atomic<std::uint64_t> counters_[kMaxCounters] = {};
    Hist hists_[kMaxHistograms] = {};
  };

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get the counter named `name` (cold, mutex). Idempotent:
  /// the same name always yields the same id, so two services sharing a
  /// registry aggregate into one counter. Past kMaxCounters every new
  /// name maps to the last id (an overflow sink) rather than failing —
  /// instrumentation must never take the service down.
  MetricId counter(std::string_view name);

  /// Histogram twin of counter().
  MetricId histogram(std::string_view name);

  /// The calling thread's stripe, registering it on first touch (cold:
  /// mutex + allocation once per thread per registry; then a thread-local
  /// table probe). Hot paths should cache the returned pointer.
  ThreadStripe& stripe();

  /// Cold reads: sum of a single metric across stripes.
  [[nodiscard]] std::uint64_t counter_value(MetricId c) const;
  [[nodiscard]] HistogramSnapshot histogram_value(MetricId h) const;

  /// Epoch-consistent whole-registry snapshot (see file comment).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus-style `name value` lines (histograms as name_count /
  /// name_sum / name_p50 / name_p99).
  void write_text(std::ostream& os) const;

  /// One JSON object: {"counters":{...},"histograms":{name:{count,sum,
  /// mean,p50,p99,buckets:[[b,n],...]}}} — the shape bench embeds as the
  /// per-scenario `metrics` block.
  void write_json(std::ostream& os) const;

  [[nodiscard]] std::size_t thread_count() const;

 private:
  MetricId intern(std::vector<std::string>& names, std::uint32_t cap,
                  std::string_view name);

  const std::uint64_t id_;  // process-unique; keys the thread-local table
  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> hist_names_;
  std::vector<std::unique_ptr<ThreadStripe>> stripes_;
};

/// One sampled latency record: when `timed`, the destructor records the
/// trace_ticks() elapsed since construction into histogram `hist` on the
/// caller's stripe, so every exit of a sampled op body is measured without
/// a recording call of its own (the services' 1-in-256 op samples).
class SampledTicks {
 public:
  SampledTicks(bool timed, MetricsRegistry::ThreadStripe* stripe, MetricId hist)
      : stripe_(timed ? stripe : nullptr),
        hist_(hist),
        t0_(timed ? trace_ticks() : 0) {}
  ~SampledTicks() {
    if (stripe_ != nullptr) stripe_->record(hist_, trace_ticks() - t0_);
  }
  SampledTicks(const SampledTicks&) = delete;
  SampledTicks& operator=(const SampledTicks&) = delete;
  [[nodiscard]] bool timed() const { return stripe_ != nullptr; }

 private:
  MetricsRegistry::ThreadStripe* stripe_;
  MetricId hist_;
  std::uint64_t t0_;
};

/// Telemetry surface of the service options structs. The registry is
/// non-owning and must outlive the service. Leaving it null keeps the
/// service on its internal registry: the legacy counters (cache hits,
/// sweep budget, grow/shrink events) still count — one idiom everywhere —
/// but the per-op hot-path histograms (acquire/release latency, probe
/// lengths, lost races, ring-walk lengths) stay off, so the default
/// configuration pays nothing per operation.
struct TelemetryOptions {
  MetricsRegistry* registry = nullptr;
};

}  // namespace loren::telemetry
