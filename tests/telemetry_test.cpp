// The telemetry layer (telemetry/metrics.h + telemetry/trace.h):
//
//   * registry units — interning is idempotent, the overflow sink
//     absorbs metric creation past the fixed caps, the log2 bucket
//     scheme and its quantile reconstruction are exact at the edges;
//   * multi-thread stress — N threads hammer counters and histograms
//     through their own stripes while the main thread snapshots
//     mid-flight (the benign-approximation contract), then the
//     post-join snapshot must show the exact sums (runs under TSan in
//     CI: the record path must be single-writer clean);
//   * exposition — write_text/write_json carry every minted metric;
//   * trace ring units — emit/drain ordering, overwrite-oldest
//     wraparound accounting, reset, chrome JSON shape (the trace
//     *functions* are always compiled; only the LOREN_TRACE macro is
//     build-gated);
//   * service integration — attaching a registry via the options
//     switches both services into detailed mode: the service.* /
//     elastic.* counters land in the attached registry, the sampled
//     per-op histograms fill, and the legacy accessors (cache_hits,
//     sweep_budget_exhausted, grow_events, ...) read through to the
//     same counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "renaming/service.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace loren::telemetry {
namespace {

TEST(MetricsRegistryTest, InterningIsIdempotent) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("stack.ops");
  const MetricId b = reg.counter("stack.ops");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.counter("stack.other"));
  // Counter and histogram id spaces are independent: the same name mints
  // fresh ids in each.
  const MetricId h = reg.histogram("stack.ops");
  EXPECT_EQ(h, reg.histogram("stack.ops"));
}

TEST(MetricsRegistryTest, CounterAndHistogramRoundTrip) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("test.count");
  const MetricId h = reg.histogram("test.hist");
  MetricsRegistry::ThreadStripe& stripe = reg.stripe();
  stripe.add(c);
  stripe.add(c, 41);
  stripe.record(h, 0);
  stripe.record(h, 5);
  stripe.record(h, 1000);
  EXPECT_EQ(reg.counter_value(c), 42u);
  const HistogramSnapshot hs = reg.histogram_value(h);
  EXPECT_EQ(hs.count, 3u);
  EXPECT_EQ(hs.sum, 1005u);
  EXPECT_EQ(hs.buckets[bucket_of(0)], 1u);
  EXPECT_EQ(hs.buckets[bucket_of(5)], 1u);
  EXPECT_EQ(hs.buckets[bucket_of(1000)], 1u);
}

TEST(MetricsRegistryTest, Log2BucketScheme) {
  // bucket_of == bit_width: 0 -> 0, [2^(b-1), 2^b - 1] -> b.
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(255), 8u);
  EXPECT_EQ(bucket_of(256), 9u);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), 64u);
  // Upper edges are inclusive and saturate at the top bucket.
  EXPECT_EQ(bucket_upper_edge(0), 0u);
  EXPECT_EQ(bucket_upper_edge(1), 1u);
  EXPECT_EQ(bucket_upper_edge(8), 255u);
  EXPECT_EQ(bucket_upper_edge(64), ~std::uint64_t{0});
  // Every representable value lands inside its bucket's range.
  for (std::uint32_t b = 1; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(bucket_of(bucket_upper_edge(b)), b);
  }
}

TEST(MetricsRegistryTest, QuantilesReportBucketUpperEdges) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("q.hist");
  MetricsRegistry::ThreadStripe& stripe = reg.stripe();
  // 99 values of 1 and one value of 1000: p50 is bucket(1)'s edge, p99
  // still inside the 1s, p100 would be bucket(1000)'s edge.
  for (int i = 0; i < 99; ++i) stripe.record(h, 1);
  stripe.record(h, 1000);
  const HistogramSnapshot hs = reg.histogram_value(h);
  EXPECT_EQ(hs.p50(), 1u);
  EXPECT_EQ(hs.p99(), 1u);
  EXPECT_EQ(hs.quantile(1.0), bucket_upper_edge(bucket_of(1000)));
  const HistogramSnapshot empty =
      reg.histogram_value(reg.histogram("q.empty"));
  EXPECT_EQ(empty.quantile(0.99), 0u);
}

TEST(MetricsRegistryTest, OverflowSinkAbsorbsExcessMetrics) {
  MetricsRegistry reg;
  // Mint past both caps: creation must keep returning a usable id (the
  // sink), never fail — instrumentation must not take the service down.
  MetricId last_c = 0;
  for (std::uint32_t i = 0; i < MetricsRegistry::kMaxCounters + 8; ++i) {
    last_c = reg.counter("overflow.c." + std::to_string(i));
  }
  MetricId last_h = 0;
  for (std::uint32_t i = 0; i < MetricsRegistry::kMaxHistograms + 8; ++i) {
    last_h = reg.histogram("overflow.h." + std::to_string(i));
  }
  EXPECT_LT(last_c, MetricsRegistry::kMaxCounters);
  EXPECT_LT(last_h, MetricsRegistry::kMaxHistograms);
  MetricsRegistry::ThreadStripe& stripe = reg.stripe();
  stripe.add(last_c, 7);
  stripe.record(last_h, 3);
  EXPECT_EQ(reg.counter_value(last_c), 7u);
  EXPECT_EQ(reg.histogram_value(last_h).count, 1u);
}

TEST(MetricsRegistryTest, MultiThreadStressExactAfterJoin) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("stress.count");
  const MetricId h = reg.histogram("stress.hist");
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 200000;
  std::atomic<bool> go{false};
  std::atomic<bool> stop_snapshots{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      MetricsRegistry::ThreadStripe& stripe = reg.stripe();
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kOps; ++i) {
        stripe.add(c);
        stripe.record(h, i & 1023);
      }
    });
  }
  // Snapshot while writers are in flight: values are approximate but the
  // walk must be safe and the totals bounded by the final sums.
  std::thread snapshotter([&] {
    while (!stop_snapshots.load(std::memory_order_acquire)) {
      const MetricsSnapshot s = reg.snapshot();
      const CounterSnapshot* cs = s.counter("stress.count");
      ASSERT_NE(cs, nullptr);
      EXPECT_LE(cs->value, kThreads * kOps);
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  stop_snapshots.store(true, std::memory_order_release);
  snapshotter.join();
  // Writers joined: the snapshot is exact.
  EXPECT_EQ(reg.counter_value(c), kThreads * kOps);
  const HistogramSnapshot hs = reg.histogram_value(h);
  EXPECT_EQ(hs.count, kThreads * kOps);
  EXPECT_GE(reg.thread_count(), kThreads);
}

TEST(MetricsRegistryTest, ExpositionCarriesEveryMetric) {
  MetricsRegistry reg;
  reg.stripe().add(reg.counter("expo.count"), 3);
  reg.stripe().record(reg.histogram("expo.hist"), 9);
  std::ostringstream text;
  reg.write_text(text);
  EXPECT_NE(text.str().find("expo.count 3"), std::string::npos);
  EXPECT_NE(text.str().find("expo.hist_count 1"), std::string::npos);
  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"expo.count\":3"), std::string::npos);
  EXPECT_NE(json.str().find("\"expo.hist\""), std::string::npos);
}

// ---------------------------------------------------------------- trace --

TEST(TraceRingTest, EmitDrainOrderAndReset) {
  trace_reset();
  const std::uint16_t a = intern_tag("test.alpha");
  const std::uint16_t b = intern_tag("test.beta");
  EXPECT_EQ(a, intern_tag("test.alpha"));  // content-compared interning
  trace_emit(a, 1);
  trace_emit(b, 2);
  trace_emit(a, 3);
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 3u);
  // One thread: per-thread seq carries emission order through the sort.
  EXPECT_STREQ(events[0].tag, "test.alpha");
  EXPECT_EQ(events[0].arg, 1u);
  EXPECT_STREQ(events[1].tag, "test.beta");
  EXPECT_EQ(events[1].arg, 2u);
  EXPECT_STREQ(events[2].tag, "test.alpha");
  EXPECT_EQ(events[2].arg, 3u);
  EXPECT_LE(events[0].ts, events[1].ts);
  EXPECT_LE(events[1].ts, events[2].ts);
  trace_reset();
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDropped) {
  trace_reset();
  const std::uint16_t tag = intern_tag("test.wrap");
  const std::uint64_t dropped_before = trace_dropped();
  const std::uint64_t total = kTraceRingEvents + 100;
  for (std::uint64_t i = 0; i < total; ++i) trace_emit(tag, i);
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), kTraceRingEvents);
  // Overwrite-oldest: the surviving window is exactly the newest events.
  EXPECT_EQ(events.front().arg, static_cast<std::uint32_t>(100));
  EXPECT_EQ(events.back().arg, static_cast<std::uint32_t>(total - 1));
  EXPECT_EQ(trace_dropped() - dropped_before, 100u);
  trace_reset();
}

TEST(TraceRingTest, ChromeJsonShape) {
  trace_reset();
  trace_emit(intern_tag("test.json"), 42);
  const std::string json = trace_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  trace_reset();
}

TEST(TraceRingTest, ConcurrentEmitAndDrainIsSafe) {
  trace_reset();
  const std::uint16_t tag = intern_tag("test.mt");
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) trace_emit(tag, i++);
    });
  }
  // Benign racing drain: values may be mid-overwrite, the walk must not
  // crash or produce events with unknown tags.
  for (int i = 0; i < 50; ++i) {
    for (const TraceEvent& e : trace_snapshot()) {
      EXPECT_STREQ(e.tag, "test.mt");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  trace_reset();
}

// ---------------------------------------------------- service integration --

TEST(ServiceTelemetryTest, AttachedRegistrySeesFixedServiceMetrics) {
  MetricsRegistry reg;
  RenamingServiceOptions opts;
  opts.telemetry.registry = &reg;
  RenamingService svc(256, opts);
  constexpr int kRounds = 4096;  // > kLatencySampleMask: samples must land
  std::vector<sim::Name> names;
  for (int i = 0; i < kRounds; ++i) {
    const sim::Name name = svc.acquire();
    ASSERT_GE(name, 0);
    ASSERT_TRUE(svc.release(name));
  }
  const MetricsSnapshot s = reg.snapshot();
  // The stash serves the steady state: hits counted in the attached
  // registry, and the accessors read the same counters.
  const CounterSnapshot* hits = s.counter("service.cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(hits->value, 0u);
  EXPECT_EQ(svc.cache_hits(), hits->value);
  EXPECT_EQ(svc.cache_misses(), s.counter("service.cache.misses")->value);
  // Detailed mode: the sampled per-op histograms fill.
  const HistogramSnapshot* ticks = s.histogram("service.acquire.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GT(ticks->count, 0u);
  EXPECT_GT(s.histogram("service.release.ticks")->count, 0u);
}

TEST(ServiceTelemetryTest, DetachedServiceKeepsHistogramsOff) {
  RenamingService svc(256, RenamingServiceOptions{});
  for (int i = 0; i < 4096; ++i) {
    const sim::Name name = svc.acquire();
    ASSERT_GE(name, 0);
    ASSERT_TRUE(svc.release(name));
  }
  // No attached registry: event counters still count (one idiom), the
  // per-op histograms stay empty (default config pays nothing per op).
  EXPECT_GT(svc.cache_hits(), 0u);
  const MetricsSnapshot s = svc.metrics_registry().snapshot();
  EXPECT_EQ(s.histogram("service.acquire.ticks")->count, 0u);
  EXPECT_EQ(s.histogram("service.acquire.probe_len")->count, 0u);
}

// A migration is the sticky hint moving to another shard. With one shard
// the hint cannot move, so a late win on a nearly full service must not
// count as one.
TEST(ServiceTelemetryTest, SingleShardServiceCountsNoMigrations) {
  RenamingServiceOptions opts;
  opts.shards = 1;
  opts.name_cache = false;
  RenamingService svc(256, opts);
  ASSERT_EQ(svc.num_shards(), 1u);
  std::vector<sim::Name> held;
  while (held.size() + 8 < svc.capacity()) {
    const sim::Name name = svc.acquire();
    ASSERT_GE(name, 0);
    held.push_back(name);
  }
  for (int i = 0; i < 20000; ++i) {
    const sim::Name name = svc.acquire();
    ASSERT_GE(name, 0);
    ASSERT_TRUE(svc.release(name));
  }
  MetricsRegistry& reg = svc.metrics_registry();
  EXPECT_EQ(reg.counter_value(reg.counter("service.shard.migrations")), 0u);
}

TEST(ServiceTelemetryTest, AttachedRegistrySeesElasticMetrics) {
  MetricsRegistry reg;
  ElasticOptions opts;
  opts.min_holders = 64;
  opts.max_holders = 4096;
  opts.telemetry.registry = &reg;
  ElasticRenamingService svc(64, opts);
  for (int i = 0; i < 4096; ++i) {
    const sim::Name name = svc.acquire();
    ASSERT_GE(name, 0);
    ASSERT_TRUE(svc.release(name));
  }
  svc.grow();
  svc.shrink();
  svc.reclaim();
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(svc.grow_events(), s.counter("elastic.grow.events")->value);
  EXPECT_EQ(svc.shrink_events(), s.counter("elastic.shrink.events")->value);
  EXPECT_EQ(svc.reclaimed_groups(),
            s.counter("elastic.reclaim.groups")->value);
  EXPECT_GT(s.counter("elastic.epoch.advances")->value, 0u);
  EXPECT_GT(s.histogram("elastic.acquire.ticks")->count, 0u);
  // The reclaim pass saw retired groups: quiescence waits recorded.
  EXPECT_GT(s.histogram("elastic.reclaim.quiesce_ticks")->count, 0u);
}

// probe_len records only calls that probed. A shed call is rejected
// before any probe, so however many sampled calls shed, the histogram
// must not move (the elastic service once recorded a zero-probe sample
// for every timed kShed).
TEST(ServiceTelemetryTest, ShedCallsRecordNoProbeLength) {
  MetricsRegistry reg;
  ElasticOptions opts;
  opts.auto_grow = false;
  opts.name_cache = false;  // every acquire goes to the shared namespace
  opts.telemetry.registry = &reg;
  opts.control.mode = control::ControlMode::kAdapt;
  ElasticRenamingService svc(64, opts);
  std::vector<sim::Name> held;
  sim::Name name = 0;
  for (int i = 0; i < 4096 && name != ElasticRenamingService::kShed; ++i) {
    name = svc.acquire();
    if (name >= 0) held.push_back(name);
  }
  ASSERT_EQ(name, ElasticRenamingService::kShed) << "never started shedding";
  const auto probe_count = [&reg] {
    return reg.snapshot().histogram("elastic.acquire.probe_len")->count;
  };
  const std::uint64_t before = probe_count();
  constexpr int kShedCalls = 1024;  // 4x the 1-in-256 sampling period
  for (int i = 0; i < kShedCalls; ++i) {
    ASSERT_EQ(svc.acquire(), ElasticRenamingService::kShed);
  }
  EXPECT_EQ(probe_count(), before);
  EXPECT_GE(svc.shed_events(), static_cast<std::uint64_t>(kShedCalls));
  // The sampled shed calls were still timed.
  EXPECT_GT(reg.snapshot().histogram("elastic.acquire.ticks")->count, 0u);
}

TEST(ServiceTelemetryTest, SharedRegistryAggregatesAcrossServices) {
  MetricsRegistry reg;
  RenamingServiceOptions opts;
  opts.telemetry.registry = &reg;
  RenamingService a(128, opts);
  RenamingService b(128, opts);
  for (int i = 0; i < 512; ++i) {
    const sim::Name na = a.acquire();
    const sim::Name nb = b.acquire();
    ASSERT_GE(na, 0);
    ASSERT_GE(nb, 0);
    a.release(na);
    b.release(nb);
  }
  // Same names intern to the same ids: the counter is the aggregate, and
  // each service's accessor reads that shared aggregate.
  const std::uint64_t hits =
      reg.snapshot().counter("service.cache.hits")->value;
  EXPECT_EQ(a.cache_hits(), hits);
  EXPECT_EQ(b.cache_hits(), hits);
  EXPECT_GT(hits, 0u);
}

TEST(ServiceTelemetryTest, MultiThreadServiceStressWithAttachedRegistry) {
  MetricsRegistry reg;
  RenamingServiceOptions opts;
  opts.name_cache = false;  // force every op through the instrumented path
  opts.telemetry.registry = &reg;
  RenamingService svc(1u << 12, opts);
  constexpr unsigned kThreads = 4;
  constexpr int kOps = 20000;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        const sim::Name name = svc.acquire();
        if (name < 0 || !svc.release(name)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const MetricsSnapshot s = reg.snapshot();
  const HistogramSnapshot* probes = s.histogram("service.acquire.probe_len");
  ASSERT_NE(probes, nullptr);
  // 1-in-256 sampling over kThreads * kOps uncached acquires: samples
  // must have landed from every thread's stream.
  EXPECT_GT(probes->count, 0u);
  EXPECT_GE(reg.thread_count(), kThreads);
}

}  // namespace
}  // namespace loren::telemetry
