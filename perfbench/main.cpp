// perfbench: closed-loop workloads against the public service API.
//
//   perfbench --workload <pool-churn|fill-drain|burst-grow|crash-churn>
//             --seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variants and the layer ladder and prints the per-layer metrics. Either
// way the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is non-zero when any correctness check failed.
// perfbench/README.md describes every workload and metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "history.h"
#include "ladder.h"
#include "script.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// At least this many measured rounds, whatever --seconds says, so a
/// median exists.
constexpr std::size_t kMinRounds = 3;
/// Share of one round's work the checked (fully logged) round runs.
constexpr double kCheckedScale = 1.0 / 16;
/// Rounds before this much of the run has passed are warm-up: the first
/// rounds of a fresh process run up to a third slower.
constexpr double kWarmupS = 1.0;
/// Traced-run rounds are this share of an end-to-end round, so each of
/// the six variants gets several rounds.
constexpr double kTracedScale = 0.25;
/// A run never measures past this, keeping the process under the
/// benchmark's 180 s limit whatever --seconds says.
constexpr double kMaxMeasureS = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  std::string span_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--span-dir") {
      a.span_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed beside the value, not in the JSON
};

struct Outcome {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& why) {
    if (!ok && correct) {
      correct = false;
      error = why;
    }
  }
};

int finish(const Outcome& o) {
  for (const Metric& m : o.metrics) {
    std::printf("%-34s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  if (!o.correct) std::printf("CORRECTNESS FAILURE: %s\n", o.error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return o.correct ? 0 : 1;
}

void print_failures(const Failures& f, std::uint64_t attempted) {
  std::printf(
      "failed_op_ratio %.6g (failed %llu / attempted %llu): exhausted %llu, "
      "sweep_budget %llu, shed %llu, lease_expired %llu, other_code %llu, "
      "short_batches %llu, false_releases %llu, guard_trips %llu\n",
      attempted > 0 ? static_cast<double>(f.total()) / static_cast<double>(attempted) : 0.0,
      static_cast<unsigned long long>(f.total()),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(f.exhausted),
      static_cast<unsigned long long>(f.sweep_budget),
      static_cast<unsigned long long>(f.shed),
      static_cast<unsigned long long>(f.lease_expired),
      static_cast<unsigned long long>(f.other_code),
      static_cast<unsigned long long>(f.short_batches),
      static_cast<unsigned long long>(f.false_releases),
      static_cast<unsigned long long>(f.guard_trips));
}

void warm_up(const Script& script, const Shape& shape, unsigned workers,
             const Variant& v, Clock::time_point t_begin, std::uint32_t& round,
             Outcome& o) {
  do {
    const RoundResult r = run_round(script, shape, workers, v, round++);
    o.check(r.ok, r.error);
  } while (o.correct && seconds_since(t_begin) < kWarmupS);
}

/// Runs warm-up rounds for kWarmupS, then measured rounds of `v` until
/// the measuring budget is spent. Latency
/// samples merge into `acq`/`rel` as rounds finish, so the kept rounds
/// hold no histograms (their memory would show in peak_rss_mb).
std::vector<RoundResult> measure(const Script& script, const Shape& shape,
                                 unsigned workers, const Variant& v,
                                 Clock::time_point t_begin, double seconds,
                                 std::uint32_t& round, Outcome& o,
                                 LatencyHist& acq, LatencyHist& rel) {
  std::vector<RoundResult> rounds;
  warm_up(script, shape, workers, v, t_begin, round, o);
  while (o.correct && (rounds.size() < kMinRounds ||
                       (seconds_since(t_begin) < seconds &&
                        seconds_since(t_begin) < kMaxMeasureS))) {
    RoundResult r = run_round(script, shape, workers, v, round++);
    o.check(r.ok, r.error);
    std::fprintf(stderr, "round %u: %.4g names/s, setup %.3g s\n", round - 1,
                 r.ops_per_s(), r.setup_s);
    acq.merge(r.acquire);
    rel.merge(r.release);
    r.acquire.release_memory();
    r.release.release_memory();
    rounds.push_back(std::move(r));
  }
  return rounds;
}

/// The checked round: a small round with every op logged, then the
/// shadow-occupancy pass over the merged histories.
void checked_round(const Script& script, Workload w, unsigned workers, Variant v,
                   std::uint32_t round, Outcome& o) {
  v.log_history = true;
  const RoundResult c = run_round(script, shape_of(w, kCheckedScale), workers, v, round);
  o.check(c.ok, c.error);
  const CheckResult cr = check_histories(c.histories, c.name_bound);
  o.check(cr.ok, "history check: " + cr.violation);
  std::printf("history check: %s, %llu events, %llu holds\n", cr.ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(cr.events),
              static_cast<unsigned long long>(cr.holds));
}

template <typename F>
double round_median(const std::vector<RoundResult>& rs, F f) {
  std::vector<double> v;
  for (const RoundResult& r : rs) v.push_back(static_cast<double>(f(r)));
  return median(v);
}

double ops_median(const std::vector<RoundResult>& rs) {
  return round_median(rs, [](const RoundResult& r) { return r.ops_per_s(); });
}

std::string samples_note(const LatencyHist& h) {
  return "(samples " + std::to_string(h.count()) + ")";
}

int run_e2e(const Script& script, Workload w, unsigned workers, double seconds) {
  const auto t_begin = Clock::now();
  Outcome o;
  const Shape shape = shape_of(w);
  const Variant v = default_variant(w);
  std::uint32_t round = 0;
  LatencyHist acq, rel;
  std::vector<RoundResult> rounds =
      measure(script, shape, workers, v, t_begin, seconds, round, o, acq, rel);
  const double rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  checked_round(script, w, workers, v, round, o);

  Failures fail;
  std::uint64_t abandoned = 0, expired = 0;
  for (const RoundResult& r : rounds) {
    fail.add(r.fail);
    o.attempted += r.calls;
    abandoned += r.abandoned;
    expired += r.lease_expired;
  }
  o.failed = fail.total();
  const double tick_ns = ns_per_tick();
  const std::string rounds_note = "(median of " + std::to_string(rounds.size()) + " rounds)";
  o.metrics = {
      {"setup_s", round_median(rounds, [](const RoundResult& r) { return r.setup_s; }),
       "s", rounds_note},
      {"ops_per_s", ops_median(rounds), "names/s", rounds_note},
      {"acquire_p50_ns", acq.quantile(0.50) * tick_ns, "ns", samples_note(acq)},
      {"acquire_p99_ns", acq.quantile(0.99) * tick_ns, "ns", samples_note(acq)},
      {"release_p99_ns", rel.quantile(0.99) * tick_ns, "ns", samples_note(rel)},
      {"peak_rss_mb", rss_mb, "MB", ""},
      {"namespace_ratio",
       round_median(rounds,
                    [](const RoundResult& r) {
                      return static_cast<double>(r.max_local + 1) /
                             static_cast<double>(r.sized_for);
                    }),
       "ratio", rounds_note},
      // Nothing abandoned means nothing to recover: vacuously complete.
      {"reap_recovery",
       abandoned > 0 ? static_cast<double>(expired) / static_cast<double>(abandoned) : 1.0,
       "ratio",
       "(expired " + std::to_string(expired) + " / abandoned " +
           std::to_string(abandoned) + ")"},
  };
  print_failures(fail, o.attempted);
  return finish(o);
}

/// What each layer's metrics should move, and where they should not: the
/// prediction every per-layer metric is printed with.
struct LayerPrediction {
  const char* prefix;
  const char* moves;      // end-to-end metrics and workloads
  const char* no_change;  // workloads
};

constexpr LayerPrediction kPredictions[] = {
    {"tas.", "ops_per_s, acquire_p99_ns on fill-drain, burst-grow", "pool-churn"},
    {"renaming.", "ops_per_s, acquire_p99_ns on fill-drain", "pool-churn"},
    {"stash.", "ops_per_s, acquire_p50_ns on pool-churn, crash-churn", "fill-drain"},
    {"elastic.", "acquire_p99_ns, ops_per_s on burst-grow", "fill-drain, pool-churn"},
    {"lease.", "ops_per_s, release_p99_ns on crash-churn", "all others (leases off)"},
    {"thread.", "peak_rss_mb, ops_per_s on crash-churn", "pool-churn"},
    {"telemetry.", "none: off in every workload (a guard)", "-"},
    {"control.", "none: off in every workload (a guard)", "-"},
    {"trace.", "none: the tracing cost of this run", "-"},
};

std::string prediction_note(const std::string& name) {
  for (const LayerPrediction& p : kPredictions) {
    if (name.rfind(p.prefix, 0) == 0) {
      return std::string("moves: ") + p.moves + " | no change: " + p.no_change;
    }
  }
  return "";
}

int run_traced(const Script& script, Workload w, unsigned workers, double seconds,
               std::uint64_t seed, const std::string& span_dir) {
  const auto t_begin = Clock::now();
  Outcome o;
  const Shape shape = shape_of(w, kTracedScale);
  const Variant base = default_variant(w);
  enum { kBase, kTraced, kNoCache, kLeaseFlip, kTelemetry, kControl, kVariants };
  std::vector<Variant> variants(kVariants, base);
  variants[kTraced].spans = true;
  variants[kNoCache].name_cache = false;
  variants[kNoCache].registry = true;
  variants[kLeaseFlip].leases = !base.leases;
  variants[kTelemetry].registry = true;
  variants[kControl].control_observe = true;
  const int leased = base.leases ? kBase : kLeaseFlip;
  const int unleased = base.leases ? kLeaseFlip : kBase;

  // Variants interleave round by round so drift hits them alike; the
  // ladder gets the last quarter of the budget.
  std::vector<std::vector<RoundResult>> by(kVariants);
  LatencyHist shared_acq, shared_rel;
  std::vector<std::vector<Span>> spans;
  std::uint32_t round = 0;
  warm_up(script, shape, workers, base, t_begin, round, o);
  while (o.correct && (by[kBase].size() < 2 || seconds_since(t_begin) < seconds * 0.75)) {
    for (int i = 0; i < kVariants && o.correct; ++i) {
      RoundResult r = run_round(script, shape, workers, variants[i], round++);
      o.check(r.ok, r.error);
      o.attempted += r.calls;
      o.failed += r.fail.total();
      if (i == kNoCache) {
        shared_acq.merge(r.acquire);
        shared_rel.merge(r.release);
      }
      if (i == kTraced && spans.empty()) spans = std::move(r.spans);
      r.spans.clear();
      r.acquire.release_memory();
      r.release.release_memory();
      by[i].push_back(std::move(r));
    }
    if (seconds_since(t_begin) > kMaxMeasureS) break;
  }
  checked_round(script, w, workers, base, round, o);
  const auto t_ladder = Clock::now();
  const LadderResult lad = run_ladder(w, shape_of(w), seed, workers);
  std::fprintf(stderr, "ladder: %.3g s\n", seconds_since(t_ladder));
  if (!span_dir.empty() && !spans.empty()) {
    const std::string path = span_dir + "/spans-" + workload_name(w) + ".json";
    if (write_spans(path, spans)) std::printf("spans written to %s\n", path.c_str());
  }

  const double tick_ns = ns_per_tick();
  auto sum = [&](int variant, auto f) {
    double s = 0;
    for (const RoundResult& r : by[variant]) s += static_cast<double>(f(r));
    return s;
  };
  auto med = [&](int variant, auto f) { return round_median(by[variant], f); };
  const double base_ops = ops_median(by[kBase]);
  const double hits = sum(kBase, [](const RoundResult& r) { return r.cache_hits; });
  const double misses = sum(kBase, [](const RoundResult& r) { return r.cache_misses; });
  const double shared_kacq =
      sum(kNoCache, [](const RoundResult& r) { return r.acquire_calls; }) / 1000.0;
  const bool elastic_workload = w == Workload::kBurstGrow;
  const bool crash_workload = w == Workload::kCrashChurn;
  const double resize_ms =
      elastic_workload
          ? med(kBase, [](const RoundResult& r) { return median(r.resize_s) * 1e3; })
          : lad.elastic_resize_ms;
  const double quiesce_ns =
      elastic_workload
          ? med(kBase, [](const RoundResult& r) { return r.quiesce_p99_ticks; }) * tick_ns
          : lad.elastic_quiesce_p99_ns;
  const double reap_ms =
      crash_workload ? med(leased, [](const RoundResult& r) { return r.reap_s * 1e3; })
                     : lad.lease_reap_ms;

  auto layer = [&](const char* name, const char* unit, double value) {
    o.metrics.push_back({name, value, unit, prediction_note(name)});
  };
  // In BENCHMARK.json's per_layer order.
  layer("tas.claim_ns", "ns", lad.tas_claim_ns);
  layer("tas.release_ns", "ns", lad.tas_release_ns);
  layer("tas.win_ratio", "ratio", lad.tas_win_ratio);
  layer("tas.run_claim_ns_per_name", "ns", lad.tas_run_claim_ns_per_name);
  layer("tas.bitmap.claim_ns", "ns", lad.tas_bitmap_claim_ns);
  layer("renaming.shared_acquire_ns", "ns", shared_acq.mean() * tick_ns);
  layer("renaming.shared_release_ns", "ns", shared_rel.mean() * tick_ns);
  layer("renaming.probe_len_p50", "probes",
        med(kNoCache, [](const RoundResult& r) { return r.probe_len_p50; }));
  layer("renaming.probe_len_p99", "probes",
        med(kNoCache, [](const RoundResult& r) { return r.probe_len_p99; }));
  layer("renaming.sweeps_per_kacq", "1/kacq",
        sum(kNoCache, [](const RoundResult& r) { return r.sweeps; }) / shared_kacq);
  layer("renaming.migrations_per_kacq", "1/kacq",
        sum(kNoCache, [](const RoundResult& r) { return r.migrations; }) / shared_kacq);
  layer("renaming.lost_races_p99", "count",
        med(kNoCache, [](const RoundResult& r) { return r.lost_races_p99; }));
  layer("stash.hit_rate", "ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  layer("stash.hit_acquire_ns", "ns", lad.stash_hit_acquire_ns);
  layer("stash.spills", "count",
        med(kBase, [](const RoundResult& r) { return r.stash_spills; }));
  layer("stash.flushes", "count",
        med(kBase, [](const RoundResult& r) { return r.stash_flushes; }));
  layer("elastic.grow_events", "count",
        med(kBase, [](const RoundResult& r) { return r.grows; }));
  layer("elastic.shrink_events", "count",
        med(kBase, [](const RoundResult& r) { return r.shrinks; }));
  layer("elastic.reclaimed_groups", "count",
        med(kBase, [](const RoundResult& r) { return r.reclaimed; }));
  layer("elastic.resize_ms", "ms", resize_ms);
  layer("elastic.quiesce_wait_p99", "ns", quiesce_ns);
  layer("lease.overhead_ratio", "ratio",
        ops_median(by[unleased]) / ops_median(by[leased]));
  layer("lease.open_close_ns", "ns", lad.lease_open_close_ns);
  layer("lease.reap_ms", "ms", reap_ms);
  layer("lease.expired", "count",
        med(leased, [](const RoundResult& r) { return r.lease_expired; }));
  layer("lease.guard_trips", "count",
        med(leased, [](const RoundResult& r) { return r.fail.guard_trips; }));
  layer("thread.first_op_us", "us", lad.thread_first_op_us);
  layer("thread.rss_kb_per_lifetime", "KB", lad.thread_rss_kb_per_lifetime);
  layer("telemetry.overhead_ratio", "ratio", base_ops / ops_median(by[kTelemetry]));
  layer("control.overhead_ratio", "ratio", base_ops / ops_median(by[kControl]));
  layer("trace.overhead_ratio", "ratio", base_ops / ops_median(by[kTraced]));
  std::printf("traced run: %zu rounds per variant; e2e ops/s %.6g, traced %.6g\n",
              by[kBase].size(), base_ops, ops_median(by[kTraced]));
  return finish(o);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  Workload w{};
  if (!parse_args(argc, argv, a) || (!a.selftest && !parse_workload(a.workload, w))) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <pool-churn|fill-drain|burst-grow|"
                 "crash-churn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--span-dir <dir>]\n       perfbench --selftest\n");
    return 2;
  }
  if (!run_selftests()) return 1;
  if (a.selftest) {
    std::printf("selftests passed\n");
    return 0;
  }
  const HostInfo host = host_info();
  const unsigned workers =
      host.logical_cores > 1 ? std::min(3u, host.logical_cores - 1) : 1;
  // One core is left to the main thread, which spawns crash-churn's
  // holders; a result compares across hosts only when every worker has a
  // physical core of its own.
  const bool comparable = workers <= host.physical_cores;
  std::printf(
      "host: {\"logical_cores\": %u, \"physical_cores\": %u, \"cpu_model\": \"%s\", "
      "\"build_type\": \"%s\", \"workers\": %u, \"comparable\": %s}\n",
      host.logical_cores, host.physical_cores, host.cpu_model.c_str(),
      host.build_type.c_str(), workers, comparable ? "true" : "false");
  std::printf("workload %s, seed %llu, %g s, trace %d\n", workload_name(w),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  const Script script = make_script(w, a.seed, workers, shape_of(w));
  std::fflush(stdout);
  return a.trace == 1 ? run_traced(script, w, workers, a.seconds, a.seed, a.span_dir)
                      : run_e2e(script, w, workers, a.seconds);
}
