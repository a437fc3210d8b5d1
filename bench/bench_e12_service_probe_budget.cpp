// E12 — the services' probe budget: which t0 should RenamingService and
// ElasticRenamingService ship?
//
// BatchLayout's t0 = ceil(17 ln(8e/eps) / eps) (129 probes on B_0 at
// eps = 0.5) is the constant the paper's proof needs. E1 and E11 show that
// a handful of probes already does the work; this sweep asks the same
// question of the real service, where a probe is a cache-line RMW and a
// near-full shard can spend all t0 of them before reaching the emptier
// small batches. It runs RenamingService with the name cache off (so every
// acquisition probes) over
//   t0        in {4, 8, 16, 32, the shipped default, paper},
//   live / n  in {0.5, 0.9, 1.0},
//   threads   in {1, 4}.
// Each cell fills the service to `live` names from its worker threads and
// then has every worker churn its own share: release a random held name,
// acquire a fresh one. Reported per cell:
//   * mean and p99 probes per acquisition, from the service's own
//     service.acquire.probe_len histogram over the churn phase (sampled
//     one op in 256 per thread; p99 is the log2 bucket's upper edge);
//   * ns per release+acquire pair, mean over workers, median over reps,
//     timed in separate passes with no telemetry registry attached;
//   * p99 ns per call of the fill: the one-shot fill from empty, after an
//     untimed fill-and-drain has faulted the arena in, issued as in
//     perfbench's fill-drain (half single acquisitions, half batches of
//     16, where the probe schedule only seeds each run claim); each call
//     is timed with two steady_clock reads, whose cost is inside every
//     sample; median over the same reps;
//   * failed acquisitions (0 expected: the sweep backstop finds a cell
//     whenever one is free, and live <= n < capacity).
// The elastic row fills a default ElasticRenamingService from 1024 holders
// to 60000 names (perfbench's burst-grow fill: singles and batches of 16)
// at t0 in {the shipped default, paper}, with 1 and 4 threads, and reports
// p99 ns per fill call, the namespace ratio (highest group-local name + 1)
// / holders() and the grow count, each the median over the reps, plus
// failed acquisitions (0 expected: growth is on).
// docs/protocols.md ("Service probe budget") records the tables that
// picked the shipped default.
//
// Usage: bench_e12_service_probe_budget [--quick] [--n N] [--pairs P]
//                                       [--reps R] [--out PATH]
//   --quick   20k pairs per thread, 1 timing rep (the CI smoke)
//   --out     also write the cells as JSON (the CI asserts read it)
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "elastic/elastic_service.h"
#include "platform/rng.h"
#include "renaming/service.h"
#include "telemetry/metrics.h"

using namespace loren;
using namespace loren::bench;

namespace {

constexpr double kEpsilon = 0.5;
/// The fill issues single acquisitions and batches of this size, half
/// each, as perfbench's fill-drain workload does.
constexpr std::uint64_t kFillBatch = 16;
/// The elastic row's fill: perfbench burst-grow's initial holder count and
/// live target.
constexpr std::uint64_t kElasticInitial = 1024;
constexpr std::uint64_t kElasticLive = 60000;

struct Config {
  std::uint64_t n = 16384;
  std::uint64_t pairs = 200000;  // per thread
  int reps = 3;
};

struct Pass {
  double ns_per_pair = 0.0;
  std::vector<double> fill_ns;  // per acquisition of the fill
  std::uint64_t failed = 0;
  telemetry::HistogramSnapshot probes;  // churn phase only
};

struct Cell {
  int t0 = 0;  // 0 = the paper's constant
  double occupancy = 0.0;
  unsigned threads = 0;
  double probe_mean = 0.0;
  std::uint64_t probe_p99 = 0;
  std::uint64_t probe_samples = 0;
  double ns_per_pair = 0.0;
  double fill_p99_ns = 0.0;
  std::uint64_t failed = 0;
};

struct ElasticCell {
  int t0 = 0;  // 0 = the paper's constant
  unsigned threads = 0;
  double fill_p99_ns = 0.0;
  double namespace_ratio = 0.0;
  double grows = 0.0;
  std::uint64_t failed = 0;
};

telemetry::HistogramSnapshot probe_hist(const telemetry::MetricsSnapshot& snap) {
  const auto* h = snap.histogram("service.acquire.probe_len");
  return h != nullptr ? *h : telemetry::HistogramSnapshot{};
}

telemetry::HistogramSnapshot minus(telemetry::HistogramSnapshot a,
                                   const telemetry::HistogramSnapshot& b) {
  a.count -= b.count;
  a.sum -= b.sum;
  for (std::uint32_t i = 0; i < telemetry::kHistogramBuckets; ++i) {
    a.buckets[i] -= b.buckets[i];
  }
  return a;
}

/// One fill-then-churn run. With `reg` attached the service samples its
/// probe lengths there (and pays for it); without, the pass is timed.
Pass run_pass(const Config& cfg, int t0, double occupancy, unsigned threads,
              std::uint64_t seed, telemetry::MetricsRegistry* reg) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.seed = seed;
  opts.layout_extra = BatchLayoutParams{.t0_override = t0};
  opts.telemetry.registry = reg;
  RenamingService svc(cfg.n, opts);

  const auto live = static_cast<std::uint64_t>(
      std::llround(occupancy * static_cast<double>(cfg.n)));
  std::barrier sync(static_cast<std::ptrdiff_t>(threads) + 1);
  std::vector<double> ns(threads, 0.0);
  std::vector<std::vector<double>> fill_ns(threads);
  std::vector<std::uint64_t> failed(threads, 0);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const std::uint64_t share =
          live / threads + (w < live % threads ? 1 : 0);
      std::vector<sim::Name> held;
      // Warm-up: fill to n and drain, so the fill below is not timing the
      // first-touch page faults of the freshly allocated arena.
      for (std::uint64_t i = w; i < cfg.n; i += threads) {
        const sim::Name name = svc.acquire();
        if (name >= 0) held.push_back(name);
      }
      for (const sim::Name name : held) svc.release(name);
      held.clear();
      held.reserve(share);
      Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + w + 1);
      sim::Name batch[kFillBatch];
      sync.arrive_and_wait();  // everyone drained; the timed fill starts
      for (std::uint64_t left = share; left > 0;) {
        const std::uint64_t k =
            rng.below(2) == 0 ? 1 : std::min(kFillBatch, left);
        const auto t = std::chrono::steady_clock::now();
        if (k == 1) batch[0] = svc.acquire();
        const std::uint64_t got =
            k == 1 ? (batch[0] >= 0 ? 1 : 0) : svc.acquire_many(k, batch);
        fill_ns[w].push_back(std::chrono::duration<double, std::nano>(
                                 std::chrono::steady_clock::now() - t)
                                 .count());
        held.insert(held.end(), batch, batch + got);
        failed[w] += k - got;
        left -= k;
      }
      sync.arrive_and_wait();  // filled; the main thread snapshots
      sync.arrive_and_wait();  // churn starts
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < cfg.pairs && !held.empty(); ++i) {
        const std::uint64_t idx = rng.below(held.size());
        svc.release(held[idx]);
        const sim::Name name = svc.acquire();
        if (name >= 0) {
          held[idx] = name;
        } else {
          ++failed[w];
          held[idx] = held.back();
          held.pop_back();
        }
      }
      ns[w] = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count() /
              static_cast<double>(cfg.pairs);
      for (const sim::Name name : held) svc.release(name);
    });
  }
  sync.arrive_and_wait();
  sync.arrive_and_wait();
  const telemetry::MetricsSnapshot before =
      reg != nullptr ? reg->snapshot() : telemetry::MetricsSnapshot{};
  sync.arrive_and_wait();
  for (auto& t : workers) t.join();

  Pass pass;
  for (unsigned w = 0; w < threads; ++w) {
    pass.ns_per_pair += ns[w] / threads;
    pass.fill_ns.insert(pass.fill_ns.end(), fill_ns[w].begin(),
                        fill_ns[w].end());
    pass.failed += failed[w];
  }
  if (reg != nullptr) {
    const telemetry::MetricsSnapshot after = reg->snapshot();
    pass.probes = minus(probe_hist(after), probe_hist(before));
  }
  return pass;
}

Cell run_cell(const Config& cfg, int t0, double occupancy, unsigned threads,
              std::uint64_t seed) {
  Cell cell{.t0 = t0, .occupancy = occupancy, .threads = threads};
  telemetry::MetricsRegistry reg;
  const Pass probed = run_pass(cfg, t0, occupancy, threads, seed, &reg);
  cell.probe_mean = probed.probes.mean();
  cell.probe_p99 = probed.probes.p99();
  cell.probe_samples = probed.probes.count;
  cell.failed = probed.failed;
  std::vector<double> ns;
  std::vector<double> fill_p99;
  for (int r = 0; r < cfg.reps; ++r) {
    const Pass timed = run_pass(cfg, t0, occupancy, threads,
                                seed + static_cast<std::uint64_t>(r) + 1,
                                nullptr);
    ns.push_back(timed.ns_per_pair);
    fill_p99.push_back(quantile(timed.fill_ns, 0.99));
    cell.failed += timed.failed;
  }
  cell.ns_per_pair = quantile(ns, 0.5);
  cell.fill_p99_ns = quantile(fill_p99, 0.5);
  return cell;
}

/// One timed fill of a fresh elastic service to kElasticLive names.
ElasticCell run_elastic_pass(int t0, unsigned threads, std::uint64_t seed) {
  ElasticOptions opts;
  opts.seed = seed;
  opts.layout_extra = BatchLayoutParams{.t0_override = t0};
  ElasticRenamingService svc(kElasticInitial, opts);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::vector<double>> fill_ns(threads);
  std::vector<std::uint64_t> max_local(threads, 0);
  std::vector<std::uint64_t> failed(threads, 0);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const std::uint64_t share =
          kElasticLive / threads + (w < kElasticLive % threads ? 1 : 0);
      Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + w + 1);
      sim::Name batch[kFillBatch];
      sync.arrive_and_wait();
      for (std::uint64_t left = share; left > 0;) {
        const std::uint64_t k =
            rng.below(2) == 0 ? 1 : std::min(kFillBatch, left);
        const auto t = std::chrono::steady_clock::now();
        if (k == 1) batch[0] = svc.acquire();
        const std::uint64_t got =
            k == 1 ? (batch[0] >= 0 ? 1 : 0) : svc.acquire_many(k, batch);
        fill_ns[w].push_back(std::chrono::duration<double, std::nano>(
                                 std::chrono::steady_clock::now() - t)
                                 .count());
        for (std::uint64_t i = 0; i < got; ++i) {
          max_local[w] = std::max(max_local[w],
                                  static_cast<std::uint64_t>(batch[i]) >>
                                      ElasticRenamingService::kTagBits);
        }
        failed[w] += k - got;
        left -= k;
      }
    });
  }
  for (auto& t : workers) t.join();

  ElasticCell cell{.t0 = t0, .threads = threads};
  std::vector<double> all_ns;
  for (unsigned w = 0; w < threads; ++w) {
    all_ns.insert(all_ns.end(), fill_ns[w].begin(), fill_ns[w].end());
    cell.failed += failed[w];
  }
  cell.fill_p99_ns = quantile(all_ns, 0.99);
  cell.namespace_ratio =
      static_cast<double>(*std::max_element(max_local.begin(), max_local.end()) +
                          1) /
      static_cast<double>(svc.holders());
  cell.grows = static_cast<double>(svc.grow_events());
  return cell;
}

ElasticCell run_elastic_cell(const Config& cfg, int t0, unsigned threads,
                             std::uint64_t seed) {
  ElasticCell cell{.t0 = t0, .threads = threads};
  std::vector<double> p99;
  std::vector<double> ratio;
  std::vector<double> grows;
  for (int r = 0; r < cfg.reps; ++r) {
    const ElasticCell pass =
        run_elastic_pass(t0, threads, seed + static_cast<std::uint64_t>(r));
    p99.push_back(pass.fill_p99_ns);
    ratio.push_back(pass.namespace_ratio);
    grows.push_back(pass.grows);
    cell.failed += pass.failed;
  }
  cell.fill_p99_ns = quantile(p99, 0.5);
  cell.namespace_ratio = quantile(ratio, 0.5);
  cell.grows = quantile(grows, 0.5);
  return cell;
}

std::string t0_label(int t0, int shipped, int paper) {
  if (t0 == 0) return std::to_string(paper) + " (paper)";
  if (t0 == shipped) return std::to_string(t0) + " (default)";
  return std::to_string(t0);
}

void write_json(const char* path, const Config& cfg, int shipped, int paper,
                const std::vector<Cell>& cells,
                const std::vector<ElasticCell>& elastic) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"bench\": \"e12_service_probe_budget\",\n");
  std::fprintf(f, "  \"n\": %llu,\n  \"epsilon\": %.2f,\n",
               static_cast<unsigned long long>(cfg.n), kEpsilon);
  std::fprintf(f, "  \"pairs_per_thread\": %llu,\n  \"reps\": %d,\n",
               static_cast<unsigned long long>(cfg.pairs), cfg.reps);
  std::fprintf(f, "  \"logical_cores\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"shipped_t0\": %d,\n  \"paper_t0\": %d,\n", shipped,
               paper);
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"t0\": %d, \"occupancy\": %.2f, \"threads\": %u, "
                 "\"probe_mean\": %.3f, \"probe_p99\": %llu, "
                 "\"probe_samples\": %llu, \"ns_per_pair\": %.1f, "
                 "\"fill_p99_ns\": %.1f, \"failed\": %llu}%s\n",
                 c.t0 == 0 ? paper : c.t0, c.occupancy, c.threads,
                 c.probe_mean, static_cast<unsigned long long>(c.probe_p99),
                 static_cast<unsigned long long>(c.probe_samples),
                 c.ns_per_pair, c.fill_p99_ns,
                 static_cast<unsigned long long>(c.failed),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"elastic\": [\n");
  for (std::size_t i = 0; i < elastic.size(); ++i) {
    const ElasticCell& c = elastic[i];
    std::fprintf(f,
                 "    {\"t0\": %d, \"threads\": %u, \"fill_p99_ns\": %.1f, "
                 "\"namespace_ratio\": %.4f, \"grows\": %.1f, "
                 "\"failed\": %llu}%s\n",
                 c.t0 == 0 ? paper : c.t0, c.threads, c.fill_p99_ns,
                 c.namespace_ratio, c.grows,
                 static_cast<unsigned long long>(c.failed),
                 i + 1 < elastic.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  const char* out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.pairs = 20000;
      cfg.reps = 1;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      cfg.n = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--pairs") == 0 && i + 1 < argc) {
      cfg.pairs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      cfg.reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--n N] [--pairs P] [--reps R] "
                   "[--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.n == 0 || cfg.pairs == 0) {
    std::fprintf(stderr, "--n and --pairs must be >= 1\n");
    return 2;
  }

  const int shipped = RenamingServiceOptions{}.layout_extra.t0_override;
  const int paper =
      BatchLayout(1024, BatchLayoutParams{.epsilon = kEpsilon}).probes(0);
  std::vector<int> t0s{4, 8, 16, 32};
  if (shipped > 0 && std::find(t0s.begin(), t0s.end(), shipped) == t0s.end()) {
    t0s.push_back(shipped);
    std::sort(t0s.begin(), t0s.end());
  }
  t0s.push_back(0);
  const std::vector<double> occupancies{0.5, 0.9, 1.0};
  const std::vector<unsigned> thread_counts{1, 4};

  std::printf("# E12 — service probe budget (n = %llu, eps = %.2f, "
              "%llu pairs/thread, %d timing reps, %u logical cores)\n",
              static_cast<unsigned long long>(cfg.n), kEpsilon,
              static_cast<unsigned long long>(cfg.pairs), cfg.reps,
              std::max(1u, std::thread::hardware_concurrency()));
  std::printf("\nCell: churn mean / p99 probes per acquisition; ns per "
              "release+acquire pair; p99 ns per fill call (singles and "
              "batches of %llu). Name cache off.\n",
              static_cast<unsigned long long>(kFillBatch));

  std::vector<Cell> cells;
  std::uint64_t seed = 0xE12;
  for (const unsigned threads : thread_counts) {
    std::vector<std::string> header{"live / n"};
    for (const int t0 : t0s) header.push_back("t0 = " + t0_label(t0, shipped, paper));
    std::vector<std::vector<std::string>> rows;
    for (const double occ : occupancies) {
      std::vector<std::string> row{fmt(occ, 1)};
      for (const int t0 : t0s) {
        const Cell c = run_cell(cfg, t0, occ, threads, seed += 0x100);
        row.push_back(fmt(c.probe_mean, 1) + " / " + fmt_u(c.probe_p99) +
                      "; " + fmt(c.ns_per_pair, 0) + " ns; " +
                      fmt(c.fill_p99_ns, 0) + " ns" +
                      (c.failed != 0 ? " (" + fmt_u(c.failed) + " failed)"
                                     : std::string{}));
        cells.push_back(c);
      }
      rows.push_back(row);
    }
    print_table(std::to_string(threads) + (threads == 1 ? " thread" : " threads"),
                header, rows);
  }

  // The elastic service ships the same t0 (kServiceT0); its row checks
  // that the short budget keeps a growing fill's names as compact as the
  // proof constant does.
  const int elastic_shipped = ElasticOptions{}.layout_extra.t0_override;
  std::printf("\nElastic fill: %llu -> %llu names from %llu holders. Cell: "
              "p99 ns per fill call; namespace ratio; grows.\n",
              static_cast<unsigned long long>(kElasticInitial),
              static_cast<unsigned long long>(kElasticLive),
              static_cast<unsigned long long>(kElasticInitial));
  std::vector<ElasticCell> elastic;
  std::vector<std::string> header{"t0"};
  for (const unsigned threads : thread_counts) {
    header.push_back(std::to_string(threads) +
                     (threads == 1 ? " thread" : " threads"));
  }
  std::vector<std::vector<std::string>> rows;
  for (const int t0 : {elastic_shipped, 0}) {
    std::vector<std::string> row{t0_label(t0, elastic_shipped, paper)};
    for (const unsigned threads : thread_counts) {
      const ElasticCell c = run_elastic_cell(cfg, t0, threads, seed += 0x100);
      row.push_back(fmt(c.fill_p99_ns, 0) + " ns; " +
                    fmt(c.namespace_ratio, 3) + "; " + fmt(c.grows, 0) +
                    (c.failed != 0 ? " (" + fmt_u(c.failed) + " failed)"
                                   : std::string{}));
      elastic.push_back(c);
    }
    rows.push_back(row);
  }
  print_table("elastic", header, rows);
  if (out != nullptr) write_json(out, cfg, shipped, paper, cells, elastic);
  return 0;
}
