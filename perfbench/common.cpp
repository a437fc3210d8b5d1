#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <utility>

namespace perfbench {

double ns_per_tick() {
  static const double ratio = [] {
    const std::uint64_t k0 = ticks();
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t k1 = ticks();
    const auto t1 = Clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    return k1 > k0 ? ns / static_cast<double>(k1 - k0) : 1.0;
  }();
  return ratio;
}

LatencyHist::LatencyHist() : counts_(kLinear + kMaxExp * kSub, 0) {}

std::uint32_t LatencyHist::bucket(std::uint64_t v) {
  if (v < kLinear) return static_cast<std::uint32_t>(v);
  // v >= 2048: keep the top 11 bits (a value in [1024, 2048)) and its shift.
  const std::uint32_t e = static_cast<std::uint32_t>(std::bit_width(v)) - 11;
  const std::uint32_t idx = std::min(e, kMaxExp) - 1;
  const std::uint64_t sub = std::min<std::uint64_t>(v >> e, 2 * kSub - 1) - kSub;
  return kLinear + idx * kSub + static_cast<std::uint32_t>(sub);
}

void LatencyHist::bounds(std::uint32_t b, double& lo, double& hi) {
  if (b < kLinear) {
    lo = b;
    hi = b + 1.0;
    return;
  }
  const std::uint32_t e = (b - kLinear) / kSub + 1;
  const double sub = static_cast<double>((b - kLinear) % kSub + kSub);
  const double scale = static_cast<double>(std::uint64_t{1} << e);
  lo = sub * scale;
  hi = (sub + 1) * scale;
}

void LatencyHist::merge(const LatencyHist& o) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

double LatencyHist::quantile(double q) const {
  if (n_ == 0) return 0;
  const double target = q * static_cast<double>(n_);
  double seen = 0;
  for (std::uint32_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double c = static_cast<double>(counts_[b]);
    if (seen + c >= target) {
      double lo = 0, hi = 0;
      bounds(b, lo, hi);
      return lo + (hi - lo) * (target - seen) / c;
    }
    seen += c;
  }
  return 0;
}

double LatencyHist::mean() const {
  if (n_ == 0) return 0;
  double sum = 0;
  for (std::uint32_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    double lo = 0, hi = 0;
    bounds(b, lo, hi);
    sum += static_cast<double>(counts_[b]) * (lo + hi) / 2;
  }
  return sum / static_cast<double>(n_);
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::uint64_t current_rss_kb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(f >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

HostInfo host_info() {
  HostInfo h;
  h.logical_cores = std::thread::hardware_concurrency();
  h.build_type = PERFBENCH_BUILD_TYPE;
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  std::set<std::pair<std::string, std::string>> cores;  // (package, core)
  std::string package;
  while (std::getline(f, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (key == "model name" && h.cpu_model.empty()) h.cpu_model = value;
    if (key == "physical id") package = value;
    if (key == "core id") cores.emplace(package, value);
  }
  h.physical_cores = cores.empty() ? h.logical_cores
                                   : static_cast<unsigned>(cores.size());
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

void SpinBarrier::wait() {
  const unsigned phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(phase + 1, std::memory_order_release);
    return;
  }
  while (phase_.load(std::memory_order_acquire) == phase) {
    std::this_thread::yield();
  }
}

bool write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double us = ns_per_tick() / 1000.0;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& spans : per_thread) {
    for (const Span& s : spans) origin = std::min(origin, s.start);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& spans : per_thread) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"round\":%u}}",
                   first ? "" : ",", s.name, s.thread,
                   static_cast<double>(s.start - origin) * us,
                   static_cast<double>(s.end - s.start) * us, i, s.parent,
                   s.round);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
