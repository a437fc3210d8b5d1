// Shared plumbing for perfbench: the tick clock, latency histograms,
// process memory, host facts and the span recorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The per-call timer. rdtsc where the ISA has it (half the cost of a
/// clock_gettime on a virtualized host), steady_clock nanoseconds
/// elsewhere; ns_per_tick() converts.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
#endif
}

/// Nanoseconds per tick, calibrated once per process against steady_clock.
double ns_per_tick();

/// Wall-clock nanoseconds on one clock shared by every thread: the stamp
/// the op-history checker orders events by.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Latency histogram over tick counts: exact below 2048 ticks, then 1024
/// linear sub-buckets per power of two (0.1% resolution). Single-writer;
/// merged after the workers join.
class LatencyHist {
 public:
  LatencyHist();
  void record(std::uint64_t v) {
    ++counts_[bucket(v)];
    ++n_;
  }
  void merge(const LatencyHist& o);
  [[nodiscard]] std::uint64_t count() const { return n_; }
  /// Quantile in ticks, linearly interpolated inside its bucket.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;
  /// Frees the buckets once merged elsewhere (the count stays).
  void release_memory() { std::vector<std::uint64_t>().swap(counts_); }

 private:
  static constexpr std::uint32_t kLinear = 2048;
  static constexpr std::uint32_t kSub = 1024;
  static constexpr std::uint32_t kMaxExp = 48;
  static std::uint32_t bucket(std::uint64_t v);
  static void bounds(std::uint32_t b, double& lo, double& hi);
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// Process peak resident set (getrusage ru_maxrss), in KiB.
std::uint64_t peak_rss_kb();
/// Current resident set (/proc/self/statm), in KiB; 0 where unavailable.
std::uint64_t current_rss_kb();

struct HostInfo {
  unsigned logical_cores = 0;
  unsigned physical_cores = 0;
  std::string cpu_model;
  std::string build_type;
};
HostInfo host_info();

/// Median of a copy of `v` (0 when empty).
double median(std::vector<double> v);

/// Spin barrier for a fixed party of threads; reusable across phases.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned parties) : parties_(parties) {}
  void wait();

 private:
  const unsigned parties_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> phase_{0};
};

/// One span around a benchmark call into a library layer. Spans of one
/// round share `round`; `parent` is the enclosing span's index (-1 for a
/// round span).
struct Span {
  const char* name = nullptr;
  std::uint64_t start = 0;  // ticks
  std::uint64_t end = 0;    // ticks
  std::int32_t parent = -1;
  std::uint32_t round = 0;
  std::uint32_t thread = 0;
};

/// Per-thread span buffer with a fixed cap: spans past the cap are
/// dropped, so tracing never allocates in a timed loop.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t cap = 0) { spans_.reserve(cap); }
  /// Returns the span's index, or -1 when the buffer is full.
  std::int32_t add(const Span& s) {
    if (spans_.size() == spans_.capacity()) return -1;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  Span& at(std::size_t i) { return spans_[i]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes spans as Chrome trace-event JSON (timestamps in microseconds).
bool write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& per_thread);

}  // namespace perfbench
