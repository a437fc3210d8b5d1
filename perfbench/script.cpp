#include "script.h"

#include <algorithm>
#include <cstring>

#include "platform/rng.h"

namespace perfbench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPoolChurn: return "pool-churn";
    case Workload::kFillDrain: return "fill-drain";
    case Workload::kBurstGrow: return "burst-grow";
    case Workload::kCrashChurn: return "crash-churn";
  }
  return "?";
}

bool parse_workload(const std::string& s, Workload& out) {
  for (const Workload w : {Workload::kPoolChurn, Workload::kFillDrain,
                           Workload::kBurstGrow, Workload::kCrashChurn}) {
    if (s == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

Shape shape_of(Workload w, double scale) {
  auto scaled = [scale](std::uint32_t v) {
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(v * scale));
  };
  Shape s;
  switch (w) {
    case Workload::kPoolChurn:
      s.service_n = 16384;
      s.pool_steps = scaled(1u << 21);
      break;
    case Workload::kFillDrain:
      s.service_n = 16384;
      s.live_target = 16384;
      s.cycles = scaled(96);
      break;
    case Workload::kBurstGrow:
      s.service_n = 1024;
      s.live_target = 60000;
      s.cycles = scaled(24);
      break;
    case Workload::kCrashChurn:
      s.service_n = 4096;
      s.lifetimes = scaled(384);
      s.lifetime_steps = 2048;
      break;
  }
  return s;
}

namespace {

// Half of all steps are singles (acquire()/release()), the rest batches
// drawn uniformly from [2, max] (acquire_many/release_many), so both
// surfaces carry traffic.
std::uint8_t draw_batch(loren::Xoshiro256& rng, std::uint32_t max) {
  if (rng.below(2) == 0) return 1;
  return static_cast<std::uint8_t>(2 + rng.below(max - 1));
}

// Fill/drain chunks: singles or full batches of 16, clamped to what is
// left of the quota.
std::vector<std::uint8_t> draw_chunks(loren::Xoshiro256& rng,
                                      std::uint32_t quota) {
  std::vector<std::uint8_t> out;
  std::uint32_t left = quota;
  while (left > 0) {
    const std::uint32_t want = rng.below(2) == 0 ? 1 : 16;
    const std::uint32_t b = std::min(want, left);
    out.push_back(static_cast<std::uint8_t>(b));
    left -= b;
  }
  return out;
}

void put(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, p, n);
}

template <typename T>
void put_vec(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  put(out, &n, sizeof n);
  if (!v.empty()) put(out, v.data(), v.size() * sizeof(T));
}

}  // namespace

Script make_script(Workload w, std::uint64_t seed, unsigned workers,
                   const Shape& shape) {
  Script s;
  s.workload = w;
  s.seed = seed;
  s.workers.resize(workers);
  for (unsigned t = 0; t < workers; ++t) {
    loren::Xoshiro256 rng(loren::mix_seed(seed, t));
    WorkerScript& ws = s.workers[t];
    if (w == Workload::kPoolChurn) {
      ws.pool.resize(kPoolScriptSteps);
      for (auto& b : ws.pool) b = draw_batch(rng, 16);
    } else if (w == Workload::kFillDrain || w == Workload::kBurstGrow) {
      const std::uint32_t quota =
          static_cast<std::uint32_t>(shape.live_target / workers);
      ws.cycles.resize(kCycleScripts);
      for (CycleScript& c : ws.cycles) {
        c.fill = draw_chunks(rng, quota);
        c.order.resize(quota);
        for (std::uint32_t i = 0; i < quota; ++i) c.order[i] = i;
        for (std::uint32_t i = quota; i > 1; --i) {
          std::swap(c.order[i - 1], c.order[rng.below(i)]);
        }
        c.drain = draw_chunks(rng, quota);
      }
    }
  }
  if (w == Workload::kCrashChurn) {
    loren::Xoshiro256 rng(loren::mix_seed(seed, workers));
    s.lifetimes.resize(shape.lifetimes);
    for (std::uint32_t i = 0; i < shape.lifetimes; ++i) {
      LifetimeScript& l = s.lifetimes[i];
      l.steps.resize(shape.lifetime_steps);
      for (auto& b : l.steps) b = draw_batch(rng, kRing);
      l.crash = i % kCrashEvery == kCrashEvery - 1;
    }
  }
  return s;
}

std::vector<std::uint8_t> Script::bytes() const {
  std::vector<std::uint8_t> out;
  const auto wl = static_cast<std::uint8_t>(workload);
  put(out, &wl, 1);
  put(out, &seed, sizeof seed);
  for (const WorkerScript& ws : workers) {
    put_vec(out, ws.pool);
    for (const CycleScript& c : ws.cycles) {
      put_vec(out, c.fill);
      put_vec(out, c.order);
      put_vec(out, c.drain);
    }
  }
  for (const LifetimeScript& l : lifetimes) {
    put_vec(out, l.steps);
    const std::uint8_t crash = l.crash ? 1 : 0;
    put(out, &crash, 1);
  }
  return out;
}

}  // namespace perfbench
