// Seeded op scripts: every random choice a workload makes (batch sizes,
// release order, crash schedule) is drawn here, before timing, from the
// workload seed. The timed loops only read these arrays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t { kPoolChurn, kFillDrain, kBurstGrow, kCrashChurn };

const char* workload_name(Workload w);
bool parse_workload(const std::string& s, Workload& out);

/// One fill/drain cycle for one worker: acquire batches (1 = acquire(),
/// otherwise acquire_many) until `quota` names are held, then release
/// them in `order` (a permutation of the held positions) in chunks.
struct CycleScript {
  std::vector<std::uint8_t> fill;   // acquire batch sizes, summing to quota
  std::vector<std::uint32_t> order; // release order over held positions
  std::vector<std::uint8_t> drain;  // release chunk sizes, summing to quota
};

/// One short-lived holder thread (crash-churn).
struct LifetimeScript {
  std::vector<std::uint8_t> steps;  // names replaced per step, 1..kRing
  bool crash = false;               // exits holding its ring
};

struct WorkerScript {
  // pool-churn: acquire batch sizes; the worker releases the same count,
  // oldest first, so its window stays at kPoolWindow.
  std::vector<std::uint8_t> pool;
  // fill-drain / burst-grow: cycle c of a round runs cycles[c % size].
  std::vector<CycleScript> cycles;
};

struct Script {
  Workload workload = Workload::kPoolChurn;
  std::uint64_t seed = 0;
  std::vector<WorkerScript> workers;
  // crash-churn: lifetime i of a round runs lifetimes[i].
  std::vector<LifetimeScript> lifetimes;

  /// Canonical byte encoding (the determinism self-test compares these).
  [[nodiscard]] std::vector<std::uint8_t> bytes() const;
};

/// Shape of one workload; `scale` (0 < scale <= 1) shrinks the per-round
/// work for the small checked round.
struct Shape {
  std::uint64_t service_n = 0;    // holders the service is constructed for
  std::uint64_t live_target = 0;  // peak live names across all workers
  std::uint32_t pool_steps = 0;   // pool-churn steps per worker per round
  std::uint32_t cycles = 0;       // fill/drain cycles per round
  std::uint32_t lifetimes = 0;    // crash-churn holder lifetimes per round
  std::uint32_t lifetime_steps = 0;
};

inline constexpr std::uint32_t kPoolWindow = 64;
inline constexpr std::uint32_t kPoolScriptSteps = 1u << 16;
inline constexpr std::uint32_t kCycleScripts = 4;
inline constexpr std::uint32_t kRing = 8;
inline constexpr std::uint32_t kCrashEvery = 4;

Shape shape_of(Workload w, double scale = 1.0);

/// Generates every worker's script for (workload, seed, workers).
Script make_script(Workload w, std::uint64_t seed, unsigned workers,
                   const Shape& shape);

}  // namespace perfbench
