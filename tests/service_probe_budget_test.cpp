// The fixed service's probe budget at full design load.
//
// RenamingServiceOptions defaults layout_extra to a practical t0 (see
// docs/protocols.md, "Service probe budget") instead of the paper's proof
// constant ceil(17 ln(8e/eps) / eps), which is 129 probes on B_0 at
// eps = 0.5. This test fills one shard to its design load n, one
// acquisition at a time, and pins the probe-length tail that default
// buys: a return to the proof constant (layout_extra = {}) fails it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "platform/rng.h"
#include "platform/stats.h"
#include "renaming/service.h"
#include "renaming/shard_group.h"
#include "test_seed.h"

namespace loren {
namespace {

constexpr std::uint64_t kHolders = 4096;
constexpr double kEpsilon = 0.5;

BatchLayoutParams with_epsilon(BatchLayoutParams params) {
  params.epsilon = kEpsilon;
  return params;
}

/// Probes per acquisition of a seeded one-shot fill of a one-shard group
/// to kHolders names. A schedule miss falls back to the sweep, the way
/// the service does, and counts as the full schedule walk it cost.
std::vector<double> fill_probes(const BatchLayoutParams& params,
                                std::uint64_t seed) {
  ShardGroup group(/*tag=*/0, /*generation=*/1, kHolders, /*shards=*/1,
                   ArenaKind::kCellProbe,
                   std::make_shared<const CachedSchedule>(kHolders, params));
  Xoshiro256 rng(seed);
  std::uint32_t sticky = 0;
  std::vector<double> probes;
  probes.reserve(kHolders);
  for (std::uint64_t i = 0; i < kHolders; ++i) {
    ShardGroup::ProbeStats stats;
    std::int64_t local = group.try_acquire(rng, &sticky, &stats);
    if (local < 0) local = group.sweep_acquire(&sticky);
    EXPECT_GE(local, 0) << "fill failed at holder " << i;
    probes.push_back(static_cast<double>(stats.probes));
  }
  return probes;
}

TEST(ServiceProbeBudget, DefaultTailAtFullDesignLoad) {
  const std::uint64_t seed = test::stress_seed("ServiceProbeBudget", 0xB0D6E7);
  const BatchLayoutParams shipped =
      with_epsilon(RenamingServiceOptions{}.layout_extra);
  const BatchLayoutParams paper = with_epsilon(BatchLayoutParams{});

  const double shipped_p99 = quantile(fill_probes(shipped, seed), 0.99);
  const double paper_p99 = quantile(fill_probes(paper, seed), 0.99);
  // A quarter of the proof constant's tail: over seeds 1-200 the shipped
  // p99 is 9-10 probes and the proof constant's 61-97.
  EXPECT_LE(shipped_p99, paper_p99 / 4)
      << "shipped p99 " << shipped_p99 << " vs proof-constant p99 "
      << paper_p99;
  // And within one walk of the default schedule: at full design load the
  // tail still ends in the schedule, not in the sweep.
  EXPECT_LE(shipped_p99,
            BatchLayout(kHolders, shipped).max_probes_main_phase());
}

}  // namespace
}  // namespace loren
