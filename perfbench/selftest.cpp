// The benchmark's own tests: op scripts are a pure function of the seed,
// and the history checker flags a planted overlapping-holder history
// while passing legal ones. main() runs them before every workload.
#include "selftest.h"

#include <cstdio>

#include "history.h"
#include "script.h"

namespace perfbench {

namespace {

bool expect(bool cond, const char* what) {
  if (!cond) std::fprintf(stderr, "selftest failed: %s\n", what);
  return cond;
}

OpEvent ev(std::int64_t s, std::int64_t e, std::int64_t name, OpKind k) {
  return {s, e, name, k};
}

bool scripts_are_deterministic() {
  bool ok = true;
  for (const Workload w : {Workload::kPoolChurn, Workload::kFillDrain,
                           Workload::kBurstGrow, Workload::kCrashChurn}) {
    const Shape shape = shape_of(w, 1.0 / 16);
    const auto a = make_script(w, 42, 3, shape).bytes();
    const auto b = make_script(w, 42, 3, shape).bytes();
    const auto c = make_script(w, 43, 3, shape).bytes();
    ok &= expect(a == b, "one seed yields byte-identical scripts");
    ok &= expect(a != c, "different seeds yield different scripts");
  }
  return ok;
}

bool checker_flags_planted_histories() {
  using K = OpKind;
  bool ok = true;
  // Thread 1 is granted name 5 while thread 0 surely holds it.
  const std::vector<History> overlap = {
      {ev(0, 10, 5, K::kAcquire), ev(100, 110, 5, K::kRelease)},
      {ev(20, 30, 5, K::kAcquire), ev(40, 50, 5, K::kRelease)}};
  ok &= expect(!check_histories(overlap, 64).ok, "overlapping holders are flagged");
  // A crashed holder still holds its name until it exits.
  const std::vector<History> early_regrant = {
      {ev(0, 10, 7, K::kAcquire), ev(100, 100, 7, K::kAbandon)},
      {ev(40, 50, 7, K::kAcquire)}};
  ok &= expect(!check_histories(early_regrant, 64).ok,
               "a re-grant before the holder exits is flagged");
  const std::vector<History> twice = {
      {ev(0, 1, 3, K::kAcquire), ev(2, 3, 3, K::kAcquire)}};
  ok &= expect(!check_histories(twice, 64).ok, "a double grant is flagged");
  const std::vector<History> foreign = {{ev(0, 1, 3, K::kRelease)}};
  ok &= expect(!check_histories(foreign, 64).ok, "a foreign release is flagged");
  const std::vector<History> outside = {{ev(0, 1, 64, K::kAcquire)}};
  ok &= expect(!check_histories(outside, 64).ok, "a name past the bound is flagged");

  // Legal: the second grant's call starts before the release returns,
  // but ends after the release began.
  const std::vector<History> handoff = {
      {ev(0, 10, 5, K::kAcquire), ev(50, 60, 5, K::kRelease)},
      {ev(55, 70, 5, K::kAcquire), ev(80, 90, 5, K::kRelease)}};
  ok &= expect(check_histories(handoff, 64).ok, "a hand-off passes");
  const std::vector<History> reaped = {
      {ev(0, 10, 7, K::kAcquire), ev(20, 20, 7, K::kAbandon)},
      {ev(40, 50, 7, K::kAcquire)}};
  ok &= expect(check_histories(reaped, 64).ok, "a re-grant after the holder exits passes");
  return ok;
}

}  // namespace

bool run_selftests() {
  const bool a = scripts_are_deterministic();
  const bool b = checker_flags_planted_histories();
  return a && b;
}

}  // namespace perfbench
