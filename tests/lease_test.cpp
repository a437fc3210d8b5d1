// The lease subsystem (lease/lease_table.h) under a fake, test-owned
// clock — every deadline comparison here is exact, not timing-dependent:
//
//   * open/close/renew/rebind/validate units — live counts, close-after-
//     close and renew-after-expiry guard trips, rebind re-homing a lease
//     onto a new holder's heartbeat;
//   * expiry boundary — a holderless lease expires at exactly open + ttl
//     + grace, never one tick earlier (the "no false expiry" half of the
//     reaper contract, checked to the tick);
//   * heartbeat counts — a holder that keeps beating keeps every lease
//     alive indefinitely; once it stops, its leases expire ttl + grace
//     after the reaper first saw the final count, never earlier, and a
//     beat the reaper did not see yet defers the expiry;
//   * the doom handshake — a holder that wakes mid-scan sees the doom,
//     drops the names already expired and keeps the rest;
//   * clock jumps — deadlines at deltas around 64 / 4096 / 262144 (the
//     level boundaries of the timer wheel the table once used) expire
//     exactly on time, and one coarse jump expires each exactly once;
//   * op-path scan gate — try_reap scans at most once per scan period,
//     never expires early, and is at most one period late;
//   * heartbeat directory — holders registered across several directory
//     chunks keep distinct identities, and the reaper resolves each one;
//   * lock-free protocol under real threads (TSan) — holders racing a
//     reaper on a fast clock: every expiry reclaimed exactly once, no
//     holder op wins a lease the reaper already expired; stash churners
//     against a reaper that dooms them never share a name;
//   * service integration (both services) — abandoned names are reaped
//     back into the arena and become re-acquirable, a revived holder's
//     late release is rejected, renew_lease reports kLeaseExpired; on the
//     elastic word scan, a reaped cell reissued to the same thread frees
//     exactly once. A reap after an idle period only observes the
//     holders' counts, so these cases reap once before each clock jump.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "lease/lease_table.h"
#include "platform/rng.h"
#include "renaming/service.h"
#include "test_seed.h"

namespace loren {
namespace {

using sim::Name;

// The injected clock: a plain function reading a test-owned tick. The
// LeaseOptions clock hook is a stateless function pointer, so the tick
// lives in a file-scope atomic each test resets in its fixture.
std::atomic<std::uint64_t> g_now{0};
std::uint64_t fake_now() { return g_now.load(std::memory_order_relaxed); }

// Reclaim recorder: the table's callback target for the unit tests.
struct Reclaimed {
  std::vector<Name> names;
  static bool sink(void* ctx, Name n) {
    static_cast<Reclaimed*>(ctx)->names.push_back(n);
    return true;
  }
};

lease::LeaseOptions opts_with(std::uint64_t ttl, std::uint64_t grace = 0) {
  lease::LeaseOptions o;
  o.ttl_ticks = ttl;
  o.grace = grace;
  o.clock = &fake_now;
  return o;
}

class LeaseUnit : public ::testing::Test {
 protected:
  void SetUp() override { g_now.store(1, std::memory_order_relaxed); }
};

// ------------------------------------------------------------ units ----

TEST_F(LeaseUnit, OpenCloseLiveCounts) {
  lease::LeaseTable t(opts_with(100), nullptr);
  for (Name n = 0; n < 10; ++n) t.open(n, t.now(), nullptr, nullptr);
  EXPECT_EQ(t.leases_live(), 10u);
  EXPECT_EQ(t.opened(), 10u);
  for (Name n = 0; n < 10; ++n) EXPECT_TRUE(t.close(n, nullptr, nullptr));
  EXPECT_EQ(t.leases_live(), 0u);
  // A second close finds the lease gone: guard trip, not a crash.
  EXPECT_FALSE(t.close(3, nullptr, nullptr));
  EXPECT_EQ(t.guard_trips(), 1u);
}

TEST_F(LeaseUnit, ExpiresAtExactlyTtlPlusGraceNeverEarlier) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/10), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  g_now = 100;
  t.open(7, t.now(), nullptr, nullptr);
  // The effective deadline is open + ttl + grace = 160; the tick *before*
  // it must expire nothing — early expiry is the one forbidden outcome.
  g_now = 159;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  EXPECT_EQ(t.leases_live(), 1u);
  g_now = 160;
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u);
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(t.expired(), 1u);
  ASSERT_EQ(rec.names.size(), 1u);
  EXPECT_EQ(rec.names[0], 7);
  // The reaper won: the holder's late close is rejected.
  EXPECT_FALSE(t.close(7, nullptr, nullptr));
}

TEST_F(LeaseUnit, BeatingHolderKeepsEveryLeaseAliveUntilItStops) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/5), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& hb = t.register_thread();
  for (Name n = 0; n < 8; ++n) t.open(n, 0, &hb, nullptr);
  // Beat every 40 ticks (< ttl + grace) and reap every 10: across 16
  // deadline-spans of wall time nothing may expire — one beat renews all
  // eight leases at once, and a count still for under ttl + grace is
  // never enough.
  for (int i = 0; i < 80; ++i) {
    g_now += 10;
    if (i % 4 == 0) hb.beat();
    EXPECT_EQ(t.reap(t.now(), nullptr), 0u) << "false expiry at pass " << i;
  }
  EXPECT_EQ(t.leases_live(), 8u);
  // Holder dies after one last beat, which the reaper observes at once:
  // everything expires at beat + ttl + grace, and the tick before that
  // is still alive.
  g_now += 10;
  hb.beat();
  const std::uint64_t last = fake_now();
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = last + 50 + 5 - 1;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = last + 50 + 5;
  EXPECT_EQ(t.reap(t.now(), nullptr), 8u);
  EXPECT_EQ(t.leases_live(), 0u);
  EXPECT_EQ(rec.names.size(), 8u);
}

TEST_F(LeaseUnit, RenewPushesTheDeadlineAndFailsAfterExpiry) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/30), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  g_now = 10;
  t.open(1, t.now(), nullptr, nullptr);
  g_now = 35;  // 5 ticks before the original deadline
  EXPECT_TRUE(t.renew(1, t.now(), nullptr, nullptr));
  g_now = 64;  // past the original deadline (40), inside the renewed (65)
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = 65;
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u);
  EXPECT_FALSE(t.renew(1, t.now(), nullptr, nullptr))
      << "renew revived a dead lease";
  EXPECT_GE(t.guard_trips(), 1u);
}

TEST_F(LeaseUnit, RebindEnforcesHolderIdentity) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& a = t.register_thread();
  lease::Heartbeat& b = t.register_thread();
  t.open(9, 0, &a, nullptr);
  EXPECT_TRUE(t.validate(9, &a));
  EXPECT_FALSE(t.validate(9, &b)) << "validate matched a foreign holder";
  // A lease bound to a live holder is not stealable — the same-bits ABA
  // defense: when a reaped name is reissued, the revived original holder
  // presents the wrong heartbeat and every mutation is rejected instead
  // of silently applied to the new holder's lease.
  EXPECT_FALSE(t.rebind(9, &b));
  EXPECT_FALSE(t.close(9, &b, nullptr)) << "foreign close closed a's lease";
  EXPECT_FALSE(t.renew(9, t.now(), &b, nullptr));
  EXPECT_GE(t.guard_trips(), 3u);
  EXPECT_EQ(t.leases_live(), 1u);
  // Self-rebind is the refresh path (a stash re-absorb by the holder).
  EXPECT_TRUE(t.rebind(9, &a));
  EXPECT_TRUE(t.close(9, &a, nullptr));
  // A holderless lease may be adopted by anyone; from then on only the
  // adopter's count sustains it.
  g_now = 1000;
  t.open(11, t.now(), nullptr, nullptr);
  b.beat();
  EXPECT_TRUE(t.rebind(11, &b));
  EXPECT_TRUE(t.validate(11, &b));
  for (int i = 0; i < 4; ++i) {
    g_now += 40;
    b.beat();
    EXPECT_EQ(t.reap(t.now(), nullptr), 0u) << "rebind lost the new holder";
  }
  // b stops (the last reap saw its final count); a's beats must not
  // count for b's lease.
  const std::uint64_t b_last = fake_now();
  for (int i = 0; i < 6; ++i) {
    g_now += 10;
    a.beat();
    EXPECT_EQ(t.reap(t.now(), nullptr), fake_now() == b_last + 50 ? 1u : 0u)
        << "a foreign heartbeat kept a rebound lease alive at pass " << i;
  }
  EXPECT_EQ(t.leases_live(), 0u);
}

TEST_F(LeaseUnit, SelfRebindAfterABeatExpiresAtBeatPlusTtlPlusGrace) {
  // A rebind takes no tick: a lease rebound by its holder lives exactly
  // as long as the holder's count moves. Opened at 1, so an expiry at
  // 1 + 50 + 5 = 56 would be early once the holder beat at 30.
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/5), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& a = t.register_thread();
  a.beat();
  t.open(3, 0, &a, nullptr);
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);  // observes the count at 1
  g_now = 30;
  a.beat();
  EXPECT_TRUE(t.rebind(3, &a));
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);  // observes the beat at 30
  g_now = 30 + 50 + 5 - 1;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u) << "rebound lease expired early";
  g_now = 30 + 50 + 5;
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u) << "rebound lease expired late";
}

TEST_F(LeaseUnit, AnUnobservedBeatStillDefersExpiry) {
  // The reaper last saw the count at 1; the holder beats at 30 and no
  // scan runs until 56, the old expiry tick. That scan sees a moved count
  // and restarts the still period instead of expiring, so the lease
  // dies at 56 + ttl + grace: late by the gap between the beat and its
  // first observation, never early.
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/5), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  lease::Heartbeat& a = t.register_thread();
  a.beat();
  t.open(3, 0, &a, nullptr);
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = 30;
  a.beat();
  g_now = 1 + 50 + 5;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u)
      << "an unobserved beat did not defer the expiry";
  g_now = 56 + 50 + 5 - 1;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = 56 + 50 + 5;
  EXPECT_EQ(t.reap(t.now(), nullptr), 1u);
}

TEST_F(LeaseUnit, HolderThatSeesTheDoomWinsTheOwnerWord) {
  // The handshake order where the holder sees the doom: the reaper dooms
  // a quiet holder and expires its stale leases in cell order; the
  // reclaim of cell 1 hands control to the holder mid-scan. Its next
  // call sees the doom, and its stash revalidation (validate, an
  // owner-word CAS) decides each parked name: the names the reaper
  // already expired are gone (counted trips), the names it has not
  // reached are the holder's again, and the reaper, reaching them with
  // the count moved, skips them. The race of the revalidation CAS with
  // an expiry CAS already past its checks is pinned under the scenario
  // engine (ScenarioLease.HandshakeDoomSeenRevalidationWinsTheOwnerWord).
  struct Holder {
    lease::LeaseTable* t = nullptr;
    lease::Heartbeat* hb = nullptr;
    std::vector<Name> reclaimed;
    std::vector<Name> kept;
    bool doomed = false;
    static bool sink(void* ctx, Name n) {
      auto* h = static_cast<Holder*>(ctx);
      h->reclaimed.push_back(n);
      if (n == 1) {
        h->doomed = h->hb->beat().doomed;
        for (Name m = 0; m < 4; ++m) {
          if (h->t->validate(m, h->hb)) h->kept.push_back(m);
        }
      }
      return true;
    }
  } holder;
  lease::LeaseTable t(opts_with(/*ttl=*/50, /*grace=*/5), nullptr);
  t.set_reclaimer(&Holder::sink, &holder);
  lease::Heartbeat& a = t.register_thread();
  holder.t = &t;
  holder.hb = &a;
  a.beat();
  for (Name n = 0; n < 4; ++n) t.open(n, 0, &a, nullptr);
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  g_now = 1 + 50 + 5;
  // Cells 0 and 1 expire; the holder wakes in cell 1's reclaim, sees the
  // doom, and revalidates: 0 and 1 are gone, 2 and 3 are its own again.
  // Cells 2 and 3 then show a moved count, so the reaper skips them.
  EXPECT_EQ(t.reap(t.now(), nullptr), 2u);
  EXPECT_TRUE(holder.doomed) << "the holder missed the doom";
  EXPECT_EQ(holder.reclaimed, (std::vector<Name>{0, 1}));
  EXPECT_EQ(holder.kept, (std::vector<Name>{2, 3}));
  EXPECT_EQ(t.leases_live(), 2u);
  EXPECT_EQ(t.guard_trips(), 2u) << "each dropped name is one counted trip";
}

TEST_F(LeaseUnit, WheelCascadeExpiresInDeadlineOrderAcrossClockJumps) {
  // Deltas straddling every wheel-level boundary (levels cover 64, 4096,
  // 262144, 16777216 ticks): each lease must survive any reap before its
  // deadline and die on the first reap at-or-after it — including when
  // the clock jumps over several levels' worth of slots at once.
  const std::vector<std::uint64_t> deltas = {1,    2,    63,     64,    65,
                                             100,  4095, 4096,   4097,  9000,
                                             262143, 262144, 262145, 300000};
  const std::uint64_t base = 1000;
  // Per-delta boundary exactness: ttl = delta puts the deadline exactly
  // at base + delta (fresh table per delta so each level is hit alone).
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    SCOPED_TRACE("delta " + std::to_string(deltas[i]));
    Reclaimed r2;
    lease::LeaseTable t2(opts_with(deltas[i]), nullptr);
    t2.set_reclaimer(&Reclaimed::sink, &r2);
    g_now = base;
    t2.open(static_cast<Name>(i), t2.now(), nullptr, nullptr);
    g_now = base + deltas[i] - 1;
    EXPECT_EQ(t2.reap(t2.now(), nullptr), 0u) << "expired a tick early";
    g_now = base + deltas[i];
    EXPECT_EQ(t2.reap(t2.now(), nullptr), 1u) << "failed to expire on time";
  }
  // One shared table, all deadlines staggered, a single coarse jump past
  // every one of them: the cascade must surface each lease exactly once.
  Reclaimed all;
  lease::LeaseTable big(opts_with(/*ttl=*/10), nullptr);
  big.set_reclaimer(&Reclaimed::sink, &all);
  g_now = base;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    g_now = base + deltas[i];  // staggered open times => staggered deadlines
    big.open(static_cast<Name>(100 + i), big.now(), nullptr, nullptr);
  }
  g_now = base + 400000;  // one jump over every level
  EXPECT_EQ(big.reap(big.now(), nullptr), deltas.size());
  EXPECT_EQ(big.leases_live(), 0u);
  std::set<Name> uniq(all.names.begin(), all.names.end());
  EXPECT_EQ(uniq.size(), deltas.size()) << "a lease expired twice or never";
}

TEST_F(LeaseUnit, ClearDropsEverythingWithoutReclaiming) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/10), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  for (Name n = 0; n < 5; ++n) t.open(n, t.now(), nullptr, nullptr);
  t.clear();
  EXPECT_EQ(t.leases_live(), 0u);
  g_now += 1000;
  EXPECT_EQ(t.reap(t.now(), nullptr), 0u);
  EXPECT_TRUE(rec.names.empty()) << "clear() must not reclaim cells";
}

TEST_F(LeaseUnit, TryReapScansOncePerPeriodAndIsAtMostOnePeriodLate) {
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/160, /*grace=*/32), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  const std::uint64_t period = t.scan_period();
  ASSERT_EQ(period, (160u + 32u) / 16u);
  g_now = 100;
  t.open(1, t.now(), nullptr, nullptr);  // stale from 100 + 160 + 32 = 292
  g_now = 101;
  t.open(2, t.now(), nullptr, nullptr);  // stale from 293
  // The first poll at 292 claims a scan and expires lease 1 only.
  g_now = 292;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), 1u);
  // Inside the same period no poll scans, though lease 2 is now stale.
  for (g_now = 293; g_now < 292 + period; ++g_now) {
    EXPECT_FALSE(t.scan_due(t.now()));
    EXPECT_EQ(t.try_reap(t.now(), nullptr), 0u) << "scanned twice in a period";
  }
  EXPECT_EQ(t.leases_live(), 1u);
  g_now = 292 + period;
  EXPECT_EQ(t.try_reap(t.now(), nullptr), 1u);
  EXPECT_EQ(t.leases_live(), 0u);

  // Lateness bound under irregular polling: each lease dies no earlier
  // than deadline + grace, and no later than the first poll at or after
  // deadline + grace + one period.
  Reclaimed late;
  lease::LeaseTable u(opts_with(/*ttl=*/160, /*grace=*/32), nullptr);
  u.set_reclaimer(&Reclaimed::sink, &late);
  std::vector<std::uint64_t> stale_at;
  for (Name n = 0; n < 16; ++n) {
    g_now = 1000 + 37 * static_cast<std::uint64_t>(n);
    u.open(n, u.now(), nullptr, nullptr);
    stale_at.push_back(fake_now() + 160 + 32);
  }
  std::vector<std::uint64_t> died_at(stale_at.size(), 0);
  Xoshiro256 rng(0x5CA9);
  while (late.names.size() < stale_at.size()) {
    g_now += 1 + rng.below(2 * period);
    const std::size_t before = late.names.size();
    u.try_reap(u.now(), nullptr);
    for (std::size_t i = before; i < late.names.size(); ++i) {
      died_at[static_cast<std::size_t>(late.names[i])] = fake_now();
    }
    for (std::size_t n = 0; n < stale_at.size(); ++n) {
      if (fake_now() >= stale_at[n] + period) {
        EXPECT_NE(died_at[n], 0u) << "lease " << n << " outlived a period";
      }
    }
  }
  for (std::size_t n = 0; n < stale_at.size(); ++n) {
    EXPECT_GE(died_at[n], stale_at[n]) << "lease " << n << " expired early";
  }
}

TEST_F(LeaseUnit, HeartbeatDirectoryKeepsHoldersDistinctAcrossChunks) {
  // More holders than one directory chunk holds: every heartbeat must be
  // its own node, and the reaper must resolve each lease to its own
  // holder's count — only the holders that stopped beating lose leases.
  Reclaimed rec;
  lease::LeaseTable t(opts_with(/*ttl=*/50), nullptr);
  t.set_reclaimer(&Reclaimed::sink, &rec);
  constexpr int kHolders = 300;
  std::vector<lease::Heartbeat*> hbs;
  std::set<const lease::Heartbeat*> nodes;
  std::set<std::uint32_t> ids;
  for (int i = 0; i < kHolders; ++i) {
    lease::Heartbeat& hb = t.register_thread();
    hbs.push_back(&hb);
    nodes.insert(&hb);
    ids.insert(hb.id);
    t.open(i, 0, &hb, nullptr);
  }
  EXPECT_EQ(nodes.size(), static_cast<std::size_t>(kHolders));
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kHolders));
  for (int i = 0; i < kHolders; ++i) {
    EXPECT_TRUE(t.validate(i, hbs[i]));
    EXPECT_FALSE(t.validate(i, hbs[(i + 1) % kHolders]));
  }
  // Odd holders keep beating; even holders go quiet. The first pass only
  // observes every count; the even ones then stand still past ttl.
  for (int pass = 0; pass < 3; ++pass) {
    g_now += 40;
    for (int i = 1; i < kHolders; i += 2) {
      hbs[i]->beat();
    }
    t.reap(t.now(), nullptr);
  }
  ASSERT_EQ(rec.names.size(), static_cast<std::size_t>(kHolders / 2));
  for (const Name n : rec.names) EXPECT_EQ(n % 2, 0) << "reaped live " << n;
  EXPECT_EQ(t.leases_live(), static_cast<std::uint64_t>(kHolders / 2));
  EXPECT_EQ(t.opened(), static_cast<std::uint64_t>(kHolders));
}

// Holders race the reaper for real: each holder thread opens, renews,
// rebinds and closes leases on its own names while a reaper thread
// drives a fast clock and alternates reap() with try_reap(). Holders
// beat their heartbeat only now and then, so leases keep expiring under
// them. Every lease epoch (one open) must end exactly one way — closed by
// its holder, expired by the reaper (one reclaim callback), or still
// live — which is what fails if a holder op and the reaper both win.
TEST_F(LeaseUnit, ConcurrentHoldersAndReaperAgreeOnEveryLease) {
  constexpr int kHolders = 4;
  constexpr int kNamesEach = 48;
  constexpr int kOpsEach = 20000;
  const std::uint64_t seed = test::stress_seed("LeaseRace", 0x1EA5ECA5);
  // Interleaved names, half of them in a far page: holders share pages
  // and race to create them.
  const auto name_of = [](int holder, int i) {
    return static_cast<Name>(i * kHolders + holder +
                             (i >= kNamesEach / 2 ? (1 << 14) : 0));
  };
  const std::size_t span = static_cast<std::size_t>(name_of(0, kNamesEach - 1)) + kHolders;
  struct Expiries {
    std::vector<std::atomic<std::uint32_t>> per_name;
    explicit Expiries(std::size_t n) : per_name(n) {}
    static bool sink(void* ctx, Name n) {
      static_cast<Expiries*>(ctx)->per_name[static_cast<std::size_t>(n)].fetch_add(
          1, std::memory_order_release);
      return true;
    }
  } expiries(span);
  lease::LeaseTable t(opts_with(/*ttl=*/8, /*grace=*/2), nullptr);
  t.set_reclaimer(&Expiries::sink, &expiries);

  struct Tally {
    std::uint64_t opens = 0, closes = 0, lost = 0;
    std::uint64_t won_after_expiry = 0;  // an op true after the reclaim ran
  };
  std::vector<std::vector<Tally>> tallies(kHolders, std::vector<Tally>(kNamesEach));
  std::vector<std::vector<bool>> open_at_end(kHolders, std::vector<bool>(kNamesEach));
  std::vector<lease::Heartbeat*> hbs(kHolders, nullptr);
  std::atomic<int> running{kHolders};
  std::atomic<bool> reaping{false};

  std::vector<std::thread> holders;
  for (int h = 0; h < kHolders; ++h) {
    holders.emplace_back([&, h] {
      lease::Heartbeat& hb = t.register_thread();
      hbs[h] = &hb;
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(h));
      while (!reaping.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<bool> open(kNamesEach, false);
      for (int op = 0; op < kOpsEach; ++op) {
        const int i = static_cast<int>(rng.below(kNamesEach));
        const Name n = name_of(h, i);
        Tally& tl = tallies[h][i];
        if (rng.below(256) == 0) hb.beat();
        if (rng.below(64) == 0) {
          // Go quiet past ttl + grace, so the reaper expires leases this
          // holder still believes open and the next ops race it.
          const std::uint64_t until = t.now() + 12;
          while (t.now() < until) std::this_thread::yield();
        }
        if (!open[i]) {
          t.open(n, 0, &hb, nullptr);
          ++tl.opens;
          open[i] = true;
          continue;
        }
        // The reclaim callback runs after the reaper's expiry CAS, so once
        // it has counted this epoch, the op must fail.
        std::atomic<std::uint32_t>& exp = expiries.per_name[static_cast<std::size_t>(n)];
        const bool already_expired = exp.load(std::memory_order_acquire) > tl.lost;
        bool ok = false;
        switch (rng.below(3)) {
          case 0:
            ok = t.close(n, &hb, nullptr);
            if (ok) ++tl.closes;
            open[i] = false;
            break;
          case 1:
            ok = t.renew(n, t.now(), &hb, nullptr);
            break;
          default:
            ok = t.rebind(n, &hb);
            break;
        }
        if (ok && already_expired) ++tl.won_after_expiry;
        if (!ok) {
          ++tl.lost;  // the reaper expired this epoch first
          open[i] = false;
          // Let its reclaim land before the name is reopened, so the
          // count above always refers to the open epoch.
          while (exp.load(std::memory_order_acquire) < tl.lost) {
            std::this_thread::yield();
          }
        }
      }
      open_at_end[h] = open;
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::thread reaper([&] {
    Xoshiro256 rng(seed ^ 0xC10C);
    bool full = false;
    reaping.store(true, std::memory_order_release);
    while (running.load(std::memory_order_acquire) > 0) {
      g_now.fetch_add(1 + rng.below(4), std::memory_order_relaxed);
      full = !full;
      if (full) {
        t.reap(t.now(), nullptr);
      } else {
        t.try_reap(t.now(), nullptr);
      }
    }
  });
  for (auto& th : holders) th.join();
  reaper.join();

  std::uint64_t opens = 0, closes = 0, expired = 0, live = 0;
  for (int h = 0; h < kHolders; ++h) {
    for (int i = 0; i < kNamesEach; ++i) {
      const Tally& tl = tallies[h][i];
      const Name n = name_of(h, i);
      const std::uint64_t exp =
          expiries.per_name[static_cast<std::size_t>(n)].load(std::memory_order_relaxed);
      const bool is_live = open_at_end[h][i] && t.validate(n, hbs[h]);
      // Every expiry the holder noticed is a real, single reclaim; the
      // rest were expired while the holder still believed them open.
      const std::uint64_t unnoticed = open_at_end[h][i] && !is_live ? 1 : 0;
      EXPECT_EQ(exp, tl.lost + unnoticed) << "name " << n;
      EXPECT_EQ(tl.won_after_expiry, 0u)
          << "name " << n << ": a holder op won a lease already expired";
      EXPECT_EQ(tl.opens, tl.closes + exp + (is_live ? 1 : 0)) << "name " << n;
      opens += tl.opens;
      closes += tl.closes;
      expired += exp;
      live += is_live ? 1 : 0;
    }
  }
  EXPECT_GT(expired, 0u) << "the clock never outran the holders";
  EXPECT_GT(closes, 0u);
  EXPECT_EQ(t.opened(), opens);
  EXPECT_EQ(t.expired(), expired);
  EXPECT_EQ(t.leases_live(), live);
  EXPECT_EQ(t.opened(), closes + t.expired() + t.leases_live());
}

// ---------------------------------------------- service integration ----

class LeaseService : public ::testing::Test {
 protected:
  void SetUp() override { g_now.store(1, std::memory_order_relaxed); }
};

TEST_F(LeaseService, FixedServiceReapsAbandonedNamesBackIntoTheArena) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/1000, /*grace=*/100);
  RenamingService svc(64, opts);
  ASSERT_TRUE(svc.leasing_enabled());

  // The crashed holder: grabs 16 names on its own thread and exits
  // without releasing — the classic liveness leak.
  std::vector<Name> abandoned;
  std::thread victim([&] {
    for (int i = 0; i < 16; ++i) {
      const Name n = svc.acquire();
      ASSERT_GE(n, 0);
      abandoned.push_back(n);
    }
  });
  victim.join();
  EXPECT_EQ(svc.names_live(), 16u);
  EXPECT_EQ(svc.leases_live(), 16u);
  // The reaper first observes the dead holder's count; expiry needs it
  // to stand still for ttl + grace after that.
  EXPECT_EQ(svc.reap_expired(), 0u);

  // Before the ttl runs out the names are (correctly) still theirs.
  g_now += 500;
  EXPECT_EQ(svc.reap_expired(), 0u);
  EXPECT_EQ(svc.names_live(), 16u);

  // Past ttl + grace the reaper hands every cell back.
  g_now += 1000;
  EXPECT_EQ(svc.reap_expired(), 16u);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.lease_expired(), 16u);

  // The namespace really is whole again: the full capacity is acquirable
  // with no duplicates, including the formerly abandoned names.
  std::set<Name> seen;
  for (std::uint64_t i = 0; i < svc.capacity(); ++i) {
    const Name n = svc.acquire();
    ASSERT_GE(n, 0) << "arena lost cells to the reap";
    ASSERT_TRUE(seen.insert(n).second) << "duplicate " << n;
  }
  for (const Name n : abandoned) EXPECT_TRUE(seen.count(n));
}

TEST_F(LeaseService, FixedServiceRejectsARevivedHoldersLateRelease) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/100);
  RenamingService svc(64, opts);

  const Name n = svc.acquire();
  ASSERT_GE(n, 0);
  EXPECT_EQ(svc.reap_expired(), 0u);  // observes the holder's count
  g_now += 500;  // the holder goes dark for 5 ttls...
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.names_live(), 0u);

  // ...then revives and tries to release. The generation/lease guard must
  // reject it: the cell may already belong to someone else.
  const Name other = svc.acquire();
  ASSERT_GE(other, 0);
  EXPECT_FALSE(svc.release(n)) << "late release of an expired lease accepted";
  EXPECT_GE(svc.lease_guard_trips(), 1u);
  EXPECT_EQ(svc.names_live(), 1u) << "the late release freed a victim's cell";
  EXPECT_TRUE(svc.release(other));
}

TEST_F(LeaseService, FixedServiceRenewLeaseContract) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/100);
  RenamingService svc(64, opts);

  const Name n = svc.acquire();
  ASSERT_GE(n, 0);
  // Explicit renewals carry a quiet holder across many ttls.
  for (int i = 0; i < 10; ++i) {
    g_now += 90;
    EXPECT_EQ(svc.renew_lease(n), n);
  }
  EXPECT_EQ(svc.reap_expired(), 0u);
  EXPECT_TRUE(svc.release(n));
  // A renewal after expiry reports exactly kLeaseExpired.
  const Name m = svc.acquire();
  ASSERT_GE(m, 0);
  EXPECT_EQ(svc.reap_expired(), 0u);  // observes the holder's count
  g_now += 1000;
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.renew_lease(m), RenamingService::kLeaseExpired);
}

TEST_F(LeaseService, FixedServiceOpsHeartbeatLeasesAliveImplicitly) {
  RenamingServiceOptions opts;
  opts.name_cache = false;
  opts.lease = opts_with(/*ttl=*/100, /*grace=*/10);
  RenamingService svc(64, opts);

  // A churning holder never explicitly renews: its ordinary acquire/
  // release traffic beats the heartbeat, which must keep the *held*
  // name alive across 50 ttls of wall time.
  const Name held = svc.acquire();
  ASSERT_GE(held, 0);
  for (int i = 0; i < 100; ++i) {
    g_now += 50;  // each gap well under ttl
    const Name n = svc.acquire();
    ASSERT_GE(n, 0);
    ASSERT_TRUE(svc.release(n));
  }
  EXPECT_EQ(svc.reap_expired(), 0u) << "a live, churning holder was expired";
  EXPECT_EQ(svc.lease_expired(), 0u);
  EXPECT_TRUE(svc.release(held));
}

TEST_F(LeaseService, ElasticServiceReapsAbandonedNamesAndReissuesThem) {
  ElasticOptions opts;
  opts.name_cache = false;
  opts.min_holders = 64;
  opts.max_holders = 256;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  opts.lease = opts_with(/*ttl=*/1000, /*grace=*/100);
  ElasticRenamingService svc(64, opts);
  ASSERT_TRUE(svc.leasing_enabled());

  std::vector<Name> abandoned;
  std::thread victim([&] {
    for (int i = 0; i < 16; ++i) {
      const Name n = svc.acquire();
      ASSERT_GE(n, 0);
      abandoned.push_back(n);
    }
  });
  victim.join();
  EXPECT_EQ(svc.names_live(), 16u);
  EXPECT_EQ(svc.reap_expired(), 0u);  // observes the dead holder's count

  g_now += 2000;
  EXPECT_EQ(svc.reap_expired(), 16u);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.lease_expired(), 16u);

  // Reclaimed cells are reissued: drain the whole group uniquely.
  std::set<Name> seen;
  std::vector<Name> mine;
  for (;;) {
    const Name n = svc.acquire();
    if (n < 0) break;
    ASSERT_TRUE(seen.insert(n).second) << "duplicate " << n;
    mine.push_back(n);
  }
  EXPECT_GE(seen.size(), 16u);
  for (const Name n : mine) EXPECT_TRUE(svc.release(n));
}

TEST_F(LeaseService, ElasticServiceRejectsLateReleaseAndRenewAfterExpiry) {
  ElasticOptions opts;
  // Cell-probe substrate: the late release below must miss the name the
  // thread acquires next, which needs the reissue to land on another
  // cell. The word scan (the elastic default) hands the reaped cell
  // straight back as the lowest free bit of its word; the sibling below
  // pins what a late release means then.
  opts.arena_kind = ArenaKind::kCellProbe;
  opts.name_cache = false;
  opts.min_holders = 64;
  opts.max_holders = 256;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  opts.lease = opts_with(/*ttl=*/100);
  ElasticRenamingService svc(64, opts);

  const Name n = svc.acquire();
  ASSERT_GE(n, 0);
  EXPECT_EQ(svc.reap_expired(), 0u);  // observes the holder's count
  g_now += 500;
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.renew_lease(n), ElasticRenamingService::kLeaseExpired);
  const Name other = svc.acquire();
  ASSERT_GE(other, 0);
  EXPECT_FALSE(svc.release(n));
  EXPECT_GE(svc.lease_guard_trips(), 1u);
  EXPECT_EQ(svc.names_live(), 1u);
  EXPECT_TRUE(svc.release(other));
}

TEST_F(LeaseService, ElasticWordScanReissuesTheReapedCellAndItFreesOnce) {
  // A group of at most 64 cells is one bitmap word, so every word probe
  // claims its lowest free bit: after the reap, the same thread's next
  // acquire() gets the reaped cell back under the same name. A release of
  // that name then frees the name the thread holds again (once); a
  // second release of it fails.
  ElasticOptions opts;
  opts.arena_kind = ArenaKind::kBitmap;
  opts.name_cache = false;
  opts.min_holders = 16;
  opts.max_holders = 16;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  opts.lease = opts_with(/*ttl=*/100);
  ElasticRenamingService svc(16, opts);
  ASSERT_LE(svc.capacity() >> ElasticRenamingService::kTagBits,
            BitmapArena::kBitsPerWord)
      << "the group spans more than one word";

  const Name n = svc.acquire();
  ASSERT_GE(n, 0);
  EXPECT_EQ(svc.reap_expired(), 0u);  // observes the holder's count
  g_now += 500;
  EXPECT_EQ(svc.reap_expired(), 1u);
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.renew_lease(n), ElasticRenamingService::kLeaseExpired);
  const Name other = svc.acquire();
  ASSERT_EQ(other, n) << "the word scan did not reissue the reaped cell";
  EXPECT_EQ(svc.names_live(), 1u);
  EXPECT_TRUE(svc.release(n));
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_FALSE(svc.release(other));
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST_F(LeaseService, ElasticReapReissuesStampedNamesWithTheReleaseGuardOn) {
  // With debug_release_guard on, issued names carry a generation stamp
  // but the reaper hands back the bare cell index; reclaim must accept it.
  ElasticOptions opts;
  opts.name_cache = false;
  opts.min_holders = 64;
  opts.max_holders = 256;
  opts.auto_grow = false;
  opts.auto_shrink = false;
  opts.debug_release_guard = true;
  opts.lease = opts_with(/*ttl=*/1000, /*grace=*/100);
  ElasticRenamingService svc(64, opts);

  std::vector<Name> abandoned;
  std::thread victim([&] {
    for (int i = 0; i < 16; ++i) {
      const Name n = svc.acquire();
      ASSERT_GE(n, 0);
      abandoned.push_back(n);
    }
  });
  victim.join();
  ASSERT_GE(static_cast<std::uint64_t>(abandoned[0]),
            std::uint64_t{1} << ElasticRenamingService::kGenStampShift)
      << "the guard did not stamp issued names";
  EXPECT_EQ(svc.reap_expired(), 0u);  // observes the dead holder's count

  g_now += 2000;
  EXPECT_EQ(svc.reap_expired(), 16u);
  EXPECT_EQ(svc.names_live(), 0u) << "reaped stamped names were not reclaimed";

  // The whole group is acquirable again, uniquely, including every
  // formerly abandoned name (same generation, so the same stamp).
  std::set<Name> seen;
  for (;;) {
    const Name n = svc.acquire();
    if (n < 0) break;
    ASSERT_TRUE(seen.insert(n).second) << "duplicate " << n;
  }
  for (const Name n : abandoned) EXPECT_TRUE(seen.count(n)) << n;
  for (const Name n : seen) EXPECT_TRUE(svc.release(n));
  EXPECT_EQ(svc.names_live(), 0u);
}

TEST_F(LeaseService, StashAbsorbedNamesStayLeasedAndReapable) {
  // With the cache on, a release parks the name in the stash (cell stays
  // taken, lease stays open, rebound to the stashing thread). If that
  // thread then dies *holding a stash*, the exit flush returns the names
  // — but if it parks forever without exiting, the reaper must still get
  // them. Simulate the park by just going quiet on the main thread's
  // stash from a helper thread's point of view.
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 16;
  opts.lease = opts_with(/*ttl=*/100, /*grace=*/10);
  RenamingService svc(64, opts);

  std::thread quiet_holder([&] {
    Name names[8];
    ASSERT_EQ(svc.acquire_many(8, names), 8u);
    ASSERT_EQ(svc.release_many(names, 8), 8u);
    // The names are now parked in this thread's stash, leases rebound to
    // this thread — and the thread blocks forever (simulated: it simply
    // stops calling the service; the thread object outlives the reap).
    ASSERT_EQ(svc.names_live(), 8u) << "stash absorb should keep cells taken";
  });
  quiet_holder.join();
  // NB: joining ran the exit flush, which releases the stash through the
  // shared path — so this exercises flush-beats-reaper: the leases were
  // closed by the flush and the reaper finds nothing.
  EXPECT_EQ(svc.names_live(), 0u);
  g_now += 1000;
  EXPECT_EQ(svc.reap_expired(), 0u)
      << "the exit flush already closed these leases";
  EXPECT_EQ(svc.lease_guard_trips(), 0u);
}

// The clock-free protocol under real threads (TSan): holders stash-churn
// on one leased service while a reaper thread on a fast fake clock dooms
// and reaps the quiet ones. Each holder now and then goes quiet with a
// full stash for several ttl + grace, so its parked names expire under
// it and are reissued to the others; its next call must see the doom and
// drop them. A shadow occupancy array flags any name two holders hold at
// once. The clock advances only while no holder has names in hand, so a
// name in hand never outlives its lease — every release must succeed.
TEST_F(LeaseService, StashChurnAgainstAFastReaperNeverGrantsANameTwice) {
  constexpr int kHolders = 3;
  constexpr int kOps = 3000;
  constexpr std::uint64_t kTtl = 40, kGrace = 8;
  const std::uint64_t seed = test::stress_seed("LeaseStashRace", 0x57A5C4u);
  RenamingServiceOptions opts;
  opts.name_cache = true;
  opts.name_cache_capacity = 8;
  opts.lease = opts_with(kTtl, kGrace);
  RenamingService svc(64, opts);
  std::vector<std::atomic<int>> shadow(svc.capacity());  // 0 free, else holder + 1
  std::atomic<int> in_hand{0};
  std::atomic<int> running{kHolders};
  std::atomic<std::uint64_t> doubles{0}, rejected{0}, quiet_spells{0};

  std::vector<std::thread> holders;
  for (int h = 0; h < kHolders; ++h) {
    holders.emplace_back([&, h] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(h));
      for (int op = 0; op < kOps; ++op) {
        if (rng.below(64) == 0) {
          // Quiet with a parked stash: the count stands still while the
          // reaper's clock runs past ttl + grace several times over.
          const std::uint64_t until = fake_now() + 3 * (kTtl + kGrace);
          while (fake_now() < until) std::this_thread::yield();
          quiet_spells.fetch_add(1, std::memory_order_relaxed);
        }
        in_hand.fetch_add(1, std::memory_order_seq_cst);
        Name got[4];
        const std::uint64_t n = svc.acquire_many(1 + rng.below(4), got);
        for (std::uint64_t i = 0; i < n; ++i) {
          int free = 0;
          if (!shadow[static_cast<std::size_t>(got[i])].compare_exchange_strong(
                  free, h + 1, std::memory_order_acq_rel)) {
            doubles.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          shadow[static_cast<std::size_t>(got[i])].store(0, std::memory_order_release);
        }
        if (svc.release_many(got, n) != n) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
        in_hand.fetch_sub(1, std::memory_order_seq_cst);
      }
      svc.flush_thread_cache();
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::thread reaper([&] {
    while (running.load(std::memory_order_acquire) > 0) {
      if (in_hand.load(std::memory_order_seq_cst) == 0) {
        g_now.fetch_add(1, std::memory_order_relaxed);
      }
      svc.reap_expired();
      std::this_thread::yield();
    }
  });
  for (auto& th : holders) th.join();
  reaper.join();

  EXPECT_EQ(doubles.load(), 0u) << "a name was granted to two holders at once";
  EXPECT_EQ(rejected.load(), 0u) << "a name in hand lost its lease";
  EXPECT_GT(quiet_spells.load(), 0u);
  EXPECT_GT(svc.lease_expired(), 0u) << "no parked name was ever reaped";
  EXPECT_EQ(svc.names_live(), 0u);
  EXPECT_EQ(svc.leases_live(), 0u);
}

}  // namespace
}  // namespace loren
