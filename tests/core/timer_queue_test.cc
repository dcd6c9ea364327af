// TimerQueue tests: the wheel and the reference sorted list must agree on
// the exact extraction order — (expiry, arm_seq) — under arm/cancel/rearm
// churn, including tie-breaks, far-future overflow, cascade on base advance,
// and arms behind the wheel base. A kernel-level differential test then
// checks the full trace stream is bit-identical across implementations.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/timer_queue.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace {

// Deterministic split-mix generator for the property tests.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ull) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

// A pair of queues driven in lockstep; every mutation asserts the two report
// the same minimum by identity (same logical timer index).
class LockstepQueues {
 public:
  explicit LockstepQueues(size_t n)
      : wheel_timers_(n),
        list_timers_(n),
        wheel_(TimerQueueImpl::kWheel),
        list_(TimerQueueImpl::kSortedList) {}

  void Arm(size_t i, Instant expiry, uint64_t seq, Instant now) {
    if (wheel_timers_[i].armed()) {
      wheel_.Remove(wheel_timers_[i]);
      list_.Remove(list_timers_[i]);
    }
    wheel_timers_[i].expiry = expiry;
    wheel_timers_[i].arm_seq = seq;
    list_timers_[i].expiry = expiry;
    list_timers_[i].arm_seq = seq;
    wheel_.Insert(wheel_timers_[i], now);
    list_.Insert(list_timers_[i], now);
    CheckMin();
  }

  void Cancel(size_t i) {
    if (!wheel_timers_[i].armed()) {
      return;
    }
    wheel_.Remove(wheel_timers_[i]);
    list_.Remove(list_timers_[i]);
    CheckMin();
  }

  // Extracts every timer due at or before `now` from both queues, asserting
  // identical extraction order. Returns the number extracted.
  int Service(Instant now) {
    int fired = 0;
    for (;;) {
      SoftTimer* w = wheel_.Min();
      SoftTimer* l = list_.Min();
      AssertSame(w, l);
      if (w == nullptr || w->expiry > now) {
        break;
      }
      wheel_.Remove(*w);
      list_.Remove(*l);
      ++fired;
    }
    return fired;
  }

  void CheckMin() { AssertSame(wheel_.Min(), list_.Min()); }

  size_t IndexOfWheel(const SoftTimer* t) const { return t - wheel_timers_.data(); }
  size_t IndexOfList(const SoftTimer* t) const { return t - list_timers_.data(); }

  // The timers must outlive the queues: ~TimerQueue unlinks every armed
  // timer, so the queues are declared last and destroyed first.
  std::vector<SoftTimer> wheel_timers_;
  std::vector<SoftTimer> list_timers_;
  TimerQueue wheel_;
  TimerQueue list_;

 private:
  void AssertSame(const SoftTimer* w, const SoftTimer* l) {
    ASSERT_EQ(w == nullptr, l == nullptr);
    if (w == nullptr) {
      return;
    }
    ASSERT_EQ(IndexOfWheel(w), IndexOfList(l))
        << "wheel min (expiry=" << w->expiry.nanos() << ", seq=" << w->arm_seq
        << ") != list min (expiry=" << l->expiry.nanos() << ", seq=" << l->arm_seq << ")";
    ASSERT_EQ(w->expiry.nanos(), l->expiry.nanos());
    ASSERT_EQ(w->arm_seq, l->arm_seq);
  }
};

TEST(TimerQueueTest, EqualExpiriesExtractInArmOrder) {
  LockstepQueues q(8);
  Instant now;
  Instant expiry = now + Microseconds(100);
  // Arm out of index order; extraction must follow arm_seq.
  uint64_t seq = 0;
  for (size_t i : {3u, 0u, 7u, 1u, 5u}) {
    q.Arm(i, expiry, seq++, now);
  }
  std::vector<size_t> order;
  for (;;) {
    SoftTimer* w = q.wheel_.Min();
    if (w == nullptr) {
      break;
    }
    order.push_back(q.IndexOfWheel(w));
    q.wheel_.Remove(*w);
    SoftTimer* l = q.list_.Min();
    q.list_.Remove(*l);
  }
  EXPECT_EQ(order, (std::vector<size_t>{3, 0, 7, 1, 5}));
}

TEST(TimerQueueTest, FarFutureOverflowCascadesIn) {
  LockstepQueues q(4);
  Instant now;
  uint64_t seq = 0;
  // Beyond the outermost level span (~268 ms): lands in overflow.
  q.Arm(0, now + Seconds(2), seq++, now);
  q.Arm(1, now + Seconds(1), seq++, now);
  // Near-term timers keep the wheel busy while time advances.
  q.Arm(2, now + Milliseconds(1), seq++, now);
  EXPECT_EQ(q.IndexOfWheel(q.wheel_.Min()), 2u);

  // March time forward past the far expiries; the overflow prefix must
  // cascade into the levels and fire in exact order.
  Instant t = now;
  int fired = 0;
  uint64_t rearm = 100;
  while (t < now + Seconds(3)) {
    t = t + Milliseconds(7);
    fired += q.Service(t);
    // Churn: keep re-arming a short timer so the base keeps advancing.
    q.Arm(3, t + Milliseconds(5), rearm++, t);
  }
  fired += q.Service(t);
  EXPECT_GE(fired, 3);
  EXPECT_FALSE(q.wheel_timers_[0].armed());
  EXPECT_FALSE(q.wheel_timers_[1].armed());
}

TEST(TimerQueueTest, ArmBehindBaseStillOrdersExactly) {
  LockstepQueues q(3);
  Instant now;
  uint64_t seq = 0;
  q.Arm(0, now + Milliseconds(10), seq++, now);
  // Advance the base well past t=0 by servicing at a later time.
  Instant later = now + Milliseconds(9);
  q.Service(later);
  // Arm a timer whose expiry is already in the past relative to the base.
  q.Arm(1, now + Milliseconds(1), seq++, later);
  q.Arm(2, now + Milliseconds(20), seq++, later);
  EXPECT_EQ(q.IndexOfWheel(q.wheel_.Min()), 1u);
  EXPECT_EQ(q.Service(later + Milliseconds(5)), 2);  // indices 1 then 0
  EXPECT_EQ(q.IndexOfWheel(q.wheel_.Min()), 2u);
}

// Satellite: the lazy cascade at exactly the 64-slot wrap boundary. A timer
// armed for now + 64 granules shares a slot *index* with "now" but lives one
// wheel lap (or one level) away; the wheel must fire it at its expiry in
// (expiry, arm_seq) order, not a lap early or late. Pin arms at span-1, span,
// and span+1 granules for every level span (64, 64^2, 64^3) plus an arm_seq
// tie exactly at the span.
TEST(TimerQueueTest, ExactWrapBoundaryFiresInOrder) {
  constexpr int64_t kGranule = 1024;  // 1 << kGranularityShift ns
  constexpr int64_t kSpans[] = {64, 64 * 64, 64 * 64 * 64};
  LockstepQueues q(12);
  Instant now;
  uint64_t seq = 0;
  size_t i = 0;
  for (int64_t span : kSpans) {
    q.Arm(i++, now + Nanoseconds((span - 1) * kGranule), seq++, now);
    q.Arm(i++, now + Nanoseconds(span * kGranule), seq++, now);
    q.Arm(i++, now + Nanoseconds(span * kGranule), seq++, now);  // seq tie
    q.Arm(i++, now + Nanoseconds((span + 1) * kGranule), seq++, now);
  }
  // March with a stride coprime to the slot count so service instants land at
  // every slot phase; Service() asserts extraction order against the list.
  Instant t = now;
  int fired = 0;
  while (t < now + Nanoseconds((kSpans[2] + 2) * kGranule)) {
    t = t + Nanoseconds(63 * kGranule);
    fired += q.Service(t);
  }
  EXPECT_EQ(fired, 12);
  for (size_t k = 0; k < 12; ++k) {
    EXPECT_FALSE(q.wheel_timers_[k].armed()) << "timer " << k;
  }
}

TEST(TimerQueueTest, WrapBoundaryAfterBaseAdvance) {
  constexpr int64_t kGranule = 1024;
  LockstepQueues q(4);
  Instant now;
  uint64_t seq = 0;
  // Walk the base to a mid-rotation position first so the wrap lands away
  // from slot zero.
  q.Arm(0, now + Nanoseconds(37 * kGranule), seq++, now);
  now = now + Nanoseconds(41 * kGranule);
  q.Service(now);
  // Arms exactly one full level-0 rotation ahead of the new base share a slot
  // index with the base itself; they must not fire a lap early.
  q.Arm(1, now + Nanoseconds(64 * kGranule), seq++, now);
  q.Arm(2, now + Nanoseconds(64 * kGranule), seq++, now);  // arm_seq tie
  q.Arm(3, now + Nanoseconds(63 * kGranule), seq++, now);
  EXPECT_EQ(q.Service(now + Nanoseconds(63 * kGranule)), 1);
  EXPECT_EQ(q.Service(now + Nanoseconds(64 * kGranule)), 2);
  EXPECT_FALSE(q.wheel_timers_[1].armed());
  EXPECT_FALSE(q.wheel_timers_[2].armed());
}

// The cursor's slot holds the only timer at the minimum; cancelling it must
// hand Min() the timer in the next occupied slot in scan order, including
// one whose slot index lies below the cursor (the scan wraps past slot 63).
TEST(TimerQueueTest, CancelInCursorSlotFallsToNextOccupiedSlot) {
  constexpr int64_t kGranule = 1024;
  LockstepQueues q(4);
  Instant now;
  uint64_t seq = 0;
  q.Arm(0, now + Nanoseconds(37 * kGranule), seq++, now);
  now = now + Nanoseconds(41 * kGranule);
  q.Service(now);  // empty again; the next arm moves the base to slot 41
  q.Arm(1, now + Nanoseconds(1), seq++, now);                // slot 41
  q.Arm(2, now + Nanoseconds(30 * kGranule), seq++, now);    // slot 7
  q.Arm(3, now + Nanoseconds(5 * kGranule), seq++, now);     // slot 46
  EXPECT_EQ(q.IndexOfWheel(q.wheel_.Min()), 1u);
  q.Cancel(1);
  EXPECT_EQ(q.IndexOfWheel(q.wheel_.Min()), 3u);
  q.Cancel(3);
  EXPECT_EQ(q.IndexOfWheel(q.wheel_.Min()), 2u);
  q.Cancel(2);
  EXPECT_EQ(q.wheel_.Min(), nullptr);
}

TEST(TimerQueueTest, ClearThenRearmMatchesReference) {
  Rng rng(7);
  constexpr size_t kTimers = 48;
  LockstepQueues q(kTimers);
  Instant now;
  uint64_t seq = 0;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < kTimers; ++i) {
      Duration d = Microseconds(static_cast<int64_t>(rng.Below(300000)));
      q.Arm(i, now + d, seq++, now);
    }
    now = now + Microseconds(static_cast<int64_t>(rng.Below(50000)));
    q.Service(now);
    q.wheel_.Clear();
    q.list_.Clear();
    ASSERT_TRUE(q.wheel_.empty());
    ASSERT_EQ(q.wheel_.Min(), nullptr);
    // Re-arm into the cleared queues and drain them completely.
    for (size_t i = 0; i < kTimers; i += 2) {
      q.Arm(i, now + Microseconds(static_cast<int64_t>(rng.Below(300000))), seq++, now);
    }
    now = now + Milliseconds(400);
    EXPECT_EQ(q.Service(now), static_cast<int>(kTimers / 2));
  }
}

// Randomized variant of the boundary tests: every expiry is pinned to a wrap
// boundary +/- one granule, so the whole schedule lives exactly where a
// cascade bug would hide, under arm/cancel/service churn.
TEST(TimerQueueTest, BoundaryPinnedChurnMatchesReference) {
  constexpr int64_t kGranule = 1024;
  constexpr int64_t kSpans[] = {64, 64 * 64, 64 * 64 * 64};
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    constexpr size_t kTimers = 32;
    LockstepQueues q(kTimers);
    Instant now;
    uint64_t seq = 0;
    for (int op = 0; op < 1500; ++op) {
      uint64_t roll = rng.Below(100);
      size_t i = rng.Below(kTimers);
      if (roll < 60) {
        int64_t span = kSpans[rng.Below(3)];
        int64_t jitter = static_cast<int64_t>(rng.Below(3)) - 1;
        q.Arm(i, now + Nanoseconds((span + jitter) * kGranule), seq++, now);
      } else if (roll < 75) {
        q.Cancel(i);
      } else {
        now = now + Nanoseconds(static_cast<int64_t>(rng.Below(130)) * kGranule);
        q.Service(now);
      }
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at seed " << seed << " op " << op;
      }
    }
    ASSERT_EQ(q.wheel_.size(), q.list_.size());
  }
}

TEST(TimerQueueTest, RandomChurnMatchesReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    constexpr size_t kTimers = 64;
    LockstepQueues q(kTimers);
    Instant now;
    uint64_t seq = 0;
    for (int op = 0; op < 2000; ++op) {
      uint64_t roll = rng.Below(100);
      size_t i = rng.Below(kTimers);
      if (roll < 55) {
        // Arm/rearm with a spread of horizons: sub-tick, level 0/1/2,
        // overflow, and deliberate expiry collisions for tie-breaks.
        uint64_t kind = rng.Below(6);
        Duration d;
        switch (kind) {
          case 0: d = Nanoseconds(static_cast<int64_t>(rng.Below(1024))); break;
          case 1: d = Microseconds(static_cast<int64_t>(rng.Below(60))); break;
          case 2: d = Microseconds(static_cast<int64_t>(rng.Below(4000))); break;
          case 3: d = Milliseconds(static_cast<int64_t>(rng.Below(250))); break;
          case 4: d = Milliseconds(static_cast<int64_t>(250 + rng.Below(5000))); break;
          default: d = Milliseconds(5);  // shared expiry: arm_seq tie-break
        }
        q.Arm(i, now + d, seq++, now);
      } else if (roll < 75) {
        q.Cancel(i);
      } else {
        now = now + Microseconds(static_cast<int64_t>(rng.Below(2000)));
        q.Service(now);
      }
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at seed " << seed << " op " << op;
      }
    }
    ASSERT_EQ(q.wheel_.size(), q.list_.size());
  }
}

// Kernel-level differential: a timer-heavy node (user timers, sleeps,
// receive timeouts, periodic releases, stats sampling) must produce a
// bit-identical trace and identical counters under both implementations.
void BuildTimerHeavyWorkload(Kernel& kernel) {
  SemId tick = kernel.CreateSemaphore("tick", 0).value();
  TimerId timer = kernel.CreateTimer("ticker", tick).value();
  MailboxId mbox = kernel.CreateMailbox("mbox", 1).value();

  ThreadParams pacer;
  pacer.name = "pacer";
  pacer.body = [tick](ThreadApi api) -> ThreadBody {
    for (;;) {
      Status s = co_await api.Acquire(tick);
      if (s != Status::kOk) {
        break;
      }
      co_await api.Compute(Microseconds(40));
    }
  };
  kernel.CreateThread(pacer);

  ThreadParams sleeper;
  sleeper.name = "sleeper";
  sleeper.period = Milliseconds(3);
  sleeper.body = [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Sleep(Microseconds(700));
      co_await api.Compute(Microseconds(90));
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(sleeper);

  ThreadParams poller;
  poller.name = "poller";
  poller.period = Milliseconds(2);
  poller.body = [mbox](ThreadApi api) -> ThreadBody {
    uint8_t buf[4];
    for (;;) {
      // Nobody sends: every receive times out, exercising timeout timers.
      co_await api.Recv(mbox, std::span<uint8_t>(buf, sizeof(buf)), Microseconds(500));
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(poller);

  kernel.EnableStatsSampling(Milliseconds(5), 64);
  kernel.Start();
  kernel.StartTimer(timer, Microseconds(900), Microseconds(1700));
  kernel.RunUntil(Instant() + Milliseconds(120));
}

TEST(TimerQueueTest, KernelTraceBitIdenticalAcrossImpls) {
  KernelConfig wheel_config = CalibratedConfig(SchedulerSpec::Csd(2));
  wheel_config.trace_capacity = 65536;
  wheel_config.timer_queue = TimerQueueImpl::kWheel;
  KernelConfig list_config = wheel_config;
  list_config.timer_queue = TimerQueueImpl::kSortedList;

  SimEnv wheel_env(wheel_config);
  BuildTimerHeavyWorkload(wheel_env.k());
  SimEnv list_env(list_config);
  BuildTimerHeavyWorkload(list_env.k());

  const TraceSink& wt = wheel_env.k().trace();
  const TraceSink& lt = list_env.k().trace();
  ASSERT_EQ(wt.dropped(), 0u);
  ASSERT_EQ(wt.size(), lt.size());
  for (size_t i = 0; i < wt.size(); ++i) {
    const TraceEvent& a = wt.at(i);
    const TraceEvent& b = lt.at(i);
    ASSERT_EQ(a.time.nanos(), b.time.nanos()) << "event " << i;
    ASSERT_EQ(a.type, b.type) << "event " << i;
    ASSERT_EQ(a.arg0, b.arg0) << "event " << i;
    ASSERT_EQ(a.arg1, b.arg1) << "event " << i;
    ASSERT_EQ(a.arg2, b.arg2) << "event " << i;
  }

  const KernelStats& ws = wheel_env.k().stats();
  const KernelStats& ls = list_env.k().stats();
  EXPECT_EQ(ws.interrupts, ls.interrupts);
  EXPECT_EQ(ws.timer_dispatches, ls.timer_dispatches);
  EXPECT_EQ(ws.context_switches, ls.context_switches);
  EXPECT_EQ(ws.syscalls, ls.syscalls);
  EXPECT_EQ(ws.cycle_total().nanos(), ls.cycle_total().nanos());
  EXPECT_EQ(wheel_env.k().now().nanos(), list_env.k().now().nanos());
}

}  // namespace
}  // namespace emeralds
