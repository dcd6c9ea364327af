// Pending software timers, ordered by (expiry, arm_seq).
//
// Two interchangeable implementations behind one interface (selected by
// KernelConfig::timer_queue):
//
//   kSortedList — the seed implementation: one expiry-ordered intrusive list.
//     O(n) arm, O(1) cancel and min. Kept as the reference for differential
//     testing.
//
//   kWheel — a hierarchical timer wheel: kLevels levels of kSlots power-of-two
//     buckets (1.024 us granularity at level 0, each level kSlots times
//     coarser), an ordered overflow list for expiries beyond the outermost
//     level's span (~275 s), and an ordered "due" list for the rare arm whose
//     expiry tick is already behind the wheel base. Arm and cancel are O(1);
//     Min() is O(1) while the cached minimum is valid. A recompute after the
//     minimum is removed costs O(occupied slots visited + bucket occupancy):
//     one occupancy word per level lets the scan skip empty slots.
//
// The determinism contract: Min() returns the exact global minimum by
// (expiry, arm_seq) — never an approximation — so the kernel programs the
// hardware one-shot timer and dispatches expiries in precisely the order the
// reference list would, and every trace digest, cycle ledger, and chain
// oracle stays bit-identical across implementations. The wheel guarantees
// exactness because each level holds only timers whose tick offset from the
// wheel base fits the level's span, which bounds every slot to at most one
// wrap: scanning a level's slots from the base cursor visits candidate ticks
// in increasing order, and the first slot containing an unwrapped entry
// dominates every later slot and every wrapped entry.
//
// The queue is host-side bookkeeping for the simulated timer service: its
// operations cost no virtual time (the cost model's timer_dispatch covers the
// simulated expense), so swapping implementations cannot shift the ledger.

#ifndef SRC_CORE_TIMER_QUEUE_H_
#define SRC_CORE_TIMER_QUEUE_H_

#include <cstddef>
#include <cstdint>

#include "src/base/time.h"
#include "src/core/timer.h"

namespace emeralds {

class TimerQueue {
 public:
  explicit TimerQueue(TimerQueueImpl impl = TimerQueueImpl::kWheel) : impl_(impl) {}
  ~TimerQueue() { Clear(); }
  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  // Files `timer` (expiry and arm_seq already set; must not be armed). `now`
  // lets the wheel advance its base so near-future timers land in the finest
  // level; it never affects ordering.
  void Insert(SoftTimer& timer, Instant now);

  // Unlinks an armed timer (cancel or expiry dispatch).
  void Remove(SoftTimer& timer);

  // Exact global minimum by (expiry, arm_seq); nullptr when empty.
  SoftTimer* Min();

  // Unlinks everything (kernel teardown).
  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TimerQueueImpl impl() const { return impl_; }

  // (expiry, arm_seq) lexicographic order — the one ordering both
  // implementations and the hardware timer queue agree on.
  static bool Before(const SoftTimer& a, const SoftTimer& b) {
    return a.expiry < b.expiry || (a.expiry == b.expiry && a.arm_seq < b.arm_seq);
  }

 private:
  // Wheel geometry: 64-slot levels, 2^10 ns (1.024 us) base granularity.
  // Level spans: ~65.5 us, ~4.19 ms, ~268 ms; beyond that, the overflow list.
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 3;
  static constexpr int kGranularityShift = 10;

  // SoftTimer::queue_loc values.
  static constexpr int8_t kLocNone = -1;
  static constexpr int8_t kLocOverflow = kLevels;
  static constexpr int8_t kLocDue = kLevels + 1;
  static constexpr int8_t kLocList = kLevels + 2;  // sorted-list implementation

  // Ticks [0, 64^(level+1)) ahead of the base are filed at `level` or below.
  static constexpr uint64_t LevelSpan(int level) {
    return uint64_t{1} << (kSlotBits * (level + 1));
  }
  static uint64_t TickOf(Instant t) {
    return static_cast<uint64_t>(t.nanos()) >> kGranularityShift;
  }

  void SortedInsert(SoftTimerList& list, SoftTimer& timer);
  void FileIntoWheel(SoftTimer& timer);
  void MaybeAdvanceBase(Instant now);
  SoftTimer* LevelMin(int level);
  SoftTimer* RecomputeMin();

  TimerQueueImpl impl_;
  size_t size_ = 0;

  // Cached global minimum: kept exact across Insert (a smaller arrival takes
  // the cache) and invalidated only when the cached timer itself is removed.
  SoftTimer* cached_min_ = nullptr;
  bool cache_valid_ = true;  // valid-and-null means known empty

  // kSortedList storage.
  SoftTimerList list_;

  // kWheel storage. base_tick_ is a monotone lower bound on the expiry tick
  // of every timer filed in the levels (the filing invariant the Min() scan
  // relies on); it advances toward min(now, global minimum) as the clock
  // moves, pulling overflow timers into the levels as their horizon nears.
  uint64_t base_tick_ = 0;
  SoftTimerList levels_[kLevels][kSlots];
  uint64_t occupied_[kLevels] = {};  // bit s set <=> levels_[level][s] non-empty
  SoftTimerList overflow_;  // expiry-ordered, beyond LevelSpan(kLevels - 1)
  SoftTimerList due_;       // expiry-ordered, tick already behind base_tick_
};

}  // namespace emeralds

#endif  // SRC_CORE_TIMER_QUEUE_H_
