#include "src/core/timer_queue.h"

#include <algorithm>
#include <bit>

#include "src/base/assert.h"

namespace emeralds {

void TimerQueue::SortedInsert(SoftTimerList& list, SoftTimer& timer) {
  for (SoftTimer& other : list) {
    if (Before(timer, other)) {
      list.insert_before(other, timer);
      return;
    }
  }
  list.push_back(timer);
}

void TimerQueue::Insert(SoftTimer& timer, Instant now) {
  EM_ASSERT_MSG(!timer.armed(), "Insert of an already-armed timer");
  if (impl_ == TimerQueueImpl::kSortedList) {
    SortedInsert(list_, timer);
    timer.queue_loc = kLocList;
  } else {
    MaybeAdvanceBase(now);
    FileIntoWheel(timer);
  }
  ++size_;
  if (cache_valid_ && (cached_min_ == nullptr || Before(timer, *cached_min_))) {
    cached_min_ = &timer;
  }
}

void TimerQueue::FileIntoWheel(SoftTimer& timer) {
  uint64_t tick = TickOf(timer.expiry);
  if (tick < base_tick_) {
    // Already behind the wheel base (an arm in the past, or at most one tick
    // of slack): park it on the ordered due list, which Min() always checks.
    SortedInsert(due_, timer);
    timer.queue_loc = kLocDue;
    return;
  }
  uint64_t delta = tick - base_tick_;
  int level = 0;
  while (level < kLevels && delta >= LevelSpan(level)) {
    ++level;
  }
  if (level == kLevels) {
    SortedInsert(overflow_, timer);
    timer.queue_loc = kLocOverflow;
    return;
  }
  int slot = static_cast<int>((tick >> (kSlotBits * level)) & (kSlots - 1));
  levels_[level][slot].push_back(timer);
  occupied_[level] |= uint64_t{1} << slot;
  timer.queue_loc = static_cast<int8_t>(level);
  timer.wheel_slot = static_cast<uint8_t>(slot);
}

void TimerQueue::MaybeAdvanceBase(Instant now) {
  uint64_t now_tick = TickOf(now);
  if (size_ == 0) {
    base_tick_ = std::max(base_tick_, now_tick);
    return;
  }
  if (!cache_valid_ || cached_min_ == nullptr) {
    return;  // no cheap lower bound on the pending minimum; keep the old base
  }
  // The base may move up to min(now, pending minimum): that keeps every filed
  // timer's tick at or ahead of the base while re-anchoring the levels near
  // the present, so new near-future arms land in the finest level.
  uint64_t bound = std::min(now_tick, TickOf(cached_min_->expiry));
  if (bound <= base_tick_) {
    return;
  }
  base_tick_ = bound;
  // Pull overflow timers whose horizon now fits the outermost level into the
  // wheel. The overflow list is ordered, so eligible timers form its prefix.
  for (;;) {
    SoftTimer* front = overflow_.front();
    if (front == nullptr) {
      break;
    }
    uint64_t tick = TickOf(front->expiry);
    if (tick - base_tick_ >= LevelSpan(kLevels - 1)) {
      break;
    }
    overflow_.erase(*front);
    FileIntoWheel(*front);
  }
}

void TimerQueue::Remove(SoftTimer& timer) {
  EM_ASSERT_MSG(timer.armed(), "Remove of an unarmed timer");
  switch (timer.queue_loc) {
    case kLocList:
      list_.erase(timer);
      break;
    case kLocOverflow:
      overflow_.erase(timer);
      break;
    case kLocDue:
      due_.erase(timer);
      break;
    default: {
      EM_ASSERT_MSG(timer.queue_loc >= 0 && timer.queue_loc < kLevels,
                    "timer in no queue location");
      SoftTimerList& bucket = levels_[timer.queue_loc][timer.wheel_slot];
      bucket.erase(timer);
      if (bucket.empty()) {
        occupied_[timer.queue_loc] &= ~(uint64_t{1} << timer.wheel_slot);
      }
      break;
    }
  }
  timer.queue_loc = kLocNone;
  --size_;
  if (cached_min_ == &timer) {
    cached_min_ = nullptr;
    cache_valid_ = false;
  }
}

SoftTimer* TimerQueue::LevelMin(int level) {
  // Scan the level's occupied slots starting at the base cursor. Filing
  // guarantees every resident's tick t satisfies base <= t < base +
  // LevelSpan(level), so t >> (kSlotBits * level) is either the scan
  // position's absolute slot number ("unwrapped") or exactly kSlots past it
  // ("wrapped"). Unwrapped entries at scan position i expire strictly before
  // every unwrapped entry at position j > i and before every wrapped entry
  // anywhere, so the scan can stop at the first slot holding an unwrapped
  // entry; wrapped entries seen along the way are only candidates if no
  // unwrapped entry exists. Rotating the occupancy word by the cursor makes
  // bit i the slot i positions past it, so set bits come out in scan order.
  SoftTimer* best_unwrapped = nullptr;
  SoftTimer* best_wrapped = nullptr;
  uint64_t cursor = base_tick_ >> (kSlotBits * level);
  uint64_t ahead = std::rotr(occupied_[level], static_cast<int>(cursor & (kSlots - 1)));
  for (; ahead != 0 && best_unwrapped == nullptr; ahead &= ahead - 1) {
    uint64_t abs_slot = cursor + static_cast<uint64_t>(std::countr_zero(ahead));
    for (SoftTimer& t : levels_[level][abs_slot & (kSlots - 1)]) {
      if ((TickOf(t.expiry) >> (kSlotBits * level)) == abs_slot) {
        if (best_unwrapped == nullptr || Before(t, *best_unwrapped)) {
          best_unwrapped = &t;
        }
      } else if (best_wrapped == nullptr || Before(t, *best_wrapped)) {
        best_wrapped = &t;
      }
    }
  }
  return best_unwrapped != nullptr ? best_unwrapped : best_wrapped;
}

SoftTimer* TimerQueue::RecomputeMin() {
  SoftTimer* best = due_.front();  // ordered: front is the list minimum
  for (int level = 0; level < kLevels; ++level) {
    SoftTimer* candidate = LevelMin(level);
    if (candidate != nullptr && (best == nullptr || Before(*candidate, *best))) {
      best = candidate;
    }
  }
  SoftTimer* overflow_front = overflow_.front();
  if (overflow_front != nullptr && (best == nullptr || Before(*overflow_front, *best))) {
    best = overflow_front;
  }
  return best;
}

SoftTimer* TimerQueue::Min() {
  if (impl_ == TimerQueueImpl::kSortedList) {
    return list_.front();
  }
  if (!cache_valid_) {
    cached_min_ = RecomputeMin();
    cache_valid_ = true;
  }
  return cached_min_;
}

void TimerQueue::Clear() {
  list_.clear();
  overflow_.clear();
  due_.clear();
  for (int level = 0; level < kLevels; ++level) {
    for (int slot = 0; slot < kSlots; ++slot) {
      levels_[level][slot].clear();
    }
    occupied_[level] = 0;
  }
  size_ = 0;
  cached_min_ = nullptr;
  cache_valid_ = true;
}

}  // namespace emeralds
