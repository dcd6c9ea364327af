// Bounded FIFO ring buffer with capacity fixed at construction.
//
// Used by mailboxes (message queues) and trace sinks. Storage is one
// uninitialised allocation made at construction ("kernel init time"); there
// is no allocation on the send/receive paths. A slot is constructed only
// when it is written, so a large ring commits memory as it fills: pages it
// never reaches cost address space, not resident memory.

#ifndef SRC_BASE_RING_BUFFER_H_
#define SRC_BASE_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "src/base/assert.h"

namespace emeralds {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(size_t capacity) : capacity_(capacity) {
    EM_ASSERT_MSG(capacity > 0, "RingBuffer capacity must be positive");
    items_ = std::allocator<T>().allocate(capacity);
  }

  ~RingBuffer() {
    clear();
    std::allocator<T>().deallocate(items_, capacity_);
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  // Appends `value`; the buffer must not be full.
  void push(T value) {
    EM_ASSERT_MSG(!full(), "push to full RingBuffer");
    std::construct_at(items_ + Wrap(head_ + size_), std::move(value));
    ++size_;
  }

  // Appends `value`, evicting the oldest element if full. Returns true if an
  // element was evicted. Used by lossy consumers such as trace sinks.
  bool push_overwrite(T value) {
    bool evicted = false;
    if (full()) {
      DropFront();
      evicted = true;
    }
    push(std::move(value));
    return evicted;
  }

  // Removes and returns the oldest element; the buffer must not be empty.
  T pop() {
    EM_ASSERT_MSG(!empty(), "pop from empty RingBuffer");
    T value = std::move(items_[head_]);
    DropFront();
    return value;
  }

  T& front() {
    EM_ASSERT(!empty());
    return items_[head_];
  }
  const T& front() const {
    EM_ASSERT(!empty());
    return items_[head_];
  }

  // Element `index` positions from the front (0 == oldest).
  const T& at(size_t index) const {
    EM_ASSERT(index < size_);
    return items_[Wrap(head_ + index)];
  }

  // The contents oldest-first as two contiguous runs of the ring's own
  // storage: first_run() from the front up to the end of the storage, then
  // second_run() from its start. second_run() is empty unless the contents
  // wrap.
  std::span<const T> first_run() const {
    return std::span<const T>(items_ + head_, FirstRunSize());
  }
  std::span<const T> second_run() const {
    return std::span<const T>(items_, size_ - FirstRunSize());
  }

  void clear() {
    size_t first = FirstRunSize();
    std::destroy_n(items_ + head_, first);
    std::destroy_n(items_, size_ - first);
    head_ = 0;
    size_ = 0;
  }

 private:
  // Maps a logical position in [0, 2 * capacity_) onto a slot.
  size_t Wrap(size_t pos) const { return pos >= capacity_ ? pos - capacity_ : pos; }

  size_t FirstRunSize() const { return std::min(size_, capacity_ - head_); }

  void DropFront() {
    std::destroy_at(items_ + head_);
    head_ = Wrap(head_ + 1);
    --size_;
  }

  size_t capacity_;
  T* items_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace emeralds

#endif  // SRC_BASE_RING_BUFFER_H_
