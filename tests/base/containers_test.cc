// StaticVector and RingBuffer unit tests.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/ring_buffer.h"
#include "src/base/static_vector.h"

namespace emeralds {
namespace {

TEST(StaticVectorTest, StartsEmpty) {
  StaticVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.full());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(StaticVectorTest, PushAndIndex) {
  StaticVector<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 20);
}

TEST(StaticVectorTest, FullAtCapacity) {
  StaticVector<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_TRUE(v.full());
}

TEST(StaticVectorTest, PopBackDestroys) {
  static int live = 0;
  struct Probe {
    Probe() { ++live; }
    Probe(const Probe&) { ++live; }
    ~Probe() { --live; }
  };
  {
    StaticVector<Probe, 4> v;
    v.emplace_back();
    v.emplace_back();
    EXPECT_EQ(live, 2);
    v.pop_back();
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(StaticVectorTest, NonTrivialElements) {
  StaticVector<std::string, 3> v;
  v.push_back("hello");
  v.emplace_back(5, 'x');
  EXPECT_EQ(v[0], "hello");
  EXPECT_EQ(v[1], "xxxxx");
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(StaticVectorTest, CopyConstructAndAssign) {
  StaticVector<int, 4> a;
  a.push_back(1);
  a.push_back(2);
  StaticVector<int, 4> b(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], 2);
  StaticVector<int, 4> c;
  c.push_back(9);
  c = a;
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 1);
}

TEST(StaticVectorTest, EraseAtShiftsElements) {
  StaticVector<int, 5> v;
  for (int i = 1; i <= 5; ++i) {
    v.push_back(i);
  }
  v.erase_at(1);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[3], 5);
}

TEST(StaticVectorTest, RangeForIteration) {
  StaticVector<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  int sum = 0;
  for (int x : v) {
    sum += x;
  }
  EXPECT_EQ(sum, 6);
}

TEST(RingBufferTest, PushPopFifo) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, WrapAroundManyTimes) {
  RingBuffer<int> rb(2);
  for (int i = 0; i < 100; ++i) {
    rb.push(i);
    EXPECT_EQ(rb.pop(), i);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, PushOverwriteEvictsOldest) {
  RingBuffer<int> rb(2);
  EXPECT_FALSE(rb.push_overwrite(1));
  EXPECT_FALSE(rb.push_overwrite(2));
  EXPECT_TRUE(rb.push_overwrite(3));
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
}

TEST(RingBufferTest, PushOverwriteWrapsManyTimes) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 100; ++i) {
    bool evicted = rb.push_overwrite(i);
    EXPECT_EQ(evicted, i >= 3) << i;
  }
  // The window is always the most recent `capacity` values, oldest first.
  ASSERT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.at(0), 97);
  EXPECT_EQ(rb.at(1), 98);
  EXPECT_EQ(rb.at(2), 99);
}

TEST(RingBufferTest, PushOverwriteAfterPopDoesNotEvict) {
  RingBuffer<int> rb(2);
  rb.push_overwrite(1);
  rb.push_overwrite(2);
  EXPECT_EQ(rb.pop(), 1);
  // One slot free again: no eviction until full once more.
  EXPECT_FALSE(rb.push_overwrite(3));
  EXPECT_TRUE(rb.push_overwrite(4));
  EXPECT_EQ(rb.at(0), 3);
  EXPECT_EQ(rb.at(1), 4);
}

TEST(RingBufferTest, AtIndexesFromFront) {
  RingBuffer<int> rb(3);
  rb.push(7);
  rb.push(8);
  EXPECT_EQ(rb.at(0), 7);
  EXPECT_EQ(rb.at(1), 8);
  rb.pop();
  rb.push(9);
  EXPECT_EQ(rb.at(0), 8);
  EXPECT_EQ(rb.at(1), 9);
}

TEST(RingBufferTest, FrontPeeksWithoutRemoving) {
  RingBuffer<int> rb(2);
  rb.push(5);
  EXPECT_EQ(rb.front(), 5);
  EXPECT_EQ(rb.size(), 1u);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(3);
  EXPECT_EQ(rb.pop(), 3);
}

// Counts live instances so the tests can see exactly which slots the ring
// has constructed and destroyed.
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  static void ResetCounts() {
    constructed = 0;
    destroyed = 0;
  }

  Counted() : value(0) { ++constructed; }
  explicit Counted(int v) : value(v) { ++constructed; }
  Counted(const Counted& other) : value(other.value) { ++constructed; }
  Counted(Counted&& other) noexcept : value(other.value) { ++constructed; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) = default;
  ~Counted() { ++destroyed; }

  int value;
};

TEST(RingBufferTest, ConstructsNothingBeforeTheFirstPush) {
  Counted::ResetCounts();
  {
    RingBuffer<Counted> rb(1024);
    EXPECT_EQ(Counted::constructed, 0);
    rb.push(Counted(1));
    // The argument temporary plus the one slot written.
    EXPECT_EQ(Counted::constructed, 2);
    EXPECT_EQ(Counted::destroyed, 1);
  }
  EXPECT_EQ(Counted::destroyed, Counted::constructed);
}

TEST(RingBufferTest, DestroysEveryElementItConstructs) {
  Counted::ResetCounts();
  {
    RingBuffer<Counted> rb(3);
    for (int i = 0; i < 10; ++i) {
      rb.push_overwrite(Counted(i));  // overwrite evicts 7 times
    }
    EXPECT_EQ(Counted::constructed - Counted::destroyed, 3);
    EXPECT_EQ(rb.pop().value, 7);
    EXPECT_EQ(Counted::constructed - Counted::destroyed, 2);
    rb.clear();
    EXPECT_EQ(Counted::constructed, Counted::destroyed);
    rb.push(Counted(20));
    rb.push(Counted(21));
    EXPECT_EQ(Counted::constructed - Counted::destroyed, 2);
  }
  // Destruction releases the two elements still held.
  EXPECT_EQ(Counted::constructed, Counted::destroyed);
}

std::vector<int> Concat(std::span<const int> a, std::span<const int> b) {
  std::vector<int> out(a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

TEST(RingBufferTest, RunsCoverTheContentsAcrossAWrap) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.first_run().empty());
  EXPECT_TRUE(rb.second_run().empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.first_run().size(), 3u);
  EXPECT_TRUE(rb.second_run().empty());
  for (int i = 4; i <= 6; ++i) {
    rb.push_overwrite(i);  // 3..6 retained; 5 and 6 wrap to the front
  }
  EXPECT_EQ(rb.first_run().size(), 2u);
  EXPECT_EQ(rb.second_run().size(), 2u);
  EXPECT_EQ(Concat(rb.first_run(), rb.second_run()), (std::vector<int>{3, 4, 5, 6}));
  for (size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(Concat(rb.first_run(), rb.second_run())[i], rb.at(i)) << i;
  }
  // Runs alias the ring's storage: the first run starts at the front slot.
  EXPECT_EQ(rb.first_run().data(), &rb.front());
}

}  // namespace
}  // namespace emeralds
