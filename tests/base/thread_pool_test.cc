#include "src/base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace emeralds {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  // A task re-enqueues the next step of its work; Wait() covers the chain.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::function<void(int)> chain = [&](int depth) {
    count.fetch_add(1, std::memory_order_relaxed);
    if (depth > 0) {
      pool.Submit([&chain, depth] { chain(depth - 1); });
    }
  };
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&chain] { chain(9); });
  }
  pool.Wait();  // must cover transitively submitted tasks
  EXPECT_EQ(count.load(), 16 * 10);
}

TEST(ThreadPoolTest, WorkStealingBalancesOneHeavyProducer) {
  // All tasks are submitted from outside and then one task fans out 500
  // children from inside a single worker; the others must steal them.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> per_worker(4);
  for (auto& c : per_worker) {
    c.store(0);
  }
  pool.Submit([&] {
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&] {
        int w = ThreadPool::CurrentWorker();
        ASSERT_GE(w, 0);
        ASSERT_LT(w, 4);
        per_worker[static_cast<size_t>(w)].fetch_add(1, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
        // Burn a little time so a single worker cannot drain the deque
        // before the thieves arrive.
        volatile int sink = 0;
        for (int spin = 0; spin < 20000; ++spin) {
          sink = sink + spin;
        }
      });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 500);
  int workers_used = 0;
  for (const auto& c : per_worker) {
    workers_used += c.load() > 0 ? 1 : 0;
  }
  EXPECT_GT(workers_used, 1) << "no stealing happened";
}

TEST(ThreadPoolTest, CurrentWorkerIsMinusOneOffPool) {
  EXPECT_EQ(ThreadPool::CurrentWorker(), -1);
  ThreadPool pool(2);
  std::atomic<bool> on_pool_ok{false};
  pool.Submit([&] {
    int w = ThreadPool::CurrentWorker();
    on_pool_ok.store(w >= 0 && w < 2);
  });
  pool.Wait();
  EXPECT_TRUE(on_pool_ok.load());
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(257, [&](int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ManyPoolsConstructDestructCleanly) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // Destructor must drain and join without Wait().
  }
  SUCCEED();
}

}  // namespace
}  // namespace emeralds
