#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace m3::util {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedWork) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto f = pool.Submit([] {});
  f.get();
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&done] { ++done; });
    }
  }
  EXPECT_EQ(done.load(), 50);
}

// Construct/submit/destruct churn: the shutdown handshake (shutting_down_
// flag, drain-then-join) runs once per pool, so cycling many short-lived
// pools is what shakes out lost-wakeup and join races. Sizes stay small —
// this test runs under TSan in CI, where thread creation is ~10x pricier.
TEST(ThreadPoolTest, ConstructSubmitDestructChurn) {
  std::atomic<int> executed{0};
  int submitted = 0;
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool(1 + round % 4);
    const int tasks = round % 5;  // includes submit-nothing rounds
    for (int t = 0; t < tasks; ++t) {
      pool.Submit([&executed] { ++executed; });
      ++submitted;
    }
    // No Wait(): the destructor must drain the queue itself.
  }
  EXPECT_EQ(executed.load(), submitted);
}

// Submitting from inside a worker task while the destructor is already
// draining is the nastiest legal interleaving: the self-submitted task was
// enqueued before the pool's own task finished, so it must still run.
TEST(ThreadPoolTest, SubmitFromWorkerDuringShutdownStillRuns) {
  std::atomic<int> executed{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    pool.Submit([&pool, &executed] {
      pool.Submit([&executed] { ++executed; });
    });
    // Destructor races the outer task's Submit.
  }
  EXPECT_EQ(executed.load(), 20);
}

TEST(ParallelForTest, CoversEntireRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(
      0, hits.size(), 1,
      [&hits](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          ++hits[i];
        }
      },
      &pool);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, 1, [&called](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RespectsGrainByRunningInline) {
  ThreadPool pool(4);
  // Range smaller than grain -> single inline chunk.
  std::atomic<int> chunks{0};
  ParallelFor(
      0, 10, 100, [&chunks](size_t, size_t) { ++chunks; }, &pool);
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ParallelForTest, SumMatchesSequential) {
  std::vector<int64_t> values(100000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<int64_t> parallel_sum{0};
  ParallelFor(0, values.size(), 1024, [&](size_t lo, size_t hi) {
    int64_t local = 0;
    for (size_t i = lo; i < hi; ++i) {
      local += values[i];
    }
    parallel_sum += local;
  });
  const int64_t expected =
      std::accumulate(values.begin(), values.end(), int64_t{0});
  EXPECT_EQ(parallel_sum.load(), expected);
}

TEST(ParallelForTest, UsesGlobalPoolWhenNullptr) {
  std::atomic<int> count{0};
  ParallelFor(0, 64, 1, [&count](size_t lo, size_t hi) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(GlobalThreadPoolTest, SingletonAndSized) {
  ThreadPool& a = GlobalThreadPool();
  ThreadPool& b = GlobalThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(ThreadPoolTest, InWorkerThreadOnlyOnPoolWorkers) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(1);
  bool in_worker = false;
  pool.Submit([&] { in_worker = ThreadPool::InWorkerThread(); }).get();
  EXPECT_TRUE(in_worker);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

}  // namespace
}  // namespace m3::util
