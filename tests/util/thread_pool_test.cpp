#include "pas/util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pas::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ReturnsTaskValues) {
  ThreadPool pool(2);
  auto a = pool.submit([] { return 6 * 7; });
  auto b = pool.submit([] { return std::string("pasim"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "pasim");
}

TEST(ThreadPool, ClampsCapacityToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.max_threads(), 1);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ExceptionSurfacesAtFutureGet) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, NeverExceedsMaxThreads) {
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::microseconds(100)); }));
  for (auto& f : futures) f.get();
  EXPECT_LE(pool.spawned(), 2);
  EXPECT_GE(pool.spawned(), 1);
}

TEST(ThreadPool, EnsureWorkersPreSpawnsUpToCapacity) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.spawned(), 0);
  pool.ensure_workers(2);
  EXPECT_EQ(pool.spawned(), 2);
  pool.ensure_workers(8);  // clamped to max_threads
  EXPECT_EQ(pool.spawned(), 3);
  pool.ensure_workers(1);  // never shrinks
  EXPECT_EQ(pool.spawned(), 3);
}

// Cooperating tasks that block on each other must all run at once; the
// header prescribes ensure_workers() for that. This is the rank-body
// pattern of mpi::Runtime::run.
TEST(ThreadPool, CooperatingBlockingTasksDontDeadlock) {
  constexpr int kTasks = 4;
  ThreadPool pool(kTasks);
  pool.ensure_workers(kTasks);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> arrived{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < kTasks; ++i)
    futures.push_back(pool.submit([&, open] {
      if (++arrived == kTasks) gate.set_value();
      open.wait();  // every task blocks until all have arrived
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(arrived.load(), kTasks);
}

// Waiting on a nested submission from inside a task is safe when a
// worker is guaranteed free for it.
TEST(ThreadPool, NestedSubmissionCompletesWithSpareWorker) {
  ThreadPool pool(2);
  pool.ensure_workers(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 11; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 12);
}

// A burst of independent submissions gets one worker per task, up to
// max_threads, without ensure_workers: every task here blocks until all
// four have started, which only happens if four workers run at once.
TEST(ThreadPool, BurstOfBlockingTasksGetsOneWorkerEach) {
  constexpr int kTasks = 4;
  ThreadPool pool(kTasks);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  std::vector<std::future<int>> futures;
  for (int i = 0; i < kTasks; ++i)
    futures.push_back(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(5),
                  [&] { return started == kTasks; });
      return started;
    }));
  for (auto& f : futures) EXPECT_EQ(f.get(), kTasks);
  EXPECT_EQ(pool.spawned(), kTasks);
}

TEST(ThreadPool, DestructionWithNoTasksIsClean) {
  ThreadPool pool(4);  // never submitted to, never spawned
  EXPECT_EQ(pool.spawned(), 0);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i)
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++count;
      });
  }  // ~ThreadPool finishes the queue before joining
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, DefaultJobsIsPositive) {
  EXPECT_GE(ThreadPool::default_jobs(), 1);
}

// "Use the machine" means the cores this process may run on: narrowing
// the calling thread's affinity mask to one core narrows the default.
TEST(ThreadPool, DefaultJobsFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int narrowed = ThreadPool::default_jobs();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(narrowed, 1);
  EXPECT_EQ(ThreadPool::default_jobs(), CPU_COUNT(&saved));
}

}  // namespace
}  // namespace pas::util
