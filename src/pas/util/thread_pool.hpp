// Fixed-capacity worker pool with a shared work queue and futures.
//
// Workers are spawned lazily and reused until destruction — the point
// is to amortize thread creation across many short tasks, e.g. the rank
// bodies of successive simulated runs (pas/mpi/runtime.cpp) or the
// column tasks of a parallel sweep (pas/analysis/sweep_executor.cpp).
// The spawn rule: submitting spawns a worker while queued tasks
// outnumber idle workers, up to `max_threads`. A freshly spawned worker
// counts as idle until it dequeues, so a burst of k submissions gets
// min(k, max_threads) workers at once.
//
// Cooperating tasks that block on *each other* (the rank bodies of one
// simulated run rendezvous through mailboxes) must each hold a worker
// for the whole run; call ensure_workers(k) before submitting such a
// batch of k tasks. Independent tasks need no such call — any spare
// worker eventually drains the queue.
//
// Waiting on a future from *inside* a pool task is safe only when the
// pool is guaranteed to have a worker free for the nested task
// (ensure_workers again); otherwise prefer structuring the work as a
// flat task list.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pas::util {

class ThreadPool {
 public:
  /// `max_threads` < 1 is clamped to 1.
  explicit ThreadPool(int max_threads);

  /// Finishes all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int max_threads() const { return max_threads_; }

  /// Workers spawned so far (<= max_threads).
  int spawned() const;

  /// Pre-spawns workers until at least min(n, max_threads) exist. Call
  /// before submitting a batch of tasks that block on one another.
  void ensure_workers(int n);

  /// Enqueues `fn` and returns a future for its result. Exceptions
  /// thrown by `fn` surface at future.get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// Pool size for "use the machine": the cores in this process's CPU
  /// affinity mask (so `taskset` narrows it), at least 1.
  static int default_jobs();

 private:
  void post(std::function<void()> task);
  void spawn_worker_locked();
  void worker_loop();

  const int max_threads_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int idle_ = 0;
  bool stop_ = false;
};

}  // namespace pas::util
