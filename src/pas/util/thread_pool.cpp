#include "pas/util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace pas::util {

ThreadPool::ThreadPool(int max_threads)
    : max_threads_(std::max(1, max_threads)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::spawned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::ensure_workers(int n) {
  const int want = std::min(n, max_threads_);
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < want) spawn_worker_locked();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    // Every queued task gets a worker of its own, spawned or idle.
    while (static_cast<int>(queue_.size()) > idle_ &&
           static_cast<int>(workers_.size()) < max_threads_)
      spawn_worker_locked();
  }
  cv_.notify_one();
}

void ThreadPool::spawn_worker_locked() {
  // Counted idle from birth: the new worker is committed to reaching
  // the wait loop and taking one queued task, so the spawn rule in
  // post() counts it against that task and spawns no second worker
  // for it.
  ++idle_;
  workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) {
        --idle_;
        return;
      }
      continue;
    }
    --idle_;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
    ++idle_;
  }
}

int ThreadPool::default_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace pas::util
