#include "pas/mpi/mailbox.hpp"

#include <chrono>
#include <utility>

#include "pas/mpi/watchdog.hpp"

namespace pas::mpi {

std::optional<Message> Mailbox::try_take_locked(std::uint64_t key) {
  auto it = buckets_.find(key);
  if (it == buckets_.end() || it->second.empty()) return std::nullopt;
  Message msg = std::move(it->second.front());
  it->second.pop_front();
  --pending_;
  return msg;
}

bool Mailbox::has_message_locked(std::uint64_t key) const {
  const auto it = buckets_.find(key);
  return it != buckets_.end() && !it->second.empty();
}

void Mailbox::add_waiter_locked(std::uint64_t key) {
  ++waiters_[key];
  ++total_waiters_;
}

void Mailbox::remove_waiter_locked(std::uint64_t key) {
  auto it = waiters_.find(key);
  if (--it->second == 0) waiters_.erase(it);
  --total_waiters_;
}

void Mailbox::deliver(Message msg) {
  bool notify = false;
  bool broadcast = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t key = chan(msg.src, msg.tag);
    buckets_[key].push_back(std::move(msg));
    ++pending_;
    notify = waiters_.count(key) != 0;
    // One condition variable serves all waiters; with several blocked
    // channels notify_one could wake the wrong one, which would sleep
    // again and strand the right one.
    broadcast = total_waiters_ > 1;
  }
  if (!notify) return;
  if (broadcast)
    cv_.notify_all();
  else
    cv_.notify_one();
}

Message Mailbox::receive(int src, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t key = chan(src, tag);
  for (;;) {
    if (auto msg = try_take_locked(key)) return std::move(*msg);
    const std::uint64_t seq = wake_seq_;
    add_waiter_locked(key);
    // Untimed: no watchdog is armed here, and the targeted notify in
    // deliver() (or a wake() bump, re-checked under this mutex) is
    // guaranteed to land — there is nothing to poll for.
    cv_.wait(lock,
             [&] { return has_message_locked(key) || wake_seq_ != seq; });
    remove_waiter_locked(key);
  }
}

Message Mailbox::receive(int src, int tag, RunMonitor& monitor, int rank) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t key = chan(src, tag);
  for (;;) {
    if (auto msg = try_take_locked(key)) {
      monitor.on_take(rank, src, tag);
      return std::move(*msg);
    }
    const std::uint64_t seq = wake_seq_;
    add_waiter_locked(key);
    try {
      // Lock order is mailbox -> monitor, same as on_take/on_deliver.
      // enter_wait throws DeadlockError when this wait completes the
      // no-progress condition (or a peer already latched one).
      monitor.enter_wait(rank, src, tag);
      // Detection is exact and wakes cannot be missed (the deadlock
      // path bumps wake_seq_ under this mutex), so the wait is
      // event-driven; the bound is a defense-in-depth backstop kept
      // only while the monitor is active, not the detection mechanism.
      cv_.wait_for(lock, std::chrono::milliseconds(100),
                   [&] { return has_message_locked(key) || wake_seq_ != seq; });
      monitor.exit_wait(rank);
      remove_waiter_locked(key);
    } catch (...) {
      remove_waiter_locked(key);
      // Announce the latch with no locks held: wake() takes each peer
      // mailbox mutex to publish its wake sequence, so calling it with
      // this mailbox (or the monitor) locked would invert lock order.
      lock.unlock();
      monitor.wake_peers();
      throw;
    }
  }
}

bool Mailbox::probe(int src, int tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return has_message_locked(chan(src, tag));
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

void Mailbox::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.clear();
  pending_ = 0;
}

void Mailbox::wake() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++wake_seq_;
  }
  cv_.notify_all();
}

}  // namespace pas::mpi
