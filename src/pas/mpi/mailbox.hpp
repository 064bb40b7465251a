// Per-rank mailbox with (source, tag) matching.
//
// Senders deliver eagerly (buffered sends — no rendezvous in wall-clock
// time, which makes send-then-recv exchange patterns deadlock-free);
// receivers block until a matching message exists. Matching is exact on
// (src, tag), FIFO within a (src, tag) channel — message order from one
// sender follows its program order, so matching is deterministic.
//
// Messages are bucketed per (src, tag) channel, so matching is an O(1)
// hash lookup + pop_front instead of a linear scan of one shared deque.
// Delivery notifies only when the delivered channel has a registered
// waiter (targeted wake); receivers otherwise sleep through unrelated
// traffic. Deadlock unwinding uses wake(): it bumps a wake sequence
// under the mailbox mutex before notifying, so a receiver that checked
// the sequence under the same mutex can never miss the wake — which is
// what lets the blocking waits be event-driven instead of a poll.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "pas/mpi/message.hpp"

namespace pas::mpi {

class RunMonitor;

class Mailbox {
 public:
  /// Thread-safe delivery; wakes a receiver blocked on this channel.
  void deliver(Message msg);

  /// Blocks until a message with exactly (src, tag) is available and
  /// removes it from the queue.
  Message receive(int src, int tag);

  /// Monitored blocking receive: registers the wait with the run's
  /// deadlock watchdog and rethrows its DeadlockError if the run can
  /// no longer make progress (see watchdog.hpp).
  Message receive(int src, int tag, RunMonitor& monitor, int rank);

  /// Non-blocking: true if a matching message is queued.
  bool probe(int src, int tag) const;

  /// Number of queued (undelivered-to-application) messages.
  std::size_t pending() const;

  /// Discards all queued messages (cleanup after an aborted run).
  void clear();

  /// Wakes blocked receivers without delivering (deadlock unwinding).
  /// Must not be called while holding the RunMonitor mutex: it takes
  /// the mailbox mutex to publish the wake.
  void wake();

 private:
  static std::uint64_t chan(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  }

  /// All three require mutex_.
  std::optional<Message> try_take_locked(std::uint64_t key);
  bool has_message_locked(std::uint64_t key) const;
  void add_waiter_locked(std::uint64_t key);
  void remove_waiter_locked(std::uint64_t key);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// FIFO queue per (src, tag) channel. Emptied buckets are kept: a
  /// channel that was used once tends to be used again, and reusing
  /// the deque avoids allocator churn. clear() drops them all.
  std::unordered_map<std::uint64_t, std::deque<Message>> buckets_;
  std::size_t pending_ = 0;
  /// Channels with a currently blocked receiver (normally at most
  /// one entry — each mailbox belongs to one rank).
  std::unordered_map<std::uint64_t, int> waiters_;
  int total_waiters_ = 0;
  /// Bumped under mutex_ by wake(); waiters re-check when it moves.
  std::uint64_t wake_seq_ = 0;
};

}  // namespace pas::mpi
