// Broker — the execution core of pasim_serve (DESIGN.md §13).
//
// A broker turns submitted SweepSpec documents into RunRecords while
// simulating every operating point at most once, however many clients
// ask for it and however they overlap in time:
//
//   * answers come from the shared run cache / sweep journal first
//     (cold points only ever reach a worker once — afterwards they are
//     disk hits for every later submission),
//   * unresolved points are grouped into (kernel, N, comm-DVFS)
//     columns — the frequency-collapse unit, so one worker prices a
//     whole DVFS column from one simulated run — and identical
//     in-flight columns are deduplicated by content-hash identity: a
//     spec submitted twice concurrently enqueues each column once and
//     both submissions wait on the same column object,
//   * columns run in forked workers through analysis::ColumnSupervisor,
//     the policy `--isolate` uses too (deadline, journal harvest,
//     backoff retry; column_supervisor.hpp). A column it gives up is
//     answered with fail-soft kCrashed/kTimeout records, never
//     journaled or cached, so a later submission retries those points
//     for real — a dying worker costs a column, never the server.
//
// The scheduler thread keeps the queue and the in-flight dedup, and
// sleeps in the supervisor until a worker exits, the doorbell rings or
// the nearest deadline or backoff is due. One broker serves one host
// (its listeners bind loopback only); `workers` sets how many columns
// it runs at once.
//
// Fork safety: all forks happen on the single scheduler thread (the
// supervisor forks on the thread that calls it), and every metric
// reference is resolved at construction, so no other broker thread
// ever takes the metrics-registry lock while the scheduler forks.
// Worker children only touch their own fresh executor state (own
// RunCache handle, own attached SweepJournal handle on the shared
// files) — never the parent's objects.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pas/analysis/column_supervisor.hpp"
#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/analysis/sweep_journal.hpp"
#include "pas/analysis/sweep_spec.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/util/subprocess.hpp"

namespace pas::serve {

struct BrokerOptions {
  /// Maximum concurrently live worker processes.
  int workers = 2;
  /// Per-worker wall-clock deadline (then SIGKILL + retry).
  double worker_timeout_s = 300.0;
  /// Re-forks per failed column before fail-soft records are synthesized.
  int worker_retries = 1;
  /// Shared run-cache directory (required — the cache IS the service's
  /// memory; the sweep journal lives next to it by default).
  std::string cache_dir;
  /// Defaults to `<cache_dir>/serve.journal`.
  std::string journal_path;
  /// RunCache LRU cap (0 = unbounded).
  std::uint64_t cache_cap_bytes = 0;
};

class Broker {
 public:
  /// Opens (or warm-resumes) the cache and journal and starts the
  /// scheduler thread. Throws std::invalid_argument on bad options and
  /// std::runtime_error when the journal cannot be created.
  explicit Broker(BrokerOptions opts);
  /// Stops the scheduler: live workers are SIGKILLed, every pending
  /// column is failed soft, blocked run() calls return.
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  struct SweepResult {
    /// Grid order (nodes-major, frequency-minor) — exactly the order
    /// an offline SweepExecutor::run() of the same spec emits.
    std::vector<analysis::RunRecord> records;
    /// Per-record: answered from the shared cache/journal without
    /// reaching a worker during this submission.
    std::vector<char> from_cache;
    std::uint64_t cache_hits = 0;  ///< pre-resolved points
    std::uint64_t dedup_hits = 0;  ///< columns joined in-flight
  };

  /// Resolves every point of the spec's grid and blocks until done.
  /// Thread-safe: concurrent submissions share in-flight columns. Only
  /// the spec's document half shapes the result; execution-policy
  /// options (jobs, cache_dir, journal, isolate) are the broker's to
  /// choose — except run_retries, which changes record bytes and so
  /// keys column identity. Throws std::invalid_argument on an invalid
  /// spec and std::runtime_error after stop().
  SweepResult run(const analysis::SweepSpec& spec);

  analysis::RunCache& cache() { return cache_; }
  std::size_t journal_entries() const { return journal_.entries(); }
  const BrokerOptions& options() const { return opts_; }

  /// Test hook: freeze (true) / thaw (false) worker dispatch, so a
  /// test can pile up concurrent duplicate submissions and observe
  /// the dedup before anything runs.
  void set_hold(bool hold);

 private:
  /// The supervisor's half holds the members, their keys, the attempts
  /// and the retry gate.
  struct Column : analysis::ColumnSupervisor::Column {
    std::string id;  ///< member cache keys + retry policy
    /// Document spec (plus this broker's cache policy) a worker
    /// rebuilds its executor from.
    analysis::SweepSpec spec;
    bool done = false;
    /// Fail-soft records for members the journal never received,
    /// keyed like the journal. Written by the scheduler before `done`,
    /// read by waiters after — the broker mutex orders both.
    std::unordered_map<std::string, analysis::RunRecord> synthesized;
  };

  void scheduler_main();
  void synthesize_failures(Column& col, bool timed_out,
                           const std::string& detail);
  void finish_column(const std::shared_ptr<Column>& col);

  BrokerOptions opts_;
  analysis::RunCache cache_;
  analysis::SweepJournal journal_;

  std::mutex mutex_;
  /// Rings the scheduler, which sleeps on it together with its live
  /// workers' exits.
  util::Wakeup wake_;
  std::condition_variable done_cv_;  ///< wakes run() waiters
  std::deque<std::shared_ptr<Column>> queue_;
  std::unordered_map<std::string, std::shared_ptr<Column>> in_flight_;
  bool stop_ = false;
  bool hold_ = false;

  // Metric references resolved at construction (fork safety — see the
  // header comment). All volatile: serving traffic is wall-clock shaped.
  obs::Counter& sweeps_;
  obs::Counter& sweep_points_;
  obs::Counter& cache_hits_;
  obs::Counter& dedup_hits_;
  obs::Counter& columns_;
  obs::Gauge& queue_depth_;
  obs::Gauge& workers_running_;
  obs::Counter& worker_restarts_;
  obs::Counter& worker_crashes_;
  obs::Counter& worker_timeouts_;

  /// Forks, reaps and retries the local columns; used by the scheduler
  /// thread only (complete() is safe anywhere). Built after the journal
  /// and the counters it is handed, before the scheduler starts.
  analysis::ColumnSupervisor supervisor_;
  std::thread scheduler_;
};

}  // namespace pas::serve
