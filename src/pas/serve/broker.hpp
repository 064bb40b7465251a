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
// The scheduler thread keeps the queue, the in-flight dedup and the
// fabric timers, and sleeps in the supervisor until a worker exits,
// the doorbell rings or the nearest deadline, backoff or fabric timer
// is due.
//
// Peering (DESIGN.md §15): once configure_peering() wires an
// ArtifactStore, the broker joins a shard fabric. Each column's
// frequency-independent shard basis (the RunCache ledger key) is
// rendezvous-hashed across the member brokers; a column owned by a
// peer is forwarded there over the sweep protocol (and its records
// imported back), unresolved keys of remote-owned columns are CAS
// read-through fetched before anything executes, an idle broker
// steals queued columns from its peers (running them under its own
// supervisor and pushing the records back with cas.put), and a lent
// column whose thief goes quiet past its deadline is reclaimed and
// re-run locally — a dead peer costs latency, never an answer.
//
// Fork safety: all forks happen on the single scheduler thread (the
// supervisor forks on the thread that calls it), and every metric
// reference is resolved at construction, so no other broker thread
// ever takes the metrics-registry lock while the scheduler forks.
// Worker children only touch their own fresh executor state (own
// RunCache handle, own attached SweepJournal handle on the shared
// files) — never the parent's objects.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
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
#include "pas/util/json.hpp"
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
  /// Deadline for a column lent to a thief before this broker reclaims
  /// it and re-runs it locally; <= 0 derives from the worker policy
  /// (worker_timeout_s * (worker_retries + 1) plus slack).
  double steal_timeout_s = 0.0;
};

class ArtifactStore;

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
  /// spec and std::runtime_error after stop(). `local_only` pins every
  /// column to this broker (set for forwarded submissions, so two
  /// brokers whose peer sets disagree can never forward in a cycle).
  SweepResult run(const analysis::SweepSpec& spec, bool local_only = false);

  /// Wires the peer fabric once the server knows this broker's
  /// advertised identity (only after binding listeners — the identity
  /// is the address peers dial). `peers` are the other brokers'
  /// host:port identities, spelled exactly as they advertise
  /// themselves (rendezvous hashes the strings). No-op when `peers`
  /// is empty; throws std::invalid_argument on a malformed address.
  void configure_peering(const std::string& self,
                         const std::vector<std::string>& peers);

  /// The peer fabric, or nullptr before configure_peering().
  std::shared_ptr<ArtifactStore> artifact_store();

  /// The CAS read half (a peer's cas.get): the canonical payload of a
  /// journaled/cached record ("record") or a cached ledger ("ledger");
  /// nullopt on a miss or an unknown kind.
  std::optional<std::string> cas_lookup(const std::string& kind,
                                        const std::string& key);

  /// The CAS write half (a thief's cas.put push-back): imports a
  /// decoded record into the journal + cache and nudges the scheduler
  /// so a lent column waiting on it completes. False when the payload
  /// does not decode or carries an environmental (crash/timeout)
  /// status — those never enter a journal.
  bool cas_import(const std::string& key, const std::string& payload);

  /// The steal give half: pops the oldest stealable queued column,
  /// registers it as lent with a reclaim deadline, and returns its
  /// wire descriptor ({"spec": <document-only SweepSpec JSON>}).
  /// nullopt when nothing queued is portable.
  std::optional<util::Json> give_column();

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
    /// Rendezvous shard basis: the frequency-independent column
    /// identity (RunCache ledger key + sampled suffix).
    std::string basis;
    /// Eligible for the fabric: document-only spec, default power.
    bool portable = false;
    int owner = -1;        ///< owning peer index; -1 = this broker
    int stolen_from = -1;  ///< victim peer index; -1 = a local column
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

  std::shared_ptr<ArtifactStore> store_snapshot();
  double steal_deadline_s() const;
  /// Forwards `col` to its owning peer on a dedicated thread; a peer
  /// failure re-queues the column for local execution.
  void start_forward(std::shared_ptr<Column> col);
  void forward_main(std::shared_ptr<Column> col);
  /// Scheduler-idle pass: asks peers for a stealable column.
  void steal_probe();
  /// Rebuilds a stolen column from its wire descriptor and queues it
  /// locally (tagged with the victim for the push-back). False on a
  /// malformed descriptor.
  bool submit_stolen(const util::Json& descriptor, int victim);
  /// Pushes a finished stolen column's journaled records to the victim.
  void push_back_stolen(const std::shared_ptr<Column>& col);
  /// Scheduler pass over lent columns: finish the ones a thief
  /// completed, reclaim (re-queue locally) the ones past deadline.
  void lent_pass();
  /// Joins finished forward threads (`all` joins every one — stop path,
  /// after shutdown_links unblocked them).
  void reap_forwards(bool all);

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

  // Peer fabric state (all under mutex_ except where noted).
  std::shared_ptr<ArtifactStore> store_;  ///< set once by configure_peering
  struct Lent {
    std::shared_ptr<Column> col;
    double deadline = 0.0;  ///< ColumnSupervisor::now() seconds; then reclaim
  };
  std::vector<Lent> lent_;
  struct Forward {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Forward> forwards_;
  std::size_t stolen_live_ = 0;  ///< stolen-in columns not yet finished
  double next_steal_ = 0.0;      ///< probe rate gate (scheduler thread only)
  std::size_t steal_rr_ = 0;     ///< probe round-robin (scheduler thread only)

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
  obs::Counter& forwarded_columns_;
  obs::Counter& steal_columns_;
  obs::Counter& steal_requests_;
  obs::Counter& steal_empty_;
  obs::Counter& steal_given_;
  obs::Counter& steal_reclaimed_;

  /// Forks, reaps and retries the local columns; used by the scheduler
  /// thread only (complete() is safe anywhere). Built after the journal
  /// and the counters it is handed, before the scheduler starts.
  analysis::ColumnSupervisor supervisor_;
  std::thread scheduler_;
};

}  // namespace pas::serve
