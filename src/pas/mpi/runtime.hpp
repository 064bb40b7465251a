// Runtime — owns the simulated cluster, one mailbox per rank, and the
// rank threads of one parallel execution.
//
//   pas::mpi::Runtime rt(sim::ClusterConfig::paper_testbed());
//   auto result = rt.run(8, 1200.0, [](pas::mpi::Comm& comm) { ... });
//   result.makespan  // the "measured" parallel execution time T_N(w,f)
//
// Every run starts from a reset cluster (clocks at zero, fabric idle),
// so results are a function of (body, nranks, frequency) only.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pas/fault/fault.hpp"
#include "pas/mpi/communicator.hpp"
#include "pas/mpi/watchdog.hpp"
#include "pas/sim/cluster.hpp"
#include "pas/sim/trace.hpp"
#include "pas/sim/work_ledger.hpp"
#include "pas/util/thread_pool.hpp"

namespace pas::mpi {

/// What one rank did during a run.
struct RankReport {
  int rank = 0;
  double finish_time = 0.0;
  double cpu_seconds = 0.0;      ///< ON-chip compute time
  double memory_seconds = 0.0;   ///< OFF-chip stall time
  double network_seconds = 0.0;  ///< communication overhead + waits
  double idle_seconds = 0.0;
  sim::InstructionMix executed;
  CommStats comm;
  /// Activity seconds by operating point (key: 0.1 MHz units) — one
  /// entry under static DVFS, several under per-phase scheduling.
  std::map<long, sim::ActivitySeconds> activity_by_fkey;
};

struct RunResult {
  int nranks = 0;
  double frequency_mhz = 0.0;
  /// Parallel execution time: max over ranks of finish time.
  double makespan = 0.0;
  std::vector<RankReport> ranks;
  std::size_t fabric_bytes = 0;
  std::size_t fabric_messages = 0;

  /// Aggregates over ranks.
  double total_cpu_seconds() const;
  double total_memory_seconds() const;
  double total_network_seconds() const;
  double total_busy_seconds() const;
  /// Mean network (overhead) seconds per rank — the measured T(w_PO).
  double mean_network_seconds() const;

  std::string to_string() const;
};

class Runtime {
 public:
  explicit Runtime(sim::ClusterConfig cfg);

  const sim::ClusterConfig& config() const { return cfg_; }
  sim::Cluster& cluster() { return cluster_; }

  /// Virtual-time execution tracing (disabled by default). Enable
  /// before run(); events accumulate across runs until clear().
  sim::Tracer& tracer() { return tracer_; }

  /// Charged-work recording (disabled by default). begin() before
  /// run(), take()/abort() after it returns — the frequency-collapse
  /// fast path harvests the ledger here (DESIGN.md §10).
  sim::WorkLedgerRecorder& ledger_recorder() { return ledger_recorder_; }

  using RankBody = std::function<void(Comm&)>;

  /// Executes `body` on `nranks` ranks (1 <= nranks <= cluster size) at
  /// the given DVFS point. Blocks until all ranks finish; rethrows the
  /// first rank exception, if any.
  ///
  /// Rank bodies execute on a pool of worker threads owned by this
  /// Runtime: a K-rank run reuses K pooled workers, so back-to-back
  /// runs (sweeps, parameterization passes) pay thread creation once
  /// per worker, not once per rank per run.
  RunResult run(int nranks, double frequency_mhz, const RankBody& body);

  /// Rank workers created so far (grows to the largest nranks seen).
  int pooled_rank_threads() const { return rank_pool_.spawned(); }

  /// Attempt number for the next run's FaultPlan: a sweep-level retry
  /// bumps it so the retried run replays a fresh (still deterministic)
  /// fault schedule. Ignored when cfg.fault is disabled.
  void set_fault_attempt(int attempt) { fault_attempt_ = attempt; }
  int fault_attempt() const { return fault_attempt_; }
  /// Fault injection for the next runs, replacing config().fault: one
  /// Runtime serves sweeps under different fault configs.
  void set_fault_config(const fault::FaultConfig& fault) { cfg_.fault = fault; }

 private:
  friend class Comm;

  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<std::size_t>(rank)); }
  RunMonitor& monitor() { return monitor_; }

  /// Picks the exception to rethrow after a failed run: the lowest
  /// rank's non-DeadlockError if any (root causes — a fault abort or a
  /// user error — beat the secondary deadlocks they induce), else the
  /// lowest rank's DeadlockError. Deterministic: rank order, not
  /// wall-clock order.
  static std::exception_ptr pick_error(
      const std::vector<std::exception_ptr>& errors);

  sim::ClusterConfig cfg_;
  sim::Cluster cluster_;
  sim::Tracer tracer_;
  sim::WorkLedgerRecorder ledger_recorder_;
  RunMonitor monitor_;
  int fault_attempt_ = 0;
  /// A failed run may leave undelivered messages behind; the next run
  /// clears them instead of treating them as a stale-state bug.
  bool last_run_failed_ = false;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// Every rank of a run must hold a worker for the whole run (ranks
  /// rendezvous through mailboxes), so capacity is the cluster size and
  /// run() pre-spawns one worker per rank before submitting the batch.
  util::ThreadPool rank_pool_;
};

}  // namespace pas::mpi
