// RunMatrix — executes a kernel across the (processor count, frequency)
// configuration grid and collects what the paper's measurement
// apparatus would: execution times, per-rank overhead time, node
// energy, and communication profiles.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "pas/core/measurement.hpp"
#include "pas/mpi/runtime.hpp"
#include "pas/npb/kernel.hpp"
#include "pas/power/energy_meter.hpp"

namespace pas::analysis {

/// How one run ended. Everything except kOk is a fault-induced abort
/// recorded by the fail-soft sweep path (see SweepExecutor).
enum class RunStatus {
  kOk = 0,
  kDeadlock,     ///< mpi::DeadlockError (watchdog)
  kNodeFailure,  ///< fault::NodeFailedError
  kMessageLoss,  ///< fault::MessageLossError (retries exhausted)
  kTimeout,      ///< mpi::TimeoutError, or an isolated worker's deadline
  kCrashed,      ///< isolated worker died (signal/OOM); supervisor-synthesized
};

const char* run_status_name(RunStatus status);

/// Everything measured about one run.
struct RunRecord {
  int nodes = 0;
  double frequency_mhz = 0.0;
  double seconds = 0.0;          ///< T_N(w, f): the makespan
  double mean_overhead_s = 0.0;  ///< mean per-rank network time
  double mean_cpu_s = 0.0;       ///< mean per-rank ON-chip time
  double mean_memory_s = 0.0;    ///< mean per-rank OFF-chip time
  bool verified = false;
  power::EnergyBreakdown energy;
  double messages_per_rank = 0.0;
  double doubles_per_message = 0.0;
  sim::InstructionMix executed_per_rank;  ///< mean executed mix
  RunStatus status = RunStatus::kOk;
  std::string error;         ///< diagnostic text of a failed run
  int attempts = 1;          ///< simulation attempts (sweep retries + 1)
  double send_retries = 0.0; ///< fault-injected resends, summed over ranks

  // ---- sampled estimation (DESIGN.md §14) ---------------------------
  // Sampled records are statistical estimates, never byte-compared:
  // `seconds`, the per-rank activity means and the energy breakdown are
  // extrapolated from the detailed subset, with 95% half-widths below.
  bool sampled = false;
  int total_iters = 0;    ///< full iteration count being estimated
  int sampled_iters = 0;  ///< iterations executed in detail
  double ci_seconds = 0.0;
  double ci_energy_j = 0.0;

  bool failed() const { return status != RunStatus::kOk; }
};

struct MatrixResult {
  std::vector<RunRecord> records;
  core::TimingMatrix times;

  /// Appends a record and feeds the timing matrix + lookup index.
  /// Failed records join `records` (and the index) but are kept out of
  /// the timing matrix — model fits must not see fault aborts as data.
  void add(RunRecord record);

  /// Records with a non-kOk status.
  std::vector<const RunRecord*> failed_points() const;

  /// O(1) via a (nodes, frequency) hash index; the index is rebuilt
  /// lazily if `records` was appended to directly. Not safe to call
  /// concurrently with modifications.
  const RunRecord& at(int nodes, double frequency_mhz) const;

 private:
  static long long grid_key(int nodes, double frequency_mhz) {
    // Frequency keyed to 0.1 MHz, same convention as core::TimingMatrix.
    const long fkey = static_cast<long>(frequency_mhz * 10.0 + 0.5);
    return (static_cast<long long>(nodes) << 32) | static_cast<long long>(fkey);
  }
  mutable std::unordered_map<long long, std::size_t> index_;
};

/// Converts a run report into per-node activity profiles for the
/// energy meter.
std::vector<power::ActivityProfile> activity_profiles(
    const mpi::RunResult& result);

/// SMARTS-style sampled-estimation plan for one run (DESIGN.md §14).
/// Default-constructed = the plain exact run. `sample_period` > 1 runs
/// only the detailed subset of iterations, and the record becomes a
/// scaled estimate carrying confidence intervals (RunRecord::sampled).
struct SamplingPlan {
  int sample_period = 0;
  int warmup_iters = 0;

  bool active() const { return sample_period > 1; }
};

class RunMatrix {
 public:
  explicit RunMatrix(sim::ClusterConfig cluster,
                     power::PowerModel power = power::PowerModel());

  const sim::ClusterConfig& cluster() const { return cluster_; }
  const power::PowerModel& power() const { return meter_.model(); }

  /// The underlying runtime's event sink. Enable before run_one to
  /// collect per-rank activity events; SweepExecutor uses this to
  /// harvest per-point traces for the obs layer.
  sim::Tracer& tracer() { return runtime_.tracer(); }

  /// The underlying runtime's charged-work recorder. Arm (begin) before
  /// run_one and harvest (take) after it to capture a replayable
  /// ledger; SweepExecutor's frequency-collapse fast path records one
  /// per (kernel, N) column (DESIGN.md §10).
  sim::WorkLedgerRecorder& ledger_recorder() {
    return runtime_.ledger_recorder();
  }

  /// Fault injection for the next runs, replacing cluster().fault (a
  /// leased matrix serves sweeps under different fault configs).
  void set_fault_config(const fault::FaultConfig& fault) {
    cluster_.fault = fault;
    runtime_.set_fault_config(fault);
  }

  /// One configuration. `comm_dvfs_mhz` != 0 enables communication-
  /// phase DVFS at that operating point (paper §1 / refs [14, 15]).
  /// `fault_attempt` salts the run's FaultPlan (sweep-level retries);
  /// fault-induced aborts propagate as exceptions for the executor's
  /// fail-soft path to classify. An active `sampling` plan requires a
  /// kernel with iteration hooks (iteration_count(nodes) > 0).
  RunRecord run_one(const npb::Kernel& kernel, int nodes,
                    double frequency_mhz, double comm_dvfs_mhz = 0.0,
                    int fault_attempt = 0, const SamplingPlan& sampling = {});

  /// The full grid.
  MatrixResult sweep(const npb::Kernel& kernel,
                     const std::vector<int>& node_counts,
                     const std::vector<double>& freqs_mhz,
                     double comm_dvfs_mhz = 0.0);

 private:
  sim::ClusterConfig cluster_;
  power::EnergyMeter meter_;
  /// Persistent across run_one calls: every run starts from a reset
  /// cluster, so reuse only amortizes rank-thread and cluster setup.
  mpi::Runtime runtime_;
};

}  // namespace pas::analysis
