// SweepExecutor — the concurrent, memoized sweep engine.
//
// The evaluation is a grid of independent simulated runs: every run
// owns a private Runtime/Cluster and starts from reset state, so runs
// are embarrassingly parallel (the paper's own point about degree of
// parallelism, applied to our harness). The executor fans the grid out
// over a fixed worker pool while keeping results deterministic:
//
//   * MatrixResult.records stays in grid order (nodes-major, frequency
//     minor, exactly as the serial RunMatrix produces it), and
//   * every record is bit-identical to the serial path — concurrency
//     changes only wall-clock time, never virtual time (DESIGN.md §6).
//
// A RunCache (in-memory, optionally disk-backed) memoizes records by
// the canonical operating-point key, so parameterization passes and
// repeated bench invocations stop re-simulating identical points.
//
// On top of both sits the frequency-collapse fast path (DESIGN.md
// §10): when a kernel declares frequency_invariant_control_flow(), only
// the first frequency of each (kernel, N, comm-DVFS) column is
// simulated — the run records a charged-work ledger and one
// analysis::BatchRepricer pass prices every remaining frequency of the
// column, bit-identical to a full run (DESIGN.md §11), armed fault
// injection included: a lane whose first attempt would abort on a
// fault is simulated in full instead. Faults never change the op
// stream, so the ledger key ignores them: the same column under every
// fault config of a batch (SweepRequest::fault) is one task that
// records once and prices each config's lanes, heads included, by
// replay. SweepOptions::verify_replay re-simulates every repriced point
// and hard-fails on any byte difference.
//
// For the axes repricing cannot collapse (node counts, iteration
// depths), DESIGN.md §14 adds one opt-in acceleration: SMARTS-style
// sampled estimation (approximate — only a systematic subset of
// iterations simulates in detail and each record becomes an
// extrapolated estimate carrying 95% confidence intervals,
// cross-checked by SweepOptions::verify_sampling). Off by default;
// exact sweeps are untouched.
//
// The API is spec-shaped: everything that configures an executor lives
// in SweepSpec (pas/analysis/sweep_spec.hpp — kernel/scale/grid
// document plus process-local cluster, power model, fault override and
// observability sinks) and everything that describes one grid lives in
// SweepRequest, consumed by the run() entry points:
//
//   analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli);
//   analysis::SweepExecutor exec(spec);
//   analysis::MatrixResult m = exec.run();   // the spec's own grid
//   // or, for an explicit grid:
//   analysis::MatrixResult m = exec.run({&kernel, nodes, freqs_mhz});
//   // or, for several grids at once (one batch, --jobs N across all):
//   std::vector<analysis::MatrixResult> ms = exec.run_all({ep, ft, lu});
//   // or, one grid clean and under faults (one recording per column):
//   analysis::SweepRequest faulty = clean;
//   faulty.fault = fault::FaultConfig::scaled(0.05, seed);
//   std::vector<analysis::MatrixResult> ms = exec.run_all({clean, faulty});
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sweep_journal.hpp"
#include "pas/analysis/sweep_spec.hpp"
#include "pas/fault/fault.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/thread_pool.hpp"

namespace pas::analysis {

/// One sweep grid: the kernel crossed with node counts and
/// frequencies (nodes-major, frequency-minor order).
struct SweepRequest {
  const npb::Kernel* kernel = nullptr;
  std::vector<int> node_counts;
  std::vector<double> freqs_mhz;
  /// != 0 enables communication-phase DVFS at that operating point.
  double comm_dvfs_mhz = 0.0;
  /// Fault injection for this grid, replacing the executor's cluster
  /// fault config; unset = the executor's. Every per-point step (keys,
  /// retries, simulation, replay) runs under it.
  /// Requests of one batch that differ only here share each column's
  /// charged-work recording (DESIGN.md §10).
  std::optional<fault::FaultConfig> fault = std::nullopt;
};

class SweepExecutor {
 public:
  explicit SweepExecutor(SweepSpec spec);

  /// The spec this executor was built from (document fields intact,
  /// so a server can re-derive the grid it is answering for).
  const SweepSpec& spec() const { return spec_; }

  int jobs() const { return pool_.max_threads(); }
  RunCache& cache() { return cache_; }
  const RunCache& cache() const { return cache_; }
  /// The write-ahead journal, when one is configured; null otherwise.
  SweepJournal* journal() { return journal_.get(); }
  /// Journals into the existing journal at `path` without reading its
  /// history (SweepJournal::Mode::kAttach), replacing any journal the
  /// spec configured: the worker side of a supervisor that hands out
  /// only unresolved points and harvests the appends with refresh().
  void attach_journal(const std::string& path);
  const sim::ClusterConfig& cluster() const { return cluster_; }
  const std::shared_ptr<obs::Observer>& observer() const { return observer_; }

  /// One operating point of the grid.
  struct Point {
    int nodes = 0;
    double frequency_mhz = 0.0;
    double comm_dvfs_mhz = 0.0;
  };

  /// Runs every request's grid as one batch and returns one result per
  /// request, in request order, each with records in grid order and
  /// bit-identical to the serial path. Every request's tasks share the
  /// pool, so --jobs N keeps N tasks in flight across all the grids,
  /// not only within one. A task is one ledger group on the fast path
  /// — the columns of the batch that share a ledger key (the same
  /// column under each request's fault config), in request order — and
  /// one point otherwise. Observer sweeps are registered in request
  /// order before any task runs, so sweep ids never depend on
  /// scheduling.
  ///
  /// Fail-soft: a run aborted by fault injection or the deadlock
  /// watchdog is retried (`run_retries`, transient faults only) and
  /// then recorded with its failure status — the sweep continues.
  /// Non-fault exceptions (bad configuration, programming errors)
  /// still propagate after all tasks drain. Logs a summary of failed
  /// points per request, if any.
  std::vector<MatrixResult> run_all(const std::vector<SweepRequest>& requests);

  /// run_all of one request.
  MatrixResult run(const SweepRequest& request);

  /// Runs the spec's own grid: the document's kernel at its scale,
  /// crossed with resolved_nodes() × resolved_freqs() at
  /// comm_dvfs_mhz. This is what a `--spec FILE` run and a server
  /// worker both execute, so "the same spec" means the same sweep
  /// everywhere.
  MatrixResult run();

  /// Cache-aware equivalent of RunMatrix::run_one. Not reported to the
  /// observer (single probes are not sweep points).
  RunRecord run_one(const npb::Kernel& kernel, int nodes,
                    double frequency_mhz, double comm_dvfs_mhz = 0.0);

  /// Runs `points` concurrently; the result vector matches `points`
  /// index-for-index. Reported to the observer as one sweep.
  std::vector<RunRecord> run_points(const npb::Kernel& kernel,
                                    const std::vector<Point>& points);

 private:
  class MatrixLease;
  /// Observer coordinates of the point being run (sweep id + index);
  /// null when the point is not reported.
  struct ObsCtx {
    int sweep = -1;
    int index = -1;
  };
  /// One grid of a batch: its kernel and cluster (the executor's, with
  /// the request's fault config applied), its points, their observer
  /// coordinates (empty when nothing observes) and the records being
  /// resolved.
  struct Sweep {
    const npb::Kernel* kernel = nullptr;
    sim::ClusterConfig cluster;
    std::vector<Point> points;
    std::vector<ObsCtx> ctxs;
    std::vector<RunRecord> records;
    /// Point i's observer coordinates; null when nothing observes.
    const ObsCtx* ctx(std::size_t i) const {
      return ctxs.empty() ? nullptr : &ctxs[i];
    }
  };
  /// The fast-path columns of a batch that share one ledger key — the
  /// same column under each request's fault config — in request order,
  /// and the ledger they price from: resolved at the group's first miss
  /// and dropped when the group's task ends (a cache keeps its own).
  struct LedgerGroup {
    std::string key;
    std::vector<std::pair<Sweep*, std::vector<std::size_t>>> columns;
    std::shared_ptr<const sim::WorkLedger> ledger;
    bool ledger_checked = false;  ///< the ledger cache was consulted
    bool declined = false;        ///< recording declined: simulate in full
  };
  /// The one path every entry point runs: registers each sweep with
  /// the observer in order, then resolves all their points as a single
  /// task list drained once (or, under --isolate, by worker processes
  /// supervised from the calling thread).
  void run_sweeps(std::vector<Sweep>& sweeps);
  /// Resolves a point the journal and the record cache both miss:
  /// returns its record, or nullopt to defer the point to its column's
  /// batched replay. Receives the point's key.
  using MissFn =
      std::function<std::optional<RunRecord>(const std::string& key)>;
  /// The per-point pipeline every path runs: journal resume, record-
  /// cache lookup, then `miss` (simulate_point when empty), and
  /// commit_point for the resolved record. Returns nullopt only for a
  /// point `miss` deferred.
  std::optional<RunRecord> run_point(const Sweep& s, const Point& p,
                                     const ObsCtx* ctx,
                                     const MissFn& miss = {});
  /// The pipeline's tail: record-cache store (fresh, successful records
  /// only), journal append and note_point.
  void commit_point(const npb::Kernel& kernel, const Point& p,
                    const ObsCtx* ctx, const std::string& key,
                    const RunRecord& rec, bool from_cache, bool repriced,
                    double elapsed_s);
  /// Runs one fast-path column of `group` through run_point in grid
  /// order: the group's first miss loads or records its charged-work
  /// ledger, and ONE BatchRepricer pass under the sweep's cluster
  /// prices every later miss of the column (DESIGN.md §11).
  void run_column(Sweep& s, const std::vector<std::size_t>& members,
                  LedgerGroup& group);
  /// Per-point observer accounting (wall histogram, stable counters,
  /// report point). `resumed` marks a point served from the sweep
  /// journal (never also from_cache/repriced).
  void note_point(const npb::Kernel& kernel, const Point& p, const ObsCtx* ctx,
                  const RunRecord& rec, bool from_cache, bool repriced,
                  bool resumed, double elapsed_s);
  /// --isolate: runs each column of the batch the journal does not
  /// already hold in a worker process under the ColumnSupervisor policy
  /// (DESIGN.md §12), at most `jobs` at once, and records
  /// kCrashed/kTimeout for members of a column the supervisor gives up.
  /// Runs on the calling thread only, whose frame its workers read: the
  /// supervisor forks their zygote there, while the pool is idle.
  void run_isolated(std::vector<Sweep>& sweeps);
  /// Stable replay counters: lanes priced and ledger ops replayed, and
  /// the size and count of resolved column ledgers.
  void note_repriced_lanes(std::size_t lanes, std::size_t ops);
  void note_ledger_resolved(const sim::WorkLedger& ledger);
  /// An active `sampling` plan runs the sampled iteration subset
  /// (DESIGN.md §14); never combined with `ledger_out` (sampled work
  /// is not replayable).
  RunRecord simulate_failsoft(const Sweep& s, const Point& p,
                              const ObsCtx* ctx,
                              sim::WorkLedger* ledger_out = nullptr,
                              const SamplingPlan& sampling = {});
  /// Simulates one point with sampling applied (DESIGN.md §14); plain
  /// simulate_failsoft when sampling is off. `key` is the point's cache
  /// key ("" when caching and journaling are both off).
  RunRecord simulate_point(const Sweep& s, const Point& p, const ObsCtx* ctx,
                           const std::string& key);
  /// --verify-sampling: a deterministic key-hash-selected fraction of
  /// sampled points is re-simulated exactly; the exact makespan must
  /// fall within the estimate's 95% confidence interval or the sweep
  /// aborts with std::runtime_error.
  void maybe_verify_sampling(const Sweep& s, const Point& p,
                             const std::string& key, const RunRecord& rec);
  /// The record cache / journal key of one point. Sampled records are
  /// estimates and are keyed apart from exact records (a
  /// "|sampled(p=..,w=..)" suffix), so the two populations can never
  /// satisfy each other's lookups.
  std::string point_key(const Sweep& s, const Point& p) const;
  /// The exactness gate: true when every point of this sweep may use
  /// the charged-work fast path.
  bool fast_path_eligible(const npb::Kernel& kernel) const;

  SweepSpec spec_;
  sim::ClusterConfig cluster_;
  power::PowerModel power_;
  util::ThreadPool pool_;
  RunCache cache_;
  bool use_cache_;
  int run_retries_;
  bool verify_replay_;
  /// SMARTS-style sampled estimation (DESIGN.md §14), mirrored out of
  /// spec_.options.
  bool sampling_;
  int sample_period_;
  int warmup_iters_;
  double verify_sampling_;
  /// Write-ahead journal behind --resume/--isolate; null when not
  /// configured.
  std::unique_ptr<SweepJournal> journal_;
  bool isolate_;
  double isolate_timeout_s_;
  int isolate_retries_;
  std::shared_ptr<obs::Observer> observer_;
  /// RunMatrix instances (each with its own Runtime + rank pool) are
  /// leased per task, armed with the leasing sweep's fault config, and
  /// reused, so a sweep touches at most `jobs` simulated clusters
  /// however large the grid is.
  std::mutex slots_mutex_;
  std::vector<std::unique_ptr<RunMatrix>> matrices_;
  std::vector<RunMatrix*> free_matrices_;
};

}  // namespace pas::analysis
