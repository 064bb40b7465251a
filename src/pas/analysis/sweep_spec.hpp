// SweepSpec — the one canonical description of a sweep, shared by
// every bench CLI, the offline SweepExecutor and the pasim_serve wire
// protocol (DESIGN.md §13).
//
// A spec has two halves:
//
//   * The *document* half — kernel, scale, grid axes, sweep options,
//     optional fault injection — round-trips through a strictly
//     validated, schema-versioned JSON form (`to_json`/`from_json`).
//     This is what `--spec FILE` loads, what pasim_client submits,
//     and what scripts/check_spec_schema.py validates from first
//     principles.
//   * The *process-local* half — cluster override, power model,
//     observer sinks — configures one executor in this process and is
//     never serialized (a server supplies its own).
//
// Resolution: the document names things ("FT", "small", an empty
// nodes list meaning "the scale's default grid") and the resolved_*()
// helpers expand them against the paper presets, so a spec with only
// {"version":1} is already a complete, runnable description of the
// default EP sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pas/fault/fault.hpp"
#include "pas/obs/observer.hpp"
#include "pas/power/power_model.hpp"
#include "pas/sim/cluster.hpp"

namespace pas::util {
class Cli;
class Json;
}  // namespace pas::util

namespace pas::analysis {

/// Problem-size presets.
enum class Scale {
  kPaper,  ///< full evaluation sizes
  kSmall,  ///< unit/integration-test sizes
};

struct SweepOptions {
  /// Concurrent grid points; <= 0 means "use the machine"
  /// (ThreadPool::default_jobs).
  int jobs = 0;
  /// Directory for the persistent run cache; empty = in-memory only.
  std::string cache_dir;
  /// false disables the run cache: no record or ledger is looked up
  /// or stored, so every point misses. A fast-path column
  /// still records its ledger in memory for the task that runs it and
  /// re-prices its other frequencies (DESIGN.md §10): --no-cache still
  /// collapses frequencies.
  bool use_cache = true;
  /// Per-point retries of *transient* fault aborts (message loss, node
  /// failure, ...) before the point is recorded as failed. Each retry
  /// replays an attempt-salted FaultPlan, so retrying stays
  /// deterministic. Only consulted when the cluster's fault injection
  /// is enabled.
  int run_retries = 1;
  /// Cross-checks the frequency-collapse fast path: every repriced
  /// point is additionally re-simulated in full and the two RunRecords
  /// must be identical in every cached byte (RunCache::encode_record);
  /// any difference aborts the sweep with std::runtime_error.
  bool verify_replay = false;
  /// Write-ahead sweep journal (DESIGN.md §12): every completed point
  /// — successful or fail-soft — is framed, checksummed and fsync'd to
  /// this file before the sweep moves on. Empty = no journal.
  std::string journal_path;
  /// Load the journal instead of truncating it: already-journaled
  /// points are skipped (except under tracing, where they re-simulate
  /// so trace.json stays byte-identical) and counted in the stable
  /// `sweep.points_resumed` metric.
  bool resume = false;
  /// Supervisor mode: each sweep column runs in a forked child process
  /// with a wall-clock deadline; crashes/OOM kills/timeouts cost the
  /// column (fail-soft kCrashed/kTimeout records after bounded
  /// exponential-backoff retries), never the sweep. Implies a journal
  /// (it is the supervisor's IPC). Incompatible with tracing.
  bool isolate = false;
  double isolate_timeout_s = 300.0;  ///< per-child wall-clock deadline
  int isolate_retries = 1;           ///< re-forks per crashed column
  /// Disk-cache size cap in bytes; > 0 enables LRU eviction after
  /// stores (see RunCache). 0 = unbounded.
  std::uint64_t cache_cap_bytes = 0;
  /// SMARTS-style sampled estimation (DESIGN.md §14, schema v2): only
  /// a systematic subset of kernel iterations simulates in detail and
  /// each point's record becomes an extrapolated estimate carrying
  /// 95% confidence intervals. Opt-in; exact simulation is the
  /// default. Incompatible with verify_replay (a sampled record is an
  /// estimate — byte-comparing it against a full simulation is a
  /// category error; sampled accuracy is checked by verify_sampling).
  bool sampling = false;
  /// Every `sample_period`-th iteration simulates in detail after a
  /// window of `warmup_iters` detailed iterations. Only consulted when
  /// `sampling` is on.
  int sample_period = 10;
  int warmup_iters = 2;
  /// Re-simulates this fraction of sampled points exactly (selected by
  /// key hash, so deterministic) and requires each exact makespan to
  /// fall within the sampled estimate's confidence interval; any
  /// violation aborts the sweep. 0 disables; > 0 requires sampling.
  double verify_sampling = 0.0;

  /// Bench/example configuration: `--jobs N` (default: $PASIM_JOBS,
  /// then the cores in the affinity mask), `--cache [dir]` (default dir
  /// `.pasim_cache`; or $PASIM_CACHE_DIR), `--no-cache`,
  /// `--retries N`, `--verify-replay`, `--journal [file]` (default
  /// `pasim_sweep.journal`), `--resume`, `--isolate`,
  /// `--isolate-timeout S`, `--isolate-retries N`, `--cache-cap MB`,
  /// `--sampling`, `--sample-period N`, `--warmup-iters N`,
  /// `--verify-sampling FRAC`.
  /// `--resume`/`--isolate` imply the default journal path when
  /// `--journal` is absent. Throws std::invalid_argument for
  /// `--jobs < 1`, `--retries < 0`, a $PASIM_JOBS that is not a
  /// positive integer, a $PASIM_CACHE_DIR that is set but empty —
  /// environment values obey the same rules as the flags they stand in
  /// for — `--verify-replay` combined with `--no-cache` (disabling
  /// the cache would silently drop the verification pass's record
  /// comparison baseline), `--isolate-timeout <= 0`,
  /// `--isolate-retries < 0`, `--cache-cap` without a disk cache,
  /// `--sample-period < 2`, `--warmup-iters < 0`, `--verify-sampling`
  /// outside (0, 1] or without `--sampling`, or `--sampling` combined
  /// with `--verify-replay`.
  static SweepOptions from_cli(const util::Cli& cli);

  /// from_cli layered over `base` (typically options loaded from a
  /// --spec file): a flag wins over its environment variable, which
  /// wins over the base value, which wins over the built-in default.
  /// The merged result obeys all of from_cli's validation rules.
  static SweepOptions apply_cli(const util::Cli& cli, SweepOptions base);

  /// The options object of the spec JSON document. Defaulted fields
  /// are still emitted, so dumps are self-describing and canonical.
  util::Json to_json() const;
  /// Strict inverse: unknown keys, wrong types and out-of-range
  /// values throw std::invalid_argument naming the field. The removed
  /// `checkpoints` member is still accepted as false, because every
  /// document earlier builds wrote carries it; true is refused.
  static SweepOptions from_json(const util::Json& j);
};

/// Everything that configures a SweepExecutor.
struct SweepSpec {
  /// JSON document schema version emitted by to_json. from_json also
  /// accepts version 1 documents — v1 predates sampled estimation and
  /// checkpoint warm-starts, so a v1 document using any v2 field
  /// (iterations; options.sampling, sample_period, warmup_iters,
  /// verify_sampling, checkpoints) is rejected.
  static constexpr int kSchemaVersion = 2;

  // --- The serializable document (schema v2) -------------------------
  /// "EP", "FT", "LU", "CG" or "MG".
  std::string kernel = "EP";
  /// Problem-size preset: "paper" (16 nodes, full grid) or "small".
  std::string scale = "paper";
  /// Node-count axis; empty = the scale's default grid.
  std::vector<int> nodes;
  /// Frequency axis in MHz; empty = the scale's default grid.
  std::vector<double> freqs_mhz;
  /// != 0 enables communication-phase DVFS at that operating point.
  double comm_dvfs_mhz = 0.0;
  /// Overrides the kernel's top-level iteration count (schema v2);
  /// 0 keeps the scale preset's count. Rejected for kernels without
  /// iteration hooks (resolved at kernel construction).
  int iterations = 0;
  SweepOptions options;
  /// When set, replaces cluster.fault (convenient for fault-rate
  /// sweeps that share one base cluster).
  std::optional<fault::FaultConfig> fault;

  // --- Process-local state, never serialized -------------------------
  /// Cluster override; empty = the scale's preset testbed
  /// (paper_testbed(16) or paper_testbed(4)).
  std::optional<sim::ClusterConfig> cluster;
  power::PowerModel power;
  /// Observability sinks; null (the default) disables collection
  /// entirely (see pas/obs/observer.hpp).
  std::shared_ptr<obs::Observer> observer;

  // --- Resolution -----------------------------------------------------
  /// Throws std::invalid_argument on an unknown scale or kernel name.
  Scale resolved_scale() const;
  sim::ClusterConfig resolved_cluster() const;
  std::vector<int> resolved_nodes() const;
  std::vector<double> resolved_freqs() const;
  /// The speedup base frequency: the smallest resolved frequency (600
  /// MHz on the default grids, matching the paper's base point).
  double base_f_mhz() const;

  /// Checks the document half (kernel/scale names, positive axes);
  /// throws std::invalid_argument with the offending field.
  void validate() const;

  // --- JSON round-trip ------------------------------------------------
  /// Canonical document: every document field is emitted (fault only
  /// when set), keys in schema order, so to_json(from_json(d)).dump()
  /// is a byte-stable fixpoint.
  util::Json to_json() const;
  /// Strict parse: requires "version" 1 or 2, rejects unknown keys at
  /// every nesting level (v2 fields count as unknown in a v1
  /// document), type-checks every field.
  static SweepSpec from_json(const util::Json& j);
  /// from_json over Json::parse.
  static SweepSpec parse(const std::string& text);
  /// Reads and parses a spec file; errors mention the path.
  static SweepSpec load(const std::string& path);

  /// The bench/example entry point: starts from `--spec FILE` when
  /// given (else an all-defaults spec), then lets flags override the
  /// document — `--small`, `--kernel K`, `--nodes LIST`,
  /// `--freqs LIST`, `--comm-dvfs MHZ`, `--iterations N`,
  /// `--faults RATE`,
  /// `--fault-seed N` (`--faults 0` clears an inherited fault block),
  /// and every SweepOptions flag via apply_cli. The observer is also
  /// wired from the CLI (`--trace`/`--metrics`). A non-null `kernel`
  /// replaces the merged document's kernel (a bench that is one
  /// kernel's figure). The result is checked against the kernel it
  /// names (make_spec_kernel), and whatever the merge or that check
  /// rejects is a usage error: Cli::usage_error, exit status 2.
  static SweepSpec from_cli(const util::Cli& cli,
                            const char* kernel = nullptr);

  /// Every option name from_cli consumes (spec, axes, SweepOptions,
  /// faults, observer), for Cli::check_usage — binaries append their
  /// own flags:
  ///
  ///   auto known = analysis::SweepSpec::cli_option_names();
  ///   known.insert(known.end(), {"csv", "out"});
  ///   cli.check_usage(known);
  static std::vector<std::string> cli_option_names();
};

}  // namespace pas::analysis
