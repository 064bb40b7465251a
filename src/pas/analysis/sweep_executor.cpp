#include "pas/analysis/sweep_executor.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "pas/analysis/batch_repricer.hpp"
#include "pas/analysis/column_supervisor.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/log.hpp"

namespace pas::analysis {
namespace {

obs::ReportPoint make_report_point(const std::string& kernel,
                                   double comm_dvfs_mhz, const RunRecord& rec,
                                   bool from_cache) {
  obs::ReportPoint rp;
  rp.kernel = kernel;
  rp.nodes = rec.nodes;
  rp.frequency_mhz = rec.frequency_mhz;
  rp.comm_dvfs_mhz = comm_dvfs_mhz;
  rp.status = run_status_name(rec.status);
  rp.verified = rec.verified;
  rp.from_cache = from_cache;
  rp.attempts = rec.attempts;
  rp.seconds = rec.seconds;
  rp.mean_overhead_s = rec.mean_overhead_s;
  rp.mean_cpu_s = rec.mean_cpu_s;
  rp.mean_memory_s = rec.mean_memory_s;
  rp.send_retries = rec.send_retries;
  rp.sampled = rec.sampled;
  rp.total_iters = rec.total_iters;
  rp.sampled_iters = rec.sampled_iters;
  rp.ci_seconds = rec.ci_seconds;
  rp.ci_energy_j = rec.ci_energy_j;
  rp.energy_cpu_j = rec.energy.cpu_j;
  rp.energy_memory_j = rec.energy.memory_j;
  rp.energy_network_j = rec.energy.network_j;
  rp.energy_idle_j = rec.energy.idle_j;
  return rp;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Groups the indices of `points` into (N, comm-DVFS) columns, the unit
/// one ledger prices, in first-appearance order. Indices `skip` marks
/// are left out.
std::vector<std::vector<std::size_t>> group_columns(
    const std::vector<SweepExecutor::Point>& points,
    const std::vector<char>& skip = {}) {
  std::vector<std::vector<std::size_t>> columns;
  std::unordered_map<long long, std::size_t> column_of;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!skip.empty() && skip[i]) continue;
    const long long column_key =
        (static_cast<long long>(points[i].nodes) << 32) |
        static_cast<long long>(sim::NodeState::fkey(points[i].comm_dvfs_mhz));
    const auto [it, inserted] = column_of.emplace(column_key, columns.size());
    if (inserted) columns.emplace_back();
    columns[it->second].push_back(i);
  }
  return columns;
}

}  // namespace

/// RAII lease of a RunMatrix slot: taken from the free list, or created
/// when every existing instance is busy (bounded by the pool size, so
/// at most `jobs` instances ever exist), and armed with the leasing
/// sweep's fault config — the one cluster field sweeps of a batch vary.
class SweepExecutor::MatrixLease {
 public:
  MatrixLease(SweepExecutor& exec, const fault::FaultConfig& fault)
      : exec_(exec) {
    {
      std::lock_guard<std::mutex> lock(exec_.slots_mutex_);
      if (!exec_.free_matrices_.empty()) {
        matrix_ = exec_.free_matrices_.back();
        exec_.free_matrices_.pop_back();
      } else {
        exec_.matrices_.push_back(
            std::make_unique<RunMatrix>(exec_.cluster_, exec_.power_));
        matrix_ = exec_.matrices_.back().get();
      }
    }
    matrix_->set_fault_config(fault);
  }
  ~MatrixLease() {
    std::lock_guard<std::mutex> lock(exec_.slots_mutex_);
    exec_.free_matrices_.push_back(matrix_);
  }
  RunMatrix& operator*() { return *matrix_; }

 private:
  SweepExecutor& exec_;
  RunMatrix* matrix_ = nullptr;
};

SweepExecutor::SweepExecutor(SweepSpec spec)
    : spec_(std::move(spec)),
      cluster_(spec_.cluster ? *spec_.cluster : spec_.resolved_cluster()),
      power_(spec_.power),
      pool_(spec_.options.jobs > 0 ? spec_.options.jobs
                                   : util::ThreadPool::default_jobs()),
      cache_(spec_.options.cache_dir, spec_.options.cache_cap_bytes),
      use_cache_(spec_.options.use_cache),
      run_retries_(spec_.options.run_retries),
      verify_replay_(spec_.options.verify_replay),
      sampling_(spec_.options.sampling),
      sample_period_(spec_.options.sample_period),
      warmup_iters_(spec_.options.warmup_iters),
      verify_sampling_(spec_.options.verify_sampling),
      isolate_(spec_.options.isolate),
      isolate_timeout_s_(spec_.options.isolate_timeout_s),
      isolate_retries_(spec_.options.isolate_retries),
      observer_(spec_.observer) {
  if (spec_.fault) cluster_.fault = *spec_.fault;
  if (observer_) observer_->set_power_model(power_);
  if (isolate_ && observer_ && observer_->tracing())
    throw std::invalid_argument(
        "--isolate cannot collect traces: isolated workers report results "
        "through the journal, which carries records, not trace events; "
        "drop --trace or --isolate");
  if (!spec_.options.journal_path.empty())
    journal_ = std::make_unique<SweepJournal>(spec_.options.journal_path,
                                              spec_.options.resume);
  if (isolate_ && !journal_)
    throw std::invalid_argument(
        "SweepOptions.isolate requires journal_path: the journal is how "
        "isolated workers hand results back to the supervisor");
  // SweepOptions::from_cli/from_json enforce these too, but a spec
  // assembled in code can reach the ctor directly.
  if (sampling_ && verify_replay_)
    throw std::invalid_argument(
        "SweepOptions.sampling is incompatible with verify_replay: a "
        "sampled record is an estimate, never byte-identical to a full "
        "simulation; use verify_sampling instead");
  if (verify_sampling_ > 0.0 && !sampling_)
    throw std::invalid_argument(
        "SweepOptions.verify_sampling requires sampling: there are no "
        "sampled estimates to verify otherwise");
  if (sampling_ && sample_period_ < 2)
    throw std::invalid_argument(
        "SweepOptions.sample_period must be >= 2: period 1 is exact "
        "simulation");
  if (sampling_ && warmup_iters_ < 0)
    throw std::invalid_argument("SweepOptions.warmup_iters must be >= 0");
}

void SweepExecutor::attach_journal(const std::string& path) {
  journal_ = std::make_unique<SweepJournal>(path, SweepJournal::Mode::kAttach);
}

RunRecord SweepExecutor::simulate_failsoft(const Sweep& s, const Point& p,
                                           const ObsCtx* ctx,
                                           sim::WorkLedger* ledger_out,
                                           const SamplingPlan& sampling) {
  const npb::Kernel& kernel = *s.kernel;
  if (ledger_out != nullptr && sampling.active())
    throw std::logic_error(
        "simulate_failsoft: a sampled run cannot record a charged-work "
        "ledger (sampled work is not replayable)");
  // Retries only make sense when fault injection is on: each attempt
  // replays a differently-salted (still deterministic) FaultPlan. A
  // deadlock in a fault-free run is a bug in the kernel body and would
  // reproduce identically, so it is recorded on the first attempt.
  const int max_attempts =
      1 + (s.cluster.fault.enabled() ? std::max(0, run_retries_) : 0);
  const bool tracing = observer_ && observer_->tracing() && ctx != nullptr;
  for (int attempt = 0;; ++attempt) {
    RunStatus status;
    std::string error;
    try {
      MatrixLease lease(*this, s.cluster.fault);
      // Leased matrices are shared across points, so the tracer must
      // come back disabled and empty whatever happens; an aborted
      // attempt's partial events are wall-clock-dependent and are
      // never harvested (DESIGN.md §8).
      struct TraceGuard {
        sim::Tracer* t;
        ~TraceGuard() {
          if (t == nullptr) return;
          t->disable();
          t->clear();
        }
      } guard{tracing ? &(*lease).tracer() : nullptr};
      if (tracing) {
        (*lease).tracer().clear();
        (*lease).tracer().enable();
      }
      // Charged-work recording, same lifecycle discipline as tracing:
      // armed per attempt, harvested only from a successful run — an
      // aborted attempt's partial ledger is never replayed.
      struct RecorderGuard {
        sim::WorkLedgerRecorder* rec;
        ~RecorderGuard() {
          if (rec != nullptr) rec->abort();
        }
      } recorder{nullptr};
      if (ledger_out != nullptr) {
        (*lease).ledger_recorder().begin(p.nodes, p.comm_dvfs_mhz);
        recorder.rec = &(*lease).ledger_recorder();
      }
      RunRecord rec = (*lease).run_one(kernel, p.nodes, p.frequency_mhz,
                                       p.comm_dvfs_mhz, attempt, sampling);
      rec.attempts = attempt + 1;
      if (recorder.rec != nullptr) {
        *ledger_out = recorder.rec->take();
        recorder.rec = nullptr;
        // The verification verdict is frequency-invariant (same
        // arithmetic, same results); replayed records reuse it.
        ledger_out->verified = rec.verified;
      }
      if (tracing) {
        obs::RunTrace trace;
        trace.nranks = p.nodes;
        trace.frequency_mhz = p.frequency_mhz;
        trace.op = s.cluster.operating_points.at_mhz(p.frequency_mhz);
        trace.makespan_s = rec.seconds;
        trace.events = (*lease).tracer().events();
        trace.wall_s = observer_->wall_now_s();
        observer_->record_run_trace(ctx->sweep, ctx->index, std::move(trace));
      }
      return rec;
    } catch (const fault::NodeFailedError& e) {
      status = RunStatus::kNodeFailure;
      error = e.what();
    } catch (const fault::MessageLossError& e) {
      status = RunStatus::kMessageLoss;
      error = e.what();
    } catch (const mpi::TimeoutError& e) {
      status = RunStatus::kTimeout;
      error = e.what();
    } catch (const mpi::DeadlockError& e) {
      status = RunStatus::kDeadlock;
      error = e.what();
    }
    // Fault-induced aborts are data, not bugs. Anything else (bad
    // operating point, rank-body exception, ...) propagates above.
    if (attempt + 1 < max_attempts) {
      util::log_info(util::strf(
          "%s N=%d f=%.0fMHz: %s (%s); retrying (attempt %d/%d)",
          kernel.name().c_str(), p.nodes, p.frequency_mhz,
          run_status_name(status), error.c_str(), attempt + 2, max_attempts));
      continue;
    }
    RunRecord rec;
    rec.nodes = p.nodes;
    rec.frequency_mhz = p.frequency_mhz;
    rec.status = status;
    rec.error = std::move(error);
    rec.attempts = attempt + 1;
    return rec;
  }
}

bool SweepExecutor::fast_path_eligible(const npb::Kernel& kernel) const {
  // The exactness gate (DESIGN.md §10): the kernel must declare that
  // its control flow never depends on virtual time. Armed faults
  // change priced seconds and aborts, never the op stream, and the
  // repricer re-draws each lane's fault streams itself. Sampled runs
  // never record ledgers (a subset of the work is not replayable), so
  // sampling routes every point through simulate_point instead.
  return kernel.frequency_invariant_control_flow() && !sampling_;
}

std::string SweepExecutor::point_key(const Sweep& s, const Point& p) const {
  std::string key = RunCache::key(*s.kernel, s.cluster, power_, p.nodes,
                                  p.frequency_mhz, p.comm_dvfs_mhz);
  if (sampling_)
    key += RunCache::sampled_key_suffix(sample_period_, warmup_iters_);
  return key;
}

RunRecord SweepExecutor::simulate_point(const Sweep& s, const Point& p,
                                        const ObsCtx* ctx,
                                        const std::string& key) {
  if (!sampling_) return simulate_failsoft(s, p, ctx);
  const npb::Kernel& kernel = *s.kernel;
  if (kernel.iteration_count(p.nodes) <= 0)
    throw std::invalid_argument(util::strf(
        "--sampling: kernel %s has no iteration hooks to sample",
        kernel.name().c_str()));
  RunRecord rec = simulate_failsoft(s, p, ctx, nullptr,
                                    SamplingPlan{sample_period_, warmup_iters_});
  if (!rec.failed()) maybe_verify_sampling(s, p, key, rec);
  return rec;
}

void SweepExecutor::maybe_verify_sampling(const Sweep& s, const Point& p,
                                          const std::string& key,
                                          const RunRecord& rec) {
  if (verify_sampling_ <= 0.0 || !rec.sampled) return;
  const npb::Kernel& kernel = *s.kernel;
  const std::string k = key.empty() ? point_key(s, p) : key;
  // Deterministic subset: the key hash is a pure function of the point
  // identity, so the same points verify at any --jobs and across
  // resumes.
  const auto mod =
      static_cast<std::uint64_t>(std::llround(1.0 / verify_sampling_));
  if (mod > 1 && util::fnv1a(k) % mod != 0) return;
  const RunRecord exact = simulate_failsoft(s, p, nullptr);
  if (exact.failed()) {
    util::log_warn(util::strf(
        "--verify-sampling: exact re-run of %s N=%d f=%.0fMHz failed (%s); "
        "skipping the interval check for this point",
        kernel.name().c_str(), p.nodes, p.frequency_mhz,
        run_status_name(exact.status)));
    return;
  }
  // The epsilon absorbs float accumulation-order noise when the CI is
  // legitimately zero (steady-state kernels sample identical deltas).
  const double tol = rec.ci_seconds + 1e-9 * exact.seconds;
  if (std::fabs(exact.seconds - rec.seconds) > tol)
    throw std::runtime_error(util::strf(
        "--verify-sampling: exact makespan %.17g s falls outside the "
        "sampled estimate %.17g s +/- %.17g s at %s N=%d f=%.0fMHz "
        "(sampled %d/%d iterations)",
        exact.seconds, rec.seconds, rec.ci_seconds, kernel.name().c_str(),
        p.nodes, p.frequency_mhz, rec.sampled_iters, rec.total_iters));
  static obs::Counter& verified = obs::registry().counter(
      "sampling.points_verified", obs::Stability::kStable);
  verified.add();
  util::log_info(util::strf(
      "%s N=%d f=%.0fMHz: sampled estimate %.4fs +/- %.4fs covers the "
      "exact makespan %.4fs (verified)",
      kernel.name().c_str(), p.nodes, p.frequency_mhz, rec.seconds,
      rec.ci_seconds, exact.seconds));
}

void SweepExecutor::note_repriced_lanes(std::size_t lanes, std::size_t ops) {
  namespace o = pas::obs;
  // Lane totals are a function of the grid and cache contents alone,
  // never of scheduling, so the rows are stable at any --jobs. Ticked
  // with or without an observer (counters are process-global and cost
  // one relaxed add): the full_report summary derives lanes-per-column
  // from them even when nothing is exported.
  static o::Counter& batch_lanes =
      o::registry().counter("repricer.batch_lanes", o::Stability::kStable);
  static o::Counter& ops_replayed =
      o::registry().counter("repricer.ops_replayed", o::Stability::kStable);
  batch_lanes.add(static_cast<std::uint64_t>(lanes));
  ops_replayed.add(static_cast<std::uint64_t>(ops));
}

void SweepExecutor::note_ledger_resolved(const sim::WorkLedger& ledger) {
  namespace o = pas::obs;
  static o::Counter& ledger_bytes =
      o::registry().counter("repricer.ledger_bytes", o::Stability::kStable);
  static o::Counter& columns =
      o::registry().counter("repricer.columns", o::Stability::kStable);
  ledger_bytes.add(static_cast<std::uint64_t>(ledger.arena_bytes()));
  columns.add();
}

std::optional<RunRecord> SweepExecutor::run_point(const Sweep& s,
                                                  const Point& p,
                                                  const ObsCtx* ctx,
                                                  const MissFn& miss) {
  const double wall_t0 = wall_seconds();
  const npb::Kernel& kernel = *s.kernel;
  std::string key;
  if (use_cache_ || journal_ != nullptr) key = point_key(s, p);
  // Journaled resume: an already-completed point (successful or
  // fail-soft) is served from the journal — unless this point is being
  // traced, in which case it re-simulates (deterministically, so every
  // artifact stays byte-identical) to regenerate its trace events.
  const bool tracing_point =
      observer_ && observer_->tracing() && ctx != nullptr;
  if (journal_ && !tracing_point) {
    if (std::optional<RunRecord> done = journal_->find(key)) {
      note_point(kernel, p, ctx, *done, false, false, true,
                 wall_seconds() - wall_t0);
      return done;
    }
  }
  std::optional<RunRecord> rec =
      use_cache_ ? cache_.lookup(key) : std::nullopt;
  const bool from_cache = rec.has_value();
  if (!from_cache) {
    rec = miss ? miss(key) : simulate_point(s, p, ctx, key);
    if (!rec) return std::nullopt;
  }
  commit_point(kernel, p, ctx, key, *rec, from_cache, false,
               wall_seconds() - wall_t0);
  return rec;
}

void SweepExecutor::commit_point(const npb::Kernel& kernel, const Point& p,
                                 const ObsCtx* ctx, const std::string& key,
                                 const RunRecord& rec, bool from_cache,
                                 bool repriced, double elapsed_s) {
  // Failed records are never cached: a later sweep with more retries
  // (or a fixed kernel) must get a fresh chance at the point.
  if (use_cache_ && !from_cache && !rec.failed()) cache_.store(key, rec);
  // Journal every resolution — cache hits included, so resume works
  // with or without a cache, and failures included, because a fault
  // abort is a deterministic outcome a resume must not re-roll.
  if (journal_) journal_->append(key, rec);
  note_point(kernel, p, ctx, rec, from_cache, repriced, false, elapsed_s);
}

void SweepExecutor::note_point(const npb::Kernel& kernel, const Point& p,
                               const ObsCtx* ctx, const RunRecord& rec,
                               bool from_cache, bool repriced, bool resumed,
                               double elapsed_s) {
  static obs::Histogram& point_wall =
      obs::registry().histogram("sweep.point_wall_seconds");
  point_wall.observe(elapsed_s);

  // Which points resume is fixed by the journal's contents at launch —
  // a pure function of the inputs, like the cache counters — so this is
  // stable at any --jobs. It ticks even in observer-less runs: resume
  // behaviour must stay visible to library embedders and tests.
  static obs::Counter& resumed_points = obs::registry().counter(
      "sweep.points_resumed", obs::Stability::kStable);
  if (resumed) resumed_points.add();

  if (ctx != nullptr && observer_) {
    // Stable counters derive from the canonical records only: integer
    // sums are order-independent, so these are identical at any --jobs.
    namespace o = pas::obs;
    static o::Counter& points =
        o::registry().counter("sweep.points", o::Stability::kStable);
    static o::Counter& cached_points =
        o::registry().counter("sweep.points_cached", o::Stability::kStable);
    static o::Counter& failed_points =
        o::registry().counter("sweep.points_failed", o::Stability::kStable);
    static o::Counter& run_retries =
        o::registry().counter("sweep.run_retries", o::Stability::kStable);
    static o::Counter& send_retries =
        o::registry().counter("sweep.send_retries", o::Stability::kStable);
    // Which points re-price (first-in-column simulates, the rest
    // replay) is a function of the grid and the cache contents alone,
    // never of scheduling — so the counter is stable at any --jobs.
    static o::Counter& repriced_points =
        o::registry().counter("sweep.points_repriced", o::Stability::kStable);
    points.add();
    if (from_cache) cached_points.add();
    if (repriced) repriced_points.add();
    if (rec.failed()) failed_points.add();
    if (rec.sampled) {
      // Registered lazily — the rows only exist once a sampled record
      // flows, so exact sweeps' metrics.csv is byte-identical to
      // pre-sampling builds. The CI gauge is an order-independent max,
      // stable at any --jobs like the counters.
      static o::Counter& sampled_points = o::registry().counter(
          "sweep.points_sampled", o::Stability::kStable);
      sampled_points.add();
      static o::Gauge& ci_max = o::registry().gauge(
          "sampling.ci_halfwidth_max", o::Stability::kStable);
      static std::mutex ci_mutex;
      const std::lock_guard<std::mutex> ci_lock(ci_mutex);
      if (rec.ci_seconds > ci_max.value()) ci_max.set(rec.ci_seconds);
    }
    run_retries.add(static_cast<std::uint64_t>(rec.attempts - 1));
    send_retries.add(static_cast<std::uint64_t>(rec.send_retries));
    observer_->record_point(
        ctx->sweep, ctx->index,
        make_report_point(kernel.name(), p.comm_dvfs_mhz, rec, from_cache));
  }
}

void SweepExecutor::run_column(Sweep& s,
                               const std::vector<std::size_t>& members,
                               LedgerGroup& group) {
  // The group's charged-work ledger, resolved at its first miss: loaded
  // from the ledger cache (consulted once — a miss is definitive this
  // sweep) or recorded by simulating that miss in full. Faults never
  // change the op stream, so whichever column of the group records it,
  // every column prices from it. A declined recording (timing-dependent
  // construct observed) sends the rest of the group to full simulation,
  // without re-recording; a miss whose every attempt aborted on a fault
  // leaves the recording to the next miss.
  const npb::Kernel& kernel = *s.kernel;

  // Pass 1, in grid order: every point runs the per-point pipeline;
  // once the ledger is resolved, each further miss is deferred into
  // one batched replay.
  struct Pending {
    std::size_t index;
    std::string key;
  };
  std::vector<Pending> todo;
  for (const std::size_t i : members) {
    const Point& p = s.points[i];
    const ObsCtx* ctx = s.ctx(i);
    const auto miss =
        [&](const std::string& key) -> std::optional<RunRecord> {
      if (group.declined) return simulate_point(s, p, ctx, key);
      if (!group.ledger && use_cache_ && !group.ledger_checked) {
        group.ledger_checked = true;
        group.ledger = cache_.lookup_ledger(group.key);
        if (group.ledger) note_ledger_resolved(*group.ledger);
      }
      if (group.ledger) {
        todo.push_back(Pending{i, key});
        return std::nullopt;
      }
      sim::WorkLedger fresh;
      RunRecord rec = simulate_failsoft(s, p, ctx, &fresh);
      if (rec.failed()) return rec;
      if (!fresh.replayable) {
        group.declined = true;
        if (!fresh.decline_reason.empty())
          util::log_info(util::strf(
              "%s N=%d: charged-work recording declined (%s); the column "
              "simulates in full",
              kernel.name().c_str(), p.nodes, fresh.decline_reason.c_str()));
        return rec;
      }
      group.ledger =
          use_cache_ ? cache_.store_ledger(group.key, std::move(fresh))
                     : std::make_shared<const sim::WorkLedger>(
                           std::move(fresh));
      if (group.ledger) note_ledger_resolved(*group.ledger);
      return rec;
    };
    if (std::optional<RunRecord> rec = run_point(s, p, ctx, miss))
      s.records[i] = std::move(*rec);
  }
  if (todo.empty()) return;

  // Pass 2: one BatchRepricer call prices every deferred frequency
  // simultaneously (DESIGN.md §11), under this sweep's fault config.
  const double batch_t0 = wall_seconds();
  const bool tracing = observer_ && observer_->tracing() && !s.ctxs.empty();
  std::vector<double> freqs;
  freqs.reserve(todo.size());
  for (const Pending& t : todo)
    freqs.push_back(s.points[t.index].frequency_mhz);
  std::vector<std::unique_ptr<sim::Tracer>> sinks;
  std::vector<sim::Tracer*> tracer_ptrs;
  if (tracing) {
    sinks.reserve(todo.size());
    for (std::size_t j = 0; j < todo.size(); ++j) {
      sinks.push_back(std::make_unique<sim::Tracer>());
      sinks.back()->enable();
      tracer_ptrs.push_back(sinks.back().get());
    }
  }
  const sim::WorkLedger& ledger = *group.ledger;
  const BatchRepricer repricer(s.cluster, power_);
  std::vector<RunRecord> repriced =
      repricer.reprice(ledger, freqs, tracer_ptrs);
  note_repriced_lanes(todo.size(), ledger.total_ops() * todo.size());
  // The batch call's wall cost is shared; attribute an equal share to
  // each lane's histogram sample.
  const double batch_share =
      (wall_seconds() - batch_t0) / static_cast<double>(todo.size());

  // Pass 3, in grid order: per-point trace harvest, verification and
  // log line, then the pipeline's tail.
  for (std::size_t j = 0; j < todo.size(); ++j) {
    const std::size_t i = todo[j].index;
    const Point& p = s.points[i];
    const ObsCtx* ctx = s.ctx(i);
    const double point_t0 = wall_seconds();
    RunRecord& rec = repriced[j];
    if (rec.failed()) {
      // The lane's first attempt would abort on an injected fault (a
      // node that dies before this frequency finishes): simulate it in
      // full, retries and trace included, like any point off the fast
      // path. Its partial replay events are dropped with the sink.
      rec = simulate_point(s, p, ctx, todo[j].key);
      commit_point(kernel, p, ctx, todo[j].key, rec, false, false,
                   batch_share + (wall_seconds() - point_t0));
      s.records[i] = std::move(rec);
      continue;
    }
    if (tracing && ctx != nullptr) {
      obs::RunTrace trace;
      trace.nranks = p.nodes;
      trace.frequency_mhz = p.frequency_mhz;
      trace.op = s.cluster.operating_points.at_mhz(p.frequency_mhz);
      trace.makespan_s = rec.seconds;
      trace.events = sinks[j]->events();
      trace.wall_s = observer_->wall_now_s();
      observer_->record_run_trace(ctx->sweep, ctx->index, std::move(trace));
    }
    if (verify_replay_) {
      const RunRecord fresh = simulate_failsoft(s, p, nullptr);
      const std::string repriced_bytes = RunCache::encode_record(rec);
      const std::string simulated_bytes = RunCache::encode_record(fresh);
      if (repriced_bytes != simulated_bytes)
        throw std::runtime_error(util::strf(
            "--verify-replay: repriced record differs from full simulation "
            "at %s N=%d f=%.0fMHz\n--- repriced ---\n%s--- simulated ---\n%s",
            kernel.name().c_str(), p.nodes, p.frequency_mhz,
            repriced_bytes.c_str(), simulated_bytes.c_str()));
      static obs::Counter& verified_points =
          obs::registry().counter("sweep.points_verified");
      verified_points.add();
    }
    util::log_info(util::strf(
        "%s N=%d f=%.0fMHz: T=%.4fs, overhead=%.4fs, E=%.1fJ, verified=%d "
        "(repriced)",
        kernel.name().c_str(), p.nodes, p.frequency_mhz, rec.seconds,
        rec.mean_overhead_s, rec.energy.total_j(), rec.verified ? 1 : 0));
    commit_point(kernel, p, ctx, todo[j].key, rec, false, true,
                 batch_share + (wall_seconds() - point_t0));
    s.records[i] = std::move(rec);
  }
}

RunRecord SweepExecutor::run_one(const npb::Kernel& kernel, int nodes,
                                 double frequency_mhz, double comm_dvfs_mhz) {
  Sweep s;
  s.kernel = &kernel;
  s.cluster = cluster_;
  return *run_point(s, Point{nodes, frequency_mhz, comm_dvfs_mhz}, nullptr);
}

void SweepExecutor::run_isolated(std::vector<Sweep>& sweeps) {
  namespace o = pas::obs;
  // Supervisor traffic is wall-clock-dependent (which worker dies,
  // which retry lands) — volatile diagnostics only.
  static o::Counter& isolated_columns =
      o::registry().counter("sweep.isolated_columns");
  static o::Counter& worker_crashes =
      o::registry().counter("sweep.worker_crashes");
  static o::Counter& worker_timeouts =
      o::registry().counter("sweep.worker_timeouts");
  static o::Counter& worker_retries =
      o::registry().counter("sweep.worker_retries");

  // The unresolved points of every sweep, by column: a worker prices its
  // column with one ledger however many frequencies it carries. Points
  // the journal already holds (a --resume of a killed isolated sweep)
  // never reach a worker. Tracing is off by contract (the ctor rejects
  // --isolate + tracing), so the skip is safe.
  struct Job : ColumnSupervisor::Column {
    Sweep* sweep = nullptr;
    std::vector<std::size_t> members;
    std::vector<char> settled;  ///< per member
  };
  std::vector<std::shared_ptr<Job>> queue;
  for (std::size_t si = 0; si < sweeps.size(); ++si) {
    Sweep& s = sweeps[si];
    std::vector<std::string> keys(s.points.size());
    std::vector<char> resolved(s.points.size(), 0);
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      keys[i] = point_key(s, s.points[i]);
      if (std::optional<RunRecord> done = journal_->find(keys[i])) {
        s.records[i] = std::move(*done);
        resolved[i] = 1;
        note_point(*s.kernel, s.points[i], s.ctx(i), s.records[i], false,
                   false, true, 0.0);
      }
    }
    for (std::vector<std::size_t>& members :
         group_columns(s.points, resolved)) {
      auto job = std::make_shared<Job>();
      for (const std::size_t i : members) {
        job->points.push_back(s.points[i]);
        job->keys.push_back(std::move(keys[i]));
      }
      job->label = util::strf("%s N=%d", s.kernel->name().c_str(),
                              s.points[members.front()].nodes);
      job->context = std::to_string(si);
      job->sweep = &s;
      job->settled.assign(members.size(), 0);
      job->members = std::move(members);
      queue.push_back(std::move(job));
    }
  }
  if (queue.empty()) return;

  // Records what the journal now holds of `job`; given up, the rest
  // become fail-soft records. Deliberately NOT journaled: a crash is an
  // environmental accident, and a --resume should retry the point.
  const auto settle = [&](Job& job, const ColumnSupervisor::Exit* exit) {
    const bool gave_up =
        exit != nullptr && exit->outcome == ColumnSupervisor::Outcome::kGaveUp;
    Sweep& s = *job.sweep;
    for (std::size_t m = 0; m < job.members.size(); ++m) {
      if (job.settled[m]) continue;
      const std::size_t i = job.members[m];
      if (std::optional<RunRecord> done = journal_->find(job.keys[m])) {
        s.records[i] = std::move(*done);
      } else if (gave_up) {
        RunRecord rec;
        rec.nodes = s.points[i].nodes;
        rec.frequency_mhz = s.points[i].frequency_mhz;
        rec.status = exit->result.timed_out ? RunStatus::kTimeout
                                            : RunStatus::kCrashed;
        rec.error = "isolated worker " + exit->result.describe();
        rec.attempts = job.attempts;
        s.records[i] = std::move(rec);
      } else {
        continue;
      }
      job.settled[m] = 1;
      note_point(*s.kernel, s.points[i], s.ctx(i), s.records[i], false,
                 false, false, exit ? exit->elapsed_s : 0.0);
    }
  };

  // A worker builds a FRESH executor (fresh rank pool, fresh RunMatrix)
  // from this one's spec under its sweep's fault config, and runs the
  // caller's kernel object on the shared journal. It finds both in its
  // copy of this frame: the supervisor forks its zygote here, on the
  // calling thread, while the executor's pool is idle.
  const std::string journal_path = journal_->path();
  ColumnSupervisor supervisor(
      *journal_, {"isolate", isolate_timeout_s_, isolate_retries_},
      {worker_crashes, worker_timeouts, worker_retries},
      [&](const std::string& context, const std::vector<Point>& pending) {
        const Sweep& s = sweeps[std::stoul(context)];
        SweepSpec spec = spec_;
        spec.fault = s.cluster.fault;
        spec.options.jobs = 1;
        spec.options.isolate = false;
        spec.options.journal_path.clear();
        spec.observer = nullptr;
        SweepExecutor child(std::move(spec));
        child.attach_journal(journal_path);
        child.run_points(*s.kernel, pending);
      });
  const std::size_t window =
      static_cast<std::size_t>(std::max(1, pool_.max_threads()));
  for (;;) {
    double gate = -1.0;  // the nearest backoff gate, while a slot is free
    for (auto it = queue.begin();
         it != queue.end() && supervisor.live() < window;) {
      const std::shared_ptr<Job> job = *it;
      if (job->not_before > ColumnSupervisor::now()) {
        if (gate < 0.0 || job->not_before < gate) gate = job->not_before;
        ++it;
        continue;
      }
      it = queue.erase(it);
      if (supervisor.launch(job))
        isolated_columns.add();
      else
        settle(*job, nullptr);
    }
    if (queue.empty() && supervisor.live() == 0) break;
    supervisor.wait(gate);
    for (const ColumnSupervisor::Exit& e : supervisor.reap()) {
      const auto job = std::static_pointer_cast<Job>(e.column);
      settle(*job, &e);
      if (e.outcome == ColumnSupervisor::Outcome::kRetry) queue.push_back(job);
    }
  }
}

void SweepExecutor::run_sweeps(std::vector<Sweep>& sweeps) {
  for (Sweep& s : sweeps) {
    s.records.resize(s.points.size());
    if (!observer_) continue;
    std::vector<obs::GridPoint> grid;
    grid.reserve(s.points.size());
    for (const Point& p : s.points)
      grid.push_back(obs::GridPoint{p.nodes, p.frequency_mhz,
                                    p.comm_dvfs_mhz});
    const int id = observer_->begin_sweep(s.kernel->name(), std::move(grid));
    s.ctxs.resize(s.points.size());
    for (std::size_t i = 0; i < s.points.size(); ++i)
      s.ctxs[i] = ObsCtx{id, static_cast<int>(i)};
  }
  if (isolate_) {
    run_isolated(sweeps);
    return;
  }

  // One task list for the whole batch, in request order. Frequency
  // collapse makes each fast-path column sequential — its first
  // cache-missing frequency simulates and records the ledger, every
  // later frequency re-prices from it — and the columns that share a
  // ledger key (one column under each request's fault config) run as
  // one task at the first one's place, so one recording prices them
  // all. Parallelism runs over ledger groups there and over points
  // elsewhere. Record values are unchanged: replay is bit-identical to
  // full simulation (BatchRepricer contract).
  std::vector<std::function<void()>> tasks;
  std::deque<LedgerGroup> groups;  // stable addresses for the tasks
  std::unordered_map<std::string, LedgerGroup*> group_of;
  for (Sweep& s : sweeps) {
    if (fast_path_eligible(*s.kernel)) {
      for (std::vector<std::size_t>& members : group_columns(s.points)) {
        const Point& head = s.points[members.front()];
        std::string key = RunCache::ledger_key(*s.kernel, s.cluster,
                                               head.nodes, head.comm_dvfs_mhz);
        LedgerGroup*& group = group_of[key];
        if (group == nullptr) {
          group = &groups.emplace_back();
          group->key = std::move(key);
          tasks.push_back([this, group] {
            for (auto& [sweep, column] : group->columns)
              run_column(*sweep, column, *group);
            group->ledger.reset();
          });
        }
        group->columns.emplace_back(&s, std::move(members));
      }
    } else {
      for (std::size_t i = 0; i < s.points.size(); ++i)
        tasks.push_back([this, &s, i] {
          s.records[i] = *run_point(s, s.points[i], s.ctx(i));
        });
    }
  }
  if (tasks.size() <= 1 || pool_.max_threads() == 1) {
    for (const std::function<void()>& task : tasks) task();
    return;
  }
  std::vector<std::future<void>> done;
  done.reserve(tasks.size());
  for (std::function<void()>& task : tasks)
    done.push_back(pool_.submit(std::move(task)));
  // Drain every future before rethrowing so no task still references
  // the sweeps.
  std::exception_ptr first;
  for (std::future<void>& f : done) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

std::vector<RunRecord> SweepExecutor::run_points(
    const npb::Kernel& kernel, const std::vector<Point>& points) {
  std::vector<Sweep> batch(1);
  batch[0].kernel = &kernel;
  batch[0].cluster = cluster_;
  batch[0].points = points;
  run_sweeps(batch);
  return std::move(batch[0].records);
}

std::vector<MatrixResult> SweepExecutor::run_all(
    const std::vector<SweepRequest>& requests) {
  std::vector<Sweep> batch(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const SweepRequest& request = requests[r];
    if (request.kernel == nullptr)
      throw std::invalid_argument("SweepRequest.kernel must be set");
    batch[r].kernel = request.kernel;
    batch[r].cluster = cluster_;
    if (request.fault) batch[r].cluster.fault = *request.fault;
    batch[r].points.reserve(request.node_counts.size() *
                            request.freqs_mhz.size());
    for (int n : request.node_counts) {
      for (double f : request.freqs_mhz)
        batch[r].points.push_back(Point{n, f, request.comm_dvfs_mhz});
    }
  }
  run_sweeps(batch);

  std::vector<MatrixResult> results(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    MatrixResult& result = results[r];
    for (RunRecord& rec : batch[r].records) result.add(std::move(rec));
    if (const auto failed = result.failed_points(); !failed.empty()) {
      std::string detail;
      for (const RunRecord* rec : failed)
        detail += util::strf(" [N=%d f=%.0f: %s]", rec->nodes,
                             rec->frequency_mhz, run_status_name(rec->status));
      util::log_warn(util::strf(
          "%s: %zu/%zu sweep points failed under fault injection;%s "
          "excluded from the timing matrix",
          batch[r].kernel->name().c_str(), failed.size(),
          result.records.size(), detail.c_str()));
    }
  }
  return results;
}

MatrixResult SweepExecutor::run(const SweepRequest& request) {
  return std::move(run_all({request}).front());
}

MatrixResult SweepExecutor::run() {
  const std::unique_ptr<npb::Kernel> kernel = make_spec_kernel(spec_);
  return run(SweepRequest{kernel.get(), spec_.resolved_nodes(),
                          spec_.resolved_freqs(), spec_.comm_dvfs_mhz});
}

}  // namespace pas::analysis
