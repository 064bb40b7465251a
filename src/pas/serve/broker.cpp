#include "pas/serve/broker.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "pas/analysis/experiment.hpp"
#include "pas/power/power_model.hpp"
#include "pas/util/format.hpp"
#include "pas/util/json.hpp"

namespace pas::serve {
namespace {

/// mkdir -p: the journal is published into the cache directory before
/// the cache's own first store would create it.
void make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/')
      ::mkdir(path.substr(0, i).c_str(), 0777);
  }
}

BrokerOptions validate_options(BrokerOptions opts) {
  if (opts.cache_dir.empty())
    throw std::invalid_argument("serve: BrokerOptions.cache_dir is required");
  if (opts.workers < 1)
    throw std::invalid_argument("serve: BrokerOptions.workers must be >= 1");
  if (opts.worker_timeout_s <= 0.0)
    throw std::invalid_argument(
        "serve: BrokerOptions.worker_timeout_s must be > 0");
  if (opts.worker_retries < 0)
    throw std::invalid_argument(
        "serve: BrokerOptions.worker_retries must be >= 0");
  if (opts.journal_path.empty())
    opts.journal_path = opts.cache_dir + "/serve.journal";
  make_dirs(opts.cache_dir);
  return opts;
}

/// The document a column worker runs `src`'s columns under: its
/// document half with this broker's execution policy overlaid.
std::string column_document(const analysis::SweepSpec& src,
                            const BrokerOptions& opts) {
  analysis::SweepSpec dst;
  dst.kernel = src.kernel;
  dst.scale = src.scale;
  dst.comm_dvfs_mhz = src.comm_dvfs_mhz;
  dst.iterations = src.iterations;
  dst.fault = src.fault;
  dst.options.jobs = 1;
  dst.options.cache_dir = opts.cache_dir;
  dst.options.cache_cap_bytes = opts.cache_cap_bytes;
  dst.options.run_retries = src.options.run_retries;
  dst.options.sampling = src.options.sampling;
  dst.options.sample_period = src.options.sample_period;
  dst.options.warmup_iters = src.options.warmup_iters;
  dst.options.verify_sampling = src.options.verify_sampling;
  return dst.to_json().dump();
}

/// A column worker's body: a fresh executor over the column's document,
/// attached to the shared journal, runs the members still to do. It
/// holds copies: a worker never touches the broker's objects.
analysis::ColumnSupervisor::Body worker_body(std::string journal_path) {
  return [journal_path = std::move(journal_path)](
             const std::string& document,
             const std::vector<analysis::SweepExecutor::Point>& pending) {
    analysis::SweepExecutor exec(analysis::SweepSpec::parse(document));
    exec.attach_journal(journal_path);
    const std::unique_ptr<npb::Kernel> kernel =
        analysis::make_spec_kernel(exec.spec());
    exec.run_points(*kernel, pending);
  };
}

}  // namespace

Broker::Broker(BrokerOptions opts)
    : opts_(validate_options(std::move(opts))),
      cache_(opts_.cache_dir, opts_.cache_cap_bytes),
      // resume=true: a restarted server warm-starts from everything the
      // previous incarnation journaled.
      journal_(opts_.journal_path, /*resume=*/true),
      sweeps_(obs::registry().counter("serve.sweeps")),
      sweep_points_(obs::registry().counter("serve.sweep_points")),
      cache_hits_(obs::registry().counter("serve.cache_hits")),
      dedup_hits_(obs::registry().counter("serve.dedup_hits")),
      columns_(obs::registry().counter("serve.columns")),
      queue_depth_(obs::registry().gauge("serve.queue_depth")),
      workers_running_(obs::registry().gauge("serve.workers_running")),
      worker_restarts_(obs::registry().counter("serve.worker_restarts")),
      worker_crashes_(obs::registry().counter("serve.worker_crashes")),
      worker_timeouts_(obs::registry().counter("serve.worker_timeouts")),
      supervisor_(journal_,
                  {"serve", opts_.worker_timeout_s, opts_.worker_retries},
                  {worker_crashes_, worker_timeouts_, worker_restarts_},
                  worker_body(opts_.journal_path)),
      scheduler_([this] { scheduler_main(); }) {}

Broker::~Broker() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify();
  scheduler_.join();
}

void Broker::set_hold(bool hold) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hold_ = hold;
  }
  wake_.notify();
}

Broker::SweepResult Broker::run(const analysis::SweepSpec& spec) {
  spec.validate();
  const std::unique_ptr<npb::Kernel> kernel = analysis::make_spec_kernel(spec);
  // A worker's executor sees only the document, so the keys come from
  // it too: the scale's cluster under the document's faults and the
  // default power model, as in an offline run of this document.
  sim::ClusterConfig cluster = spec.resolved_cluster();
  if (spec.fault) cluster.fault = *spec.fault;
  const power::PowerModel power;
  std::vector<analysis::SweepExecutor::Point> points;
  for (const int n : spec.resolved_nodes())
    for (const double f : spec.resolved_freqs())
      points.push_back(analysis::SweepExecutor::Point{n, f, spec.comm_dvfs_mhz});
  // Sampled specs key apart from exact ones (the same suffix
  // SweepExecutor::point_key applies), so a sampled submission can
  // never be answered with an exact record or vice versa.
  const std::string sampled_suffix =
      spec.options.sampling
          ? analysis::RunCache::sampled_key_suffix(spec.options.sample_period,
                                                   spec.options.warmup_iters)
          : std::string();
  std::vector<std::string> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    keys[i] = analysis::RunCache::key(*kernel, cluster, power,
                                      points[i].nodes, points[i].frequency_mhz,
                                      points[i].comm_dvfs_mhz) +
              sampled_suffix;

  sweeps_.add();
  sweep_points_.add(points.size());

  SweepResult out;
  out.records.resize(points.size());
  out.from_cache.assign(points.size(), 0);
  std::vector<char> resolved(points.size(), 0);

  // Answer from the service's memory first: the journal (this server's
  // and its workers' completed points, including deterministic
  // failures) and the shared run cache (everything any offline sweep
  // over the same directory ever stored).
  journal_.refresh();
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::optional<analysis::RunRecord> hit = journal_.find(keys[i]);
    if (!hit) hit = cache_.lookup(keys[i]);
    if (hit) {
      out.records[i] = std::move(*hit);
      out.from_cache[i] = 1;
      resolved[i] = 1;
      ++out.cache_hits;
    }
  }
  cache_hits_.add(out.cache_hits);

  // Group unresolved points into (N, comm-DVFS) columns. comm-DVFS is
  // spec-wide, so node count alone identifies a column here; ordered so
  // column identity is deterministic in member order.
  std::map<int, std::vector<std::size_t>> members_of;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!resolved[i]) members_of[points[i].nodes].push_back(i);

  const std::string document =
      members_of.empty() ? std::string() : column_document(spec, opts_);
  std::vector<std::shared_ptr<Column>> waits;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw std::runtime_error("serve: broker is shutting down");
    for (const auto& [nodes, members] : members_of) {
      // Content-hash identity: the member cache keys already spell out
      // kernel, cluster, power model and operating points; the retry
      // budget joins them because it changes record bytes (attempts).
      std::string id;
      for (const std::size_t i : members) {
        id += keys[i];
        id += '\n';
      }
      id += util::strf("retries=%d", spec.options.run_retries);
      const auto it = in_flight_.find(id);
      if (it != in_flight_.end()) {
        ++out.dedup_hits;
        dedup_hits_.add();
        waits.push_back(it->second);
        continue;
      }
      auto col = std::make_shared<Column>();
      col->id = id;
      col->label = util::strf("%s N=%d", spec.kernel.c_str(), nodes);
      col->context = document;
      for (const std::size_t i : members) {
        col->points.push_back(points[i]);
        col->keys.push_back(keys[i]);
      }
      columns_.add();
      queue_.push_back(col);
      in_flight_.emplace(col->id, col);
      queue_depth_.set(static_cast<double>(queue_.size()));
      waits.push_back(std::move(col));
    }
  }
  wake_.notify();

  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Column>& col : waits)
      done_cv_.wait(lock, [&col] { return col->done; });
  }

  // Collect: the journal holds everything a worker completed (another
  // submission's worker counts — that is the dedup paying off);
  // synthesized fail-soft records cover the rest.
  journal_.refresh();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (resolved[i]) continue;
    if (std::optional<analysis::RunRecord> rec = journal_.find(keys[i])) {
      out.records[i] = std::move(*rec);
      continue;
    }
    bool found = false;
    for (const std::shared_ptr<Column>& col : waits) {
      const auto it = col->synthesized.find(keys[i]);
      if (it != col->synthesized.end()) {
        out.records[i] = it->second;
        found = true;
        break;
      }
    }
    if (!found) {
      // A column finished without covering this key — defensive only.
      analysis::RunRecord rec;
      rec.nodes = points[i].nodes;
      rec.frequency_mhz = points[i].frequency_mhz;
      rec.status = analysis::RunStatus::kCrashed;
      rec.error = "serve: worker finished without a result";
      out.records[i] = std::move(rec);
    }
  }
  return out;
}

void Broker::synthesize_failures(Column& col, bool timed_out,
                                 const std::string& detail) {
  for (std::size_t i = 0; i < col.keys.size(); ++i) {
    if (journal_.find(col.keys[i])) continue;
    analysis::RunRecord rec;
    rec.nodes = col.points[i].nodes;
    rec.frequency_mhz = col.points[i].frequency_mhz;
    rec.status = timed_out ? analysis::RunStatus::kTimeout
                           : analysis::RunStatus::kCrashed;
    rec.error = detail;
    rec.attempts = std::max(1, col.attempts);
    // NOT journaled and NOT cached: a crash is an environmental
    // accident — the next submission retries these points for real.
    col.synthesized[col.keys[i]] = std::move(rec);
  }
}

void Broker::finish_column(const std::shared_ptr<Column>& col) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    col->done = true;
    in_flight_.erase(col->id);
  }
  done_cv_.notify_all();
}

void Broker::scheduler_main() {
  const std::size_t window = static_cast<std::size_t>(opts_.workers);
  for (;;) {
    std::shared_ptr<Column> next;
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping = stop_;
      if (!stopping && !hold_ && supervisor_.live() < window) {
        const double now = analysis::ColumnSupervisor::now();
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if ((*it)->not_before <= now) {
            next = *it;
            queue_.erase(it);
            break;
          }
        }
      }
      queue_depth_.set(static_cast<double>(queue_.size()));
    }

    if (stopping) {
      // Fail everything soft so blocked run() calls return: the live
      // workers' columns and the queue.
      std::vector<std::shared_ptr<Column>> drain;
      for (auto& col : supervisor_.kill_all())
        drain.push_back(std::static_pointer_cast<Column>(col));
      {
        std::lock_guard<std::mutex> lock(mutex_);
        drain.insert(drain.end(), queue_.begin(), queue_.end());
        queue_.clear();
      }
      for (const std::shared_ptr<Column>& col : drain) {
        if (!supervisor_.complete(*col))
          synthesize_failures(*col, false, "serve: server shut down");
        finish_column(col);
      }
      workers_running_.set(0.0);
      return;
    }

    // A column whose members were all journaled meanwhile (by another
    // column) reaches no worker: it is done.
    if (next && !supervisor_.launch(next)) finish_column(next);

    const std::vector<analysis::ColumnSupervisor::Exit> exits =
        supervisor_.reap();
    for (const analysis::ColumnSupervisor::Exit& e : exits) {
      const auto col = std::static_pointer_cast<Column>(e.column);
      if (e.outcome == analysis::ColumnSupervisor::Outcome::kRetry) {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(col);
        continue;
      }
      if (e.outcome == analysis::ColumnSupervisor::Outcome::kGaveUp)
        synthesize_failures(*col, e.result.timed_out,
                            "serve worker " + e.result.describe());
      finish_column(col);
    }
    workers_running_.set(static_cast<double>(supervisor_.live()));

    // A launch or a reap may have made more work ready at once.
    if (next || !exits.empty()) continue;
    // Otherwise sleep until a worker reports, the doorbell rings (a
    // submission, a thaw, stop) or the nearest live deadline or
    // backoff gate is due.
    double wake_at = -1.0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!hold_ && supervisor_.live() < window)
        for (const std::shared_ptr<Column>& col : queue_)
          if (wake_at < 0.0 || col->not_before < wake_at)
            wake_at = col->not_before;
    }
    supervisor_.wait(wake_at, &wake_);
  }
}

}  // namespace pas::serve
