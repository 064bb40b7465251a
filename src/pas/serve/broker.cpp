#include "pas/serve/broker.hpp"

#include <sys/stat.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pas/analysis/experiment.hpp"
#include "pas/serve/artifact_store.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/util/format.hpp"
#include "pas/util/log.hpp"

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

/// Everything run() and submit_stolen() both derive from a spec: the
/// resolved grid, the per-point cache keys, and per-node-count shard
/// bases. Shared so a stolen column recomputes byte-identical keys on
/// the thief.
struct GridPlan {
  sim::ClusterConfig cluster;
  std::vector<analysis::SweepExecutor::Point> points;
  std::vector<std::string> keys;
  /// nodes -> rendezvous shard basis (the frequency-independent
  /// ledger key — stable however the grid is sliced, so every broker
  /// assigns a column the same owner no matter which subset of its
  /// members is still unresolved).
  std::map<int, std::string> basis_of;
  /// Eligible for the fabric: no process-local cluster override and
  /// the default power model, so a peer rebuilding the spec from its
  /// document half computes the same cache keys.
  bool portable = false;
};

GridPlan plan_grid(const analysis::SweepSpec& spec) {
  GridPlan plan;
  const std::unique_ptr<npb::Kernel> kernel = analysis::make_spec_kernel(spec);
  plan.cluster = spec.cluster ? *spec.cluster : spec.resolved_cluster();
  // Same precedence as the SweepExecutor ctor, so the keys computed
  // here are the keys an offline run of this spec stores under.
  if (spec.fault) plan.cluster.fault = *spec.fault;
  for (const int n : spec.resolved_nodes())
    for (const double f : spec.resolved_freqs())
      plan.points.push_back(
          analysis::SweepExecutor::Point{n, f, spec.comm_dvfs_mhz});
  // Sampled specs key apart from exact ones (the same suffix
  // SweepExecutor::point_key applies), so a sampled submission can
  // never be answered with an exact record or vice versa.
  const std::string sampled_suffix =
      spec.options.sampling
          ? analysis::RunCache::sampled_key_suffix(spec.options.sample_period,
                                                   spec.options.warmup_iters)
          : std::string();
  plan.keys.resize(plan.points.size());
  for (std::size_t i = 0; i < plan.points.size(); ++i)
    plan.keys[i] =
        analysis::RunCache::key(*kernel, plan.cluster, spec.power,
                                plan.points[i].nodes,
                                plan.points[i].frequency_mhz,
                                plan.points[i].comm_dvfs_mhz) +
        sampled_suffix;
  for (const int n : spec.resolved_nodes())
    plan.basis_of[n] = analysis::RunCache::ledger_key(*kernel, plan.cluster, n,
                                                      spec.comm_dvfs_mhz) +
                       sampled_suffix;
  plan.portable = !spec.cluster &&
                  analysis::power_signature(spec.power) ==
                      analysis::power_signature(power::PowerModel{});
  return plan;
}

/// The document-only spec a peer rebuilds `col` from: one node count,
/// the column's member frequencies in member order, and exactly the
/// record-shaping options — never this broker's execution policy.
analysis::SweepSpec portable_doc(const analysis::SweepSpec& spec,
                                 const std::vector<analysis::SweepExecutor::Point>& points) {
  analysis::SweepSpec doc;
  doc.kernel = spec.kernel;
  doc.scale = spec.scale;
  doc.comm_dvfs_mhz = spec.comm_dvfs_mhz;
  doc.iterations = spec.iterations;
  doc.fault = spec.fault;
  doc.nodes = {points.front().nodes};
  for (const analysis::SweepExecutor::Point& p : points)
    doc.freqs_mhz.push_back(p.frequency_mhz);
  doc.options.run_retries = spec.options.run_retries;
  doc.options.sampling = spec.options.sampling;
  doc.options.sample_period = spec.options.sample_period;
  doc.options.warmup_iters = spec.options.warmup_iters;
  doc.options.verify_sampling = spec.options.verify_sampling;
  doc.options.checkpoints = spec.options.checkpoints;
  return doc;
}

/// Deterministic failures (fault aborts) are journal/cache material; a
/// crash or timeout is an environmental accident that must never cross
/// hosts into a journal.
bool environmental_failure(const analysis::RunRecord& rec) {
  return rec.status == analysis::RunStatus::kCrashed ||
         rec.status == analysis::RunStatus::kTimeout;
}

/// Copies the document half of `src` into `dst` and overlays this
/// broker's execution policy — a column worker's actual config.
void fill_column_spec(analysis::SweepSpec* dst, const analysis::SweepSpec& src,
                      const BrokerOptions& opts) {
  dst->kernel = src.kernel;
  dst->scale = src.scale;
  dst->comm_dvfs_mhz = src.comm_dvfs_mhz;
  dst->iterations = src.iterations;
  dst->fault = src.fault;
  dst->cluster = src.cluster;
  dst->power = src.power;
  dst->options.jobs = 1;
  dst->options.cache_dir = opts.cache_dir;
  dst->options.cache_cap_bytes = opts.cache_cap_bytes;
  dst->options.run_retries = src.options.run_retries;
  dst->options.sampling = src.options.sampling;
  dst->options.sample_period = src.options.sample_period;
  dst->options.warmup_iters = src.options.warmup_iters;
  dst->options.verify_sampling = src.options.verify_sampling;
  dst->options.checkpoints = src.options.checkpoints;
}

/// A column worker's child body: a fresh executor over the column's
/// spec, attached to the shared journal, runs the members still to do.
/// It holds copies: the child never touches the broker's objects.
analysis::ColumnSupervisor::Body worker_body(analysis::SweepSpec spec,
                                             std::string journal_path) {
  return [spec = std::move(spec), journal_path = std::move(journal_path)](
             const std::vector<analysis::SweepExecutor::Point>& pending) {
    analysis::SweepExecutor exec(spec);
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
      forwarded_columns_(obs::registry().counter("serve.forwarded_columns")),
      steal_columns_(obs::registry().counter("serve.steal_columns")),
      steal_requests_(obs::registry().counter("serve.steal_requests")),
      steal_empty_(obs::registry().counter("serve.steal_empty")),
      steal_given_(obs::registry().counter("serve.steal_given")),
      steal_reclaimed_(obs::registry().counter("serve.steal_reclaimed")),
      supervisor_(journal_,
                  {"serve", opts_.worker_timeout_s, opts_.worker_retries},
                  {worker_crashes_, worker_timeouts_, worker_restarts_}),
      scheduler_([this] { scheduler_main(); }) {}

void Broker::configure_peering(const std::string& self,
                               const std::vector<std::string>& peers) {
  if (peers.empty()) return;
  auto store = std::make_shared<ArtifactStore>(&cache_, self, peers);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    store_ = std::move(store);
  }
  wake_.notify();
}

std::shared_ptr<ArtifactStore> Broker::artifact_store() {
  return store_snapshot();
}

std::shared_ptr<ArtifactStore> Broker::store_snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

double Broker::steal_deadline_s() const {
  if (opts_.steal_timeout_s > 0.0) return opts_.steal_timeout_s;
  // The thief runs the column under its own supervisor policy; give it
  // the full retry budget plus slack before assuming it died.
  return opts_.worker_timeout_s * (opts_.worker_retries + 1) + 10.0;
}

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

Broker::SweepResult Broker::run(const analysis::SweepSpec& spec,
                                bool local_only) {
  spec.validate();
  const GridPlan plan = plan_grid(spec);
  const std::vector<analysis::SweepExecutor::Point>& points = plan.points;
  const std::vector<std::string>& keys = plan.keys;

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

  // Peer fabric: rendezvous-assign each column, and CAS read-through
  // the members of peer-owned columns — the owner may have resolved
  // them for another client, and a verified fetch is a disk read on
  // two hosts instead of a simulation on this one.
  const bool fabric = !local_only && plan.portable;
  const std::shared_ptr<ArtifactStore> store =
      fabric ? store_snapshot() : nullptr;
  std::map<int, int> owner_of_nodes;
  if (store) {
    for (auto& [nodes, members] : members_of) {
      const int owner = store->owner_of(plan.basis_of.at(nodes));
      owner_of_nodes[nodes] = owner;
      if (owner < 0 || !store->peer_alive(owner)) continue;
      for (auto it = members.begin(); it != members.end();) {
        std::optional<analysis::RunRecord> rec =
            store->fetch_record(owner, keys[*it]);
        if (!rec) {
          ++it;
          continue;
        }
        out.records[*it] = std::move(*rec);
        out.from_cache[*it] = 1;
        resolved[*it] = 1;
        ++out.cache_hits;
        cache_hits_.add();
        it = members.erase(it);
      }
    }
    for (auto it = members_of.begin(); it != members_of.end();)
      it = it->second.empty() ? members_of.erase(it) : std::next(it);
  }

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
      col->basis = plan.basis_of.at(nodes);
      col->portable = fabric;
      if (store) {
        const auto o = owner_of_nodes.find(nodes);
        if (o != owner_of_nodes.end()) col->owner = o->second;
      }
      fill_column_spec(&col->spec, spec, opts_);
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
  // A stolen column's results belong to the victim first: push before
  // `done`, so the victim's lent-column pass finds them journaled.
  if (col->stolen_from >= 0) push_back_stolen(col);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    col->done = true;
    if (col->stolen_from < 0) {
      in_flight_.erase(col->id);
    } else if (stolen_live_ > 0) {
      --stolen_live_;
    }
  }
  done_cv_.notify_all();
}

std::optional<std::string> Broker::cas_lookup(const std::string& kind,
                                              const std::string& key) {
  if (kind == "record") {
    journal_.refresh();
    if (std::optional<analysis::RunRecord> rec = journal_.find(key))
      return cas_encode_record(*rec);
    if (std::optional<analysis::RunRecord> rec = cache_.lookup(key))
      return cas_encode_record(*rec);
    return std::nullopt;
  }
  if (kind == "ledger") {
    if (std::shared_ptr<const sim::WorkLedger> ledger =
            cache_.lookup_ledger(key))
      return analysis::RunCache::encode_ledger(*ledger);
    return std::nullopt;
  }
  return std::nullopt;
}

bool Broker::cas_import(const std::string& key, const std::string& payload) {
  analysis::RunRecord rec;
  if (!cas_decode_record(payload, &rec)) return false;
  if (environmental_failure(rec)) return false;
  journal_.append(key, rec);
  cache_.store(key, rec);
  // A lent column may just have become complete; the scheduler's
  // lent-column pass decides.
  wake_.notify();
  return true;
}

std::optional<util::Json> Broker::give_column() {
  steal_requests_.add();
  std::shared_ptr<Column> col;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stop_) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        // Only portable self-owned local columns travel: remote-owned
        // ones are being forwarded anyway, and a stolen column never
        // hops twice (no fabric cycles).
        if ((*it)->portable && (*it)->owner < 0 && (*it)->stolen_from < 0) {
          col = *it;
          queue_.erase(it);
          lent_.push_back(Lent{
              col, analysis::ColumnSupervisor::now() + steal_deadline_s()});
          break;
        }
      }
      queue_depth_.set(static_cast<double>(queue_.size()));
    }
  }
  if (!col) {
    steal_empty_.add();
    return std::nullopt;
  }
  wake_.notify();  // the scheduler arms the reclaim deadline
  steal_given_.add();
  util::Json desc = util::Json::object();
  desc.set("spec", portable_doc(col->spec, col->points).to_json());
  return desc;
}

bool Broker::submit_stolen(const util::Json& descriptor, int victim) {
  analysis::SweepSpec spec;
  GridPlan plan;
  try {
    spec = analysis::SweepSpec::from_json(descriptor);
    spec.validate();
    plan = plan_grid(spec);
  } catch (const std::exception& e) {
    util::log_warn(util::strf("serve: rejecting stolen column: %s", e.what()));
    return false;
  }
  if (plan.points.empty() || !plan.portable) return false;

  auto col = std::make_shared<Column>();
  col->stolen_from = victim;
  col->label = util::strf("%s N=%d", spec.kernel.c_str(),
                          plan.points.front().nodes);
  col->basis = plan.basis_of.begin()->second;
  col->points = plan.points;
  col->keys = plan.keys;
  for (const std::string& key : col->keys) {
    col->id += key;
    col->id += '\n';
  }
  col->id += util::strf("retries=%d", spec.options.run_retries);
  fill_column_spec(&col->spec, spec, opts_);

  // Prefetch the victim's charged-work ledger: the worker then
  // re-prices the whole DVFS column from a disk read instead of
  // simulating (sampled columns skip this — their basis carries the
  // sampled suffix, which is not a ledger cache key).
  if (!spec.options.sampling) {
    if (const std::shared_ptr<ArtifactStore> store = store_snapshot())
      store->fetch_ledger(victim, col->basis);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return false;
    ++stolen_live_;
    queue_.push_back(col);
    queue_depth_.set(static_cast<double>(queue_.size()));
  }
  steal_columns_.add();
  columns_.add();
  wake_.notify();
  return true;
}

void Broker::push_back_stolen(const std::shared_ptr<Column>& col) {
  const std::shared_ptr<ArtifactStore> store = store_snapshot();
  if (!store) return;
  journal_.refresh();
  for (const std::string& key : col->keys) {
    if (const std::optional<analysis::RunRecord> rec = journal_.find(key))
      store->push_record(col->stolen_from, key, *rec);
  }
}

void Broker::steal_probe() {
  const std::shared_ptr<ArtifactStore> store = store_snapshot();
  if (!store) return;
  const double now = analysis::ColumnSupervisor::now();
  if (now < next_steal_) return;
  next_steal_ = now + 0.1;
  const std::size_t n = store->peer_count();
  for (std::size_t k = 0; k < n; ++k) {
    const int peer = static_cast<int>((steal_rr_ + k) % n);
    if (!store->peer_alive(peer)) continue;
    const std::optional<util::Json> desc = store->steal_from(peer);
    if (!desc) continue;
    const util::Json* doc = desc->find("spec");
    if (doc == nullptr || !doc->is_object()) continue;
    if (submit_stolen(*doc, peer)) {
      steal_rr_ = static_cast<std::size_t>(peer);
      next_steal_ = now;  // the peer is loaded: keep draining it
      return;
    }
  }
  if (n > 0) steal_rr_ = (steal_rr_ + 1) % n;
}

void Broker::start_forward(std::shared_ptr<Column> col) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stop_) {
      forwarded_columns_.add();
      Forward fwd;
      fwd.done = std::make_shared<std::atomic<bool>>(false);
      std::shared_ptr<std::atomic<bool>> done = fwd.done;
      fwd.thread = std::thread([this, col, done] {
        forward_main(col);
        done->store(true, std::memory_order_release);
        wake_.notify();  // so the scheduler joins this thread
      });
      forwards_.push_back(std::move(fwd));
      return;
    }
  }
  // Raced with stop: fail the column soft here — the stop drain
  // already ran or is running, and nobody else will finish it.
  journal_.refresh();
  if (!supervisor_.complete(*col))
    synthesize_failures(*col, false, "serve: server shut down");
  finish_column(col);
}

void Broker::forward_main(std::shared_ptr<Column> col) {
  const std::shared_ptr<ArtifactStore> store = store_snapshot();
  SweepReply reply;
  bool ok = false;
  if (store) {
    const analysis::SweepSpec doc = portable_doc(col->spec, col->points);
    ok = store->forward_sweep(col->owner, doc, steal_deadline_s(), &reply) &&
         reply.records.size() == col->keys.size();
  }
  if (!ok) {
    // The owner is unreachable (or answered garbage): fall back to
    // local execution — fabric failures cost latency, never answers.
    util::log_warn(util::strf(
        "serve: forwarding %s failed; reclaiming the column locally",
        col->label.c_str()));
    std::lock_guard<std::mutex> lock(mutex_);
    col->owner = -1;
    queue_.push_back(std::move(col));
    queue_depth_.set(static_cast<double>(queue_.size()));
    wake_.notify();
    return;
  }
  for (std::size_t i = 0; i < col->keys.size(); ++i) {
    const analysis::RunRecord& rec = reply.records[i];
    if (environmental_failure(rec)) {
      // The owner failed soft on this member; answer the submission
      // but keep the journal clean so a later one retries for real.
      col->synthesized[col->keys[i]] = rec;
      continue;
    }
    journal_.append(col->keys[i], rec);
    cache_.store(col->keys[i], rec);
  }
  finish_column(col);
}

void Broker::lent_pass() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (lent_.empty()) return;
  }
  journal_.refresh();
  std::vector<std::shared_ptr<Column>> completed;
  std::size_t reclaimed = 0;
  const double now = analysis::ColumnSupervisor::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lent_.begin(); it != lent_.end();) {
      if (supervisor_.complete(*it->col)) {
        completed.push_back(it->col);
        it = lent_.erase(it);
      } else if (now > it->deadline) {
        // The thief went quiet: take the column back and run it under
        // the local supervisor. A late push-back is harmless — imports
        // are idempotent and the local worker resumes past them.
        it->col->not_before = 0.0;
        queue_.push_back(it->col);
        ++reclaimed;
        it = lent_.erase(it);
      } else {
        ++it;
      }
    }
    queue_depth_.set(static_cast<double>(queue_.size()));
  }
  for (const std::shared_ptr<Column>& col : completed) finish_column(col);
  if (reclaimed > 0) {
    steal_reclaimed_.add(reclaimed);
    util::log_warn(util::strf(
        "serve: reclaimed %zu lent column(s) from a quiet thief", reclaimed));
    wake_.notify();
  }
}

void Broker::reap_forwards(bool all) {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = forwards_.begin(); it != forwards_.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        finished.push_back(std::move(it->thread));
        it = forwards_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : finished) t.join();
}

void Broker::scheduler_main() {
  const std::size_t window = static_cast<std::size_t>(opts_.workers);
  for (;;) {
    std::shared_ptr<Column> next;
    std::vector<std::shared_ptr<Column>> to_forward;
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping = stop_;
      if (!stopping && !hold_) {
        // Remote-owned columns leave on forwarding threads — they
        // never consume a local worker slot.
        for (auto it = queue_.begin(); it != queue_.end();) {
          if ((*it)->owner >= 0) {
            to_forward.push_back(*it);
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
        if (supervisor_.live() < window) {
          const double now = analysis::ColumnSupervisor::now();
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if ((*it)->not_before <= now) {
              next = *it;
              queue_.erase(it);
              break;
            }
          }
        }
      }
      queue_depth_.set(static_cast<double>(queue_.size()));
    }

    if (stopping) {
      // Unblock and retire the fabric first: shutdown_links() aborts
      // every peer request, so forwarding threads either finish their
      // column or re-queue it for the drain below.
      if (const std::shared_ptr<ArtifactStore> store = store_snapshot())
        store->shutdown_links();
      reap_forwards(/*all=*/true);
      // Fail everything soft so blocked run() calls return: the live
      // workers' columns, the queue and the lent-out columns (their
      // thieves may answer too late).
      std::vector<std::shared_ptr<Column>> drain;
      for (auto& col : supervisor_.kill_all())
        drain.push_back(std::static_pointer_cast<Column>(col));
      {
        std::lock_guard<std::mutex> lock(mutex_);
        drain.insert(drain.end(), queue_.begin(), queue_.end());
        queue_.clear();
        for (const Lent& l : lent_) drain.push_back(l.col);
        lent_.clear();
      }
      for (const std::shared_ptr<Column>& col : drain) {
        if (!supervisor_.complete(*col))
          synthesize_failures(*col, false, "serve: server shut down");
        finish_column(col);
      }
      workers_running_.set(0.0);
      return;
    }

    for (std::shared_ptr<Column>& col : to_forward)
      start_forward(std::move(col));
    to_forward.clear();

    // A column whose members were all journaled meanwhile (by another
    // column) forks nothing: it is done.
    if (next && !supervisor_.launch(
                    next, worker_body(next->spec, opts_.journal_path)))
      finish_column(next);

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

    // Fabric passes: join finished forwarding threads, settle lent
    // columns, and — when this broker is fully idle — ask a peer for
    // work instead of sitting on a warm cache.
    reap_forwards(/*all=*/false);
    lent_pass();
    bool idle = supervisor_.live() == 0;
    if (idle) {
      std::lock_guard<std::mutex> lock(mutex_);
      idle = queue_.empty() && !hold_ &&
             stolen_live_ < static_cast<std::size_t>(opts_.workers);
    }
    if (idle) steal_probe();

    // A launch or a reap may have made more work ready at once.
    if (next || !exits.empty()) continue;
    // Otherwise sleep until a worker exits, the doorbell rings (a
    // submission, a thaw, a fabric event, stop) or the nearest live
    // deadline, backoff gate, lent deadline or steal probe is due.
    double wake_at = -1.0;
    const auto due = [&wake_at](double t) {
      if (wake_at < 0.0 || t < wake_at) wake_at = t;
    };
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!hold_ && supervisor_.live() < window)
        for (const std::shared_ptr<Column>& col : queue_) due(col->not_before);
      for (const Lent& l : lent_) due(l.deadline);
      if (idle && store_) due(next_steal_);
    }
    supervisor_.wait(wake_at, &wake_);
  }
}

}  // namespace pas::serve
