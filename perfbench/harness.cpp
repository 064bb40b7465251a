// perfbench_harness — the in-process half of the PASim benchmark
// (perfbench/README.md). perfbench/run.py drives it; every subcommand
// writes one JSON object to --out.
//
//   perfbench_harness serve-load --socket P --phase cold|warm --seed S
//       --conns C [--queries N [--tail]] --state FILE --out FILE
//   perfbench_harness trace-sweep --workload report|faults
//       [--fault-seed N] [--rate R] --spans FILE --out FILE
//   perfbench_harness serve-probe --seed S --queries K --dir DIR
//       --spans FILE --out FILE
//   perfbench_harness scaling --serial S --parallel P --procs N --out FILE
//
// serve-load is the query generator of the `serve` workload: C
// connections in a closed loop, each sending its next query only after
// the reply, as pasim_client and forwarding brokers do. The cold phase
// submits the first N distinct small single-column queries of a seeded
// pool (--tail: the last N, which the first N never reach), then checks
// every reply against an offline SweepExecutor::run() of the same spec
// and saves the verified record encodings to --state. The warm phase
// resubmits the --state queries once, in a seeded order, and requires
// every point back from cache with the same bytes. Both phases are a
// fixed number of queries: the server's journal grows with every cold
// point and its per-request cost with it, so a time-boxed phase would
// measure a different journal on every run.
//
// trace-sweep and serve-probe are the traced runs: the workload's work
// as timed calls into each layer's public functions, one span per call,
// kept in memory and written to --spans once at exit.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pas/analysis/batch_repricer.hpp"
#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/analysis/sweep_journal.hpp"
#include "pas/analysis/sweep_spec.hpp"
#include "pas/core/baseline_models.hpp"
#include "pas/core/isoefficiency.hpp"
#include "pas/core/simplified_param.hpp"
#include "pas/core/workload_fit.hpp"
#include "pas/fault/fault.hpp"
#include "pas/mpi/watchdog.hpp"
#include "pas/serve/broker.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/json.hpp"

namespace {

using namespace pas;
using analysis::RunRecord;
using util::Json;

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Json numbers(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push_back(Json(x));
  return a;
}

void write_json(const std::string& path, const Json& j) {
  if (util::atomic_write_file(path, j.dump(1) + "\n") != 0)
    throw std::runtime_error("cannot write " + path);
}

Json read_json(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) throw std::runtime_error("cannot read " + path);
  return Json::parse(*text);
}

// ---- the serve workload's query pool ----------------------------------

/// One small single-point query: kernel x N x comm-DVFS x iteration
/// depth at 600 MHz. No two pool entries share a column, so no two
/// queries share work. EP has no iteration override and runs at its
/// preset depth. One point per query keeps the server's journal, which
/// it re-reads on every request, at one frame per cold query.
struct Query {
  std::string kernel;
  int nodes = 1;
  double comm_dvfs_mhz = 0.0;
  int iterations = 0;
};

constexpr int kMaxIterations = 24;
/// Pool entries the cold phase never takes, kept for --tail legs.
constexpr std::size_t kTailReserve = 200;

std::vector<Query> query_pool(std::uint64_t seed) {
  std::vector<Query> pool;
  for (const char* kernel : {"EP", "FT", "LU", "CG", "MG"})
    for (const int nodes : {1, 2, 4})
      for (const double comm : {0.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0}) {
        if (std::string(kernel) == "EP") {
          pool.push_back(Query{kernel, nodes, comm, 0});
          continue;
        }
        for (int it = 1; it <= kMaxIterations; ++it)
          pool.push_back(Query{kernel, nodes, comm, it});
      }
  std::mt19937_64 rng(seed);
  for (std::size_t i = pool.size() - 1; i > 0; --i)
    std::swap(pool[i], pool[rng() % (i + 1)]);
  return pool;
}

analysis::SweepSpec spec_of(const Query& q) {
  analysis::SweepSpec spec;
  spec.kernel = q.kernel;
  spec.scale = "small";
  spec.nodes = {q.nodes};
  spec.freqs_mhz = {600.0};
  spec.comm_dvfs_mhz = q.comm_dvfs_mhz;
  spec.iterations = q.iterations;
  return spec;
}

/// The offline oracle: the spec's grid through a serial, uncached
/// SweepExecutor::run(), each record in the wire's framed encoding
/// (status and error around RunCache::encode_record).
std::vector<std::string> offline_records(const analysis::SweepSpec& doc) {
  analysis::SweepSpec spec = doc;
  spec.options.jobs = 1;
  spec.options.use_cache = false;
  analysis::SweepExecutor exec(spec);
  std::vector<std::string> out;
  for (const RunRecord& r : exec.run().records)
    out.push_back(serve::cas_encode_record(r));
  return out;
}

// ---- serve-load -------------------------------------------------------

struct Reply {
  std::size_t query = 0;  ///< pool index
  double latency_ms = 0.0;
  bool ok = false;  ///< answered, no failed (crash/timeout) record
  bool all_from_cache = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_hits = 0;
  std::vector<std::string> records;
  std::string error;
};

/// Closed loop over `conns` connections: each takes the next pool index
/// of `order` and waits for the reply before taking another, until
/// `order` is used up. Returns the replies and the loop's wall time.
std::vector<Reply> closed_loop(const std::string& socket, int conns,
                               const std::vector<Query>& pool,
                               const std::vector<std::size_t>& order,
                               double* wall_s) {
  serve::ClientOptions copts;
  copts.unix_socket = socket;
  copts.connect_retries = 5;
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < conns; ++c)
    clients.push_back(std::make_unique<serve::Client>(copts));
  std::vector<std::vector<Reply>> per_conn(static_cast<std::size_t>(conns));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const double t0 = mono_s();
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<serve::Client>& client =
          clients[static_cast<std::size_t>(c)];
      std::vector<Reply>& out = per_conn[static_cast<std::size_t>(c)];
      for (std::size_t k = next++; k < order.size(); k = next++) {
        Reply r;
        r.query = order[k];
        const analysis::SweepSpec spec = spec_of(pool[r.query]);
        const double q0 = mono_s();
        try {
          const serve::SweepReply reply = client->sweep(spec);
          r.latency_ms = (mono_s() - q0) * 1e3;
          r.ok = !reply.records.empty();
          r.all_from_cache = true;
          for (std::size_t i = 0; i < reply.records.size(); ++i) {
            r.records.push_back(serve::cas_encode_record(reply.records[i]));
            if (reply.records[i].failed()) r.ok = false;
            if (reply.from_cache[i] == 0) r.all_from_cache = false;
          }
          r.cache_hits = reply.cache_hits;
          r.dedup_hits = reply.dedup_hits;
        } catch (const std::exception& e) {
          // A refused query or lost connection costs this query; the
          // connection is re-opened for the next one.
          r.latency_ms = (mono_s() - q0) * 1e3;
          r.error = e.what();
          out.push_back(std::move(r));
          try {
            client = std::make_unique<serve::Client>(copts);
          } catch (const std::exception&) {
            return;
          }
          continue;
        }
        out.push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = mono_s() - t0;
  std::vector<Reply> all;
  for (std::vector<Reply>& v : per_conn)
    for (Reply& r : v) all.push_back(std::move(r));
  return all;
}

Json server_stats(const std::string& socket) {
  serve::ClientOptions copts;
  copts.unix_socket = socket;
  serve::Client client(copts);
  return client.stats();
}

Json phase_json(const std::string& phase, int conns, double wall_s,
                const std::vector<Reply>& replies) {
  std::vector<double> latencies;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t points = 0;
  Json errors = Json::array();
  for (const Reply& r : replies) {
    latencies.push_back(r.latency_ms);
    cache_hits += r.cache_hits;
    dedup_hits += r.dedup_hits;
    points += r.records.size();
    if (!r.error.empty() && errors.items().size() < 5)
      errors.push_back(Json(r.error));
  }
  Json j = Json::object();
  j.set("phase", Json(phase));
  j.set("conns", Json(conns));
  j.set("queries", Json(static_cast<double>(replies.size())));
  j.set("points", Json(static_cast<double>(points)));
  j.set("wall_s", Json(wall_s));
  j.set("cache_hit_points", Json(static_cast<double>(cache_hits)));
  j.set("dedup_hits", Json(static_cast<double>(dedup_hits)));
  j.set("latencies_ms", numbers(latencies));
  j.set("errors", std::move(errors));
  return j;
}

int serve_load(const util::Cli& cli) {
  cli.check_usage({"socket", "phase", "seed", "conns", "queries", "tail",
                   "state", "out"});
  const std::string socket = cli.get("socket", "s.sock");
  const std::string phase = cli.get("phase", "cold");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int conns = std::max(1, static_cast<int>(cli.get_int("conns", 1)));
  const auto queries = static_cast<std::size_t>(cli.get_int("queries", 1));
  const std::string state_path = cli.get("state", "state.json");
  const std::vector<Query> pool = query_pool(seed);

  double wall_s = 0.0;
  std::uint64_t failed = 0;
  Json result;

  if (phase == "cold") {
    const bool tail = cli.get_bool("tail", false);
    const std::size_t limit =
        std::min(queries, tail ? kTailReserve : pool.size() - kTailReserve);
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < limit; ++k)
      order.push_back(tail ? pool.size() - 1 - k : k);
    const std::vector<Reply> replies =
        closed_loop(socket, conns, pool, order, &wall_s);
    result = phase_json(phase, conns, wall_s, replies);
    result.set("stats", server_stats(socket));

    // Outside the timed phase: every reply against its offline oracle.
    const double v0 = mono_s();
    std::vector<char> verified(replies.size(), 0);
    std::vector<std::thread> workers;
    const std::size_t nthreads = static_cast<std::size_t>(conns);
    for (std::size_t t = 0; t < nthreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < replies.size(); i += nthreads) {
          const Reply& r = replies[i];
          verified[i] = r.ok && r.records == offline_records(
                                                 spec_of(pool[r.query]));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    Json state = Json::array();
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (verified[i] == 0) {
        ++failed;
        continue;
      }
      Json entry = Json::object();
      entry.set("query", Json(static_cast<double>(replies[i].query)));
      Json recs = Json::array();
      for (const std::string& rec : replies[i].records)
        recs.push_back(Json(rec));
      entry.set("records", std::move(recs));
      state.push_back(std::move(entry));
    }
    write_json(state_path, state);
    result.set("verify_s", Json(mono_s() - v0));
  } else if (phase == "warm") {
    std::map<std::size_t, std::vector<std::string>> expected;
    const Json state = read_json(state_path);
    for (const Json& entry : state.items()) {
      std::vector<std::string>& recs =
          expected[static_cast<std::size_t>(entry.find("query")->as_number())];
      for (const Json& rec : entry.find("records")->items())
        recs.push_back(rec.as_string());
    }
    std::vector<std::size_t> order;
    for (const auto& [query, recs] : expected) order.push_back(query);
    std::mt19937_64 rng(seed ^ 0x5851f42d4c957f2dULL);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng() % i]);
    const std::vector<Reply> replies =
        closed_loop(socket, conns, pool, order, &wall_s);
    result = phase_json(phase, conns, wall_s, replies);
    result.set("stats", server_stats(socket));
    for (const Reply& r : replies)
      if (!r.ok || !r.all_from_cache || r.records != expected[r.query])
        ++failed;
  } else {
    throw std::invalid_argument("--phase must be cold or warm");
  }
  result.set("failed", Json(static_cast<double>(failed)));
  write_json(cli.get("out", "load.json"), result);
  return 0;
}

// ---- traced runs -------------------------------------------------------

/// The traced run's spans: one per layer call made from this file, kept
/// in memory and written once at exit. A name is "<layer>.<call>";
/// spans of one grid point or query share an id.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string id;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int open(const std::string& name, const std::string& id, int parent) {
    spans_.push_back(Span{name, id, parent, mono_s(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `i` and returns its duration.
  double close(int i) {
    Span& s = spans_.at(static_cast<std::size_t>(i));
    s.end = mono_s();
    return s.end - s.start;
  }
  void add(Span s) { spans_.push_back(std::move(s)); }

  /// Self seconds per layer: each span's duration minus the part of its
  /// interval its children cover (rank-body children overlap).
  std::map<std::string, double> self_by_layer() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>>& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0.0;
      double lo = s.start;
      for (const auto& [a0, b0] : k) {
        const double a = std::max(a0, lo);
        const double b = std::min(b0, s.end);
        if (b > a) {
          covered += b - a;
          lo = b;
        }
      }
      self[s.name.substr(0, s.name.find('.'))] += (s.end - s.start) - covered;
    }
    return self;
  }

  Json to_json() const {
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    Json a = Json::array();
    for (const Span& s : spans_) {
      Json j = Json::object();
      j.set("name", Json(s.name));
      j.set("id", Json(s.id));
      j.set("parent", Json(s.parent));
      j.set("start_s", Json(s.start - origin));
      j.set("end_s", Json(s.end - origin));
      a.push_back(std::move(j));
    }
    return a;
  }

 private:
  std::vector<Span> spans_;
};

/// Wraps a kernel so each rank body records its wall interval, thread
/// CPU time and sent messages: RunMatrix::run_one runs Kernel::run as
/// the rank body on mpi::Runtime's rank threads.
class TimedKernel final : public npb::Kernel {
 public:
  struct Rank {
    double start = 0.0;
    double end = 0.0;
    double cpu_s = 0.0;
    std::uint64_t messages = 0;
  };

  explicit TimedKernel(const npb::Kernel& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::string signature() const override { return inner_.signature(); }
  bool frequency_invariant_control_flow() const override {
    return inner_.frequency_invariant_control_flow();
  }

  npb::KernelResult run(mpi::Comm& comm) const override {
    // Each rank writes only its own slot; the runtime joins every rank
    // before the caller reads them.
    Rank& r = ranks_.at(static_cast<std::size_t>(comm.rank()));
    r.start = mono_s();
    struct Stamp {  // runs on a fault abort too
      Rank& r;
      const mpi::Comm& comm;
      double cpu0;
      ~Stamp() {
        r.cpu_s = thread_cpu_s() - cpu0;
        r.end = mono_s();
        r.messages = comm.stats().messages_sent;
      }
    } stamp{r, comm, thread_cpu_s()};
    return inner_.run(comm);
  }

  /// Clears the per-rank slots before a run of `nranks` ranks.
  void arm(int nranks) const {
    ranks_.assign(static_cast<std::size_t>(nranks), Rank{});
  }
  const std::vector<Rank>& ranks() const { return ranks_; }

 private:
  const npb::Kernel& inner_;
  mutable std::vector<Rank> ranks_;
};

/// Per-layer totals of one traced run.
struct Layers {
  double rank_cpu_s = 0.0;
  double rank_wall_s = 0.0;
  double dispatch_s = 0.0;
  double messages = 0.0;
  double charge_ops = 0.0;
  int rank_threads_max = 0;
  double simulate_calls = 0.0;
  double simulate_s = 0.0;
  double simulate_max_s = 0.0;
  std::string simulate_max_at;
  double replay_lanes = 0.0;
  double replay_s = 0.0;
  double fit_s = 0.0;
  double send_retries = 0.0;
  double points_failed = 0.0;

  Json to_json() const {
    Json j = Json::object();
    j.set("rank_cpu_s", Json(rank_cpu_s));
    j.set("rank_wall_s", Json(rank_wall_s));
    j.set("dispatch_s", Json(dispatch_s));
    j.set("messages", Json(messages));
    j.set("charge_ops", Json(charge_ops));
    j.set("rank_threads_max", Json(rank_threads_max));
    j.set("simulate_calls", Json(simulate_calls));
    j.set("simulate_s", Json(simulate_s));
    j.set("simulate_max_s", Json(simulate_max_s));
    j.set("simulate_max_at", Json(simulate_max_at));
    j.set("replay_lanes", Json(replay_lanes));
    j.set("replay_s", Json(replay_s));
    j.set("fit_s", Json(fit_s));
    j.set("send_retries", Json(send_retries));
    j.set("points_failed", Json(points_failed));
    return j;
  }
};

struct Simulated {
  RunRecord record;
  sim::WorkLedger ledger;
  bool ok = false;
};

/// One grid point through RunMatrix::run_one with the charged-work
/// recorder armed, as the sweep executor runs a column head (points
/// under fault injection record too, so charge_ops counts every
/// simulation). A fault abort (the executor's fail-soft set) returns
/// ok = false; anything else propagates.
Simulated simulate(analysis::RunMatrix& matrix, const TimedKernel& kernel,
                   const analysis::SweepExecutor::Point& p, int attempt,
                   const std::string& id, int parent, Spans& spans,
                   Layers& layers) {
  Simulated out;
  kernel.arm(p.nodes);
  matrix.ledger_recorder().begin(p.nodes, p.comm_dvfs_mhz);
  const int span = spans.open("analysis.simulate", id, parent);
  try {
    out.record = matrix.run_one(kernel, p.nodes, p.frequency_mhz,
                                p.comm_dvfs_mhz, attempt);
    out.ledger = matrix.ledger_recorder().take();
    out.ledger.verified = out.record.verified;
    out.ok = true;
  } catch (const fault::NodeFailedError&) {
  } catch (const fault::MessageLossError&) {
  } catch (const mpi::TimeoutError&) {
  } catch (const mpi::DeadlockError&) {
  }
  if (!out.ok) matrix.ledger_recorder().abort();
  const double wall = spans.close(span);

  double longest = 0.0;
  for (const TimedKernel::Rank& r : kernel.ranks()) {
    if (r.end <= 0.0) continue;
    layers.rank_cpu_s += r.cpu_s;
    layers.rank_wall_s += r.end - r.start;
    layers.messages += static_cast<double>(r.messages);
    longest = std::max(longest, r.end - r.start);
    spans.add(Spans::Span{"npb.rank", id, span, r.start, r.end});
  }
  layers.dispatch_s += std::max(0.0, wall - longest);
  layers.rank_threads_max = std::max(layers.rank_threads_max, p.nodes);
  layers.simulate_calls += 1.0;
  layers.simulate_s += wall;
  if (wall > layers.simulate_max_s) {
    layers.simulate_max_s = wall;
    layers.simulate_max_at = id;
  }
  if (out.ok) layers.charge_ops += static_cast<double>(out.ledger.total_ops());
  return out;
}

/// One fault-free (kernel, N, comm-DVFS) column the way the sweep
/// executor's fast path runs it: the first frequency simulates and
/// records a ledger, one BatchRepricer pass prices the rest.
std::vector<RunRecord> run_column(analysis::RunMatrix& matrix,
                                  const analysis::BatchRepricer& repricer,
                                  const TimedKernel& kernel, int nodes,
                                  const std::vector<double>& freqs,
                                  double comm, const std::string& id,
                                  Spans& spans, Layers& layers,
                                  sim::WorkLedger* ledger_out = nullptr) {
  const int col = spans.open("analysis.column", id, -1);
  Simulated head = simulate(matrix, kernel, {nodes, freqs.front(), comm}, 0,
                            id, col, spans, layers);
  if (!head.ok) throw std::runtime_error(id + ": fault-free run aborted");
  std::vector<RunRecord> records{head.record};
  const std::vector<double> rest(freqs.begin() + 1, freqs.end());
  if (!rest.empty() && kernel.frequency_invariant_control_flow() &&
      head.ledger.replayable) {
    const int span = spans.open("analysis.replay", id, col);
    std::vector<RunRecord> priced = repricer.reprice(head.ledger, rest);
    layers.replay_s += spans.close(span);
    layers.replay_lanes += static_cast<double>(rest.size());
    records.insert(records.end(), priced.begin(), priced.end());
  } else {
    for (const double f : rest)
      records.push_back(
          simulate(matrix, kernel, {nodes, f, comm}, 0, id, col, spans, layers)
              .record);
  }
  spans.close(col);
  if (ledger_out != nullptr) *ledger_out = std::move(head.ledger);
  return records;
}

/// full_report's sweep: five kernels x 25 points in 25 columns, then
/// the fits REPORT.md prints for each kernel.
void trace_report(Spans& spans, Layers& layers) {
  const analysis::SweepSpec defaults;
  const analysis::ExperimentEnv env = analysis::env_for_spec(defaults);
  analysis::RunMatrix matrix(env.cluster);
  const analysis::BatchRepricer repricer(env.cluster);
  for (const char* name : {"EP", "FT", "LU", "CG", "MG"}) {
    const auto kernel = analysis::make_kernel(name, analysis::Scale::kPaper);
    const TimedKernel timed(*kernel);
    analysis::MatrixResult m;
    for (const int n : env.nodes)
      for (RunRecord& rec :
           run_column(matrix, repricer, timed, n, env.freqs_mhz, 0.0,
                      util::strf("%s/N=%d", name, n), spans, layers))
        m.add(std::move(rec));

    const int fit = spans.open("core.fit", name, -1);
    const analysis::ErrorTable eq3 = analysis::speedup_error_table(
        m.times,
        [&](int n, double f) {
          return core::eq3_product_prediction(m.times, n, f, 1,
                                              env.base_f_mhz);
        },
        env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
    core::SimplifiedParameterization sp(env.base_f_mhz);
    sp.ingest(m.times);
    const analysis::ErrorTable sp_err = analysis::speedup_error_table(
        m.times, [&](int n, double f) { return sp.predict_speedup(n, f); },
        env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
    const core::WorkloadFit wf = core::fit_workload(m.times, env.base_f_mhz);
    const std::vector<core::IsoPoint> iso =
        core::isoefficiency_curve(wf, env.parallel_nodes, 0.7);
    layers.fit_s += spans.close(fit);
    (void)eq3;
    (void)sp_err;
    (void)iso;
  }
}

/// resilience_sweep --faults R: per kernel a clean fast-path sweep, then
/// the same 25 points under fault injection, simulated in full with the
/// executor's default retry budget.
void trace_faults(std::uint64_t seed, double rate, Spans& spans,
                  Layers& layers) {
  const analysis::SweepSpec defaults;
  const analysis::ExperimentEnv env = analysis::env_for_spec(defaults);
  analysis::RunMatrix clean(env.cluster);
  sim::ClusterConfig faulty_cluster = env.cluster;
  faulty_cluster.fault = fault::FaultConfig::scaled(rate, seed);
  analysis::RunMatrix faulty(faulty_cluster);
  const analysis::BatchRepricer repricer(env.cluster);
  const int max_attempts = 1 + analysis::SweepOptions{}.run_retries;
  for (const char* name : {"EP", "FT", "LU"}) {
    const auto kernel = analysis::make_kernel(name, analysis::Scale::kPaper);
    const TimedKernel timed(*kernel);
    for (const int n : env.nodes)
      run_column(clean, repricer, timed, n, env.freqs_mhz, 0.0,
                 util::strf("%s/N=%d/clean", name, n), spans, layers);
    for (const int n : env.nodes) {
      for (const double f : env.freqs_mhz) {
        const std::string id = util::strf("%s/N=%d/f=%.0f/faults", name, n, f);
        const int point = spans.open("analysis.point", id, -1);
        bool ok = false;
        for (int attempt = 0; attempt < max_attempts && !ok; ++attempt) {
          const Simulated s = simulate(faulty, timed, {n, f, 0.0}, attempt, id,
                                       point, spans, layers);
          if (s.ok) {
            ok = true;
            layers.send_retries += s.record.send_retries;
          }
        }
        if (!ok) layers.points_failed += 1.0;
        spans.close(point);
      }
    }
  }
}

Json self_json(const Spans& spans) {
  Json j = Json::object();
  for (const auto& [layer, s] : spans.self_by_layer()) j.set(layer, Json(s));
  return j;
}

int trace_sweep(const util::Cli& cli) {
  cli.check_usage({"workload", "fault-seed", "rate", "spans", "out"});
  const std::string workload = cli.get("workload", "report");
  Spans spans;
  Layers layers;
  const double t0 = mono_s();
  if (workload == "report") {
    trace_report(spans, layers);
  } else if (workload == "faults") {
    trace_faults(static_cast<std::uint64_t>(cli.get_int("fault-seed", 1)),
                 cli.get_double("rate", 0.05), spans, layers);
  } else {
    throw std::invalid_argument("--workload must be report or faults");
  }
  const double wall = mono_s() - t0;
  Json j = Json::object();
  j.set("traced_wall_s", Json(wall));
  j.set("layers", layers.to_json());
  j.set("self_s", self_json(spans));
  write_json(cli.get("spans", "spans.json"), spans.to_json());
  write_json(cli.get("out", "trace.json"), j);
  return 0;
}

/// The serve path's layers, in process, on the first `count` pool
/// queries: direct compute, the codec, cache and journal writes and
/// reads, and an in-process Broker::run cold then warm.
int serve_probe(const util::Cli& cli) {
  cli.check_usage({"seed", "queries", "dir", "spans", "out"});
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string dir = cli.get("dir", "probe");
  std::vector<Query> pool = query_pool(seed);
  pool.resize(std::min<std::size_t>(
      pool.size(), static_cast<std::size_t>(cli.get_int("queries", 100))));
  std::filesystem::create_directories(dir);

  Spans spans;
  Layers layers;
  const double t0 = mono_s();
  const sim::ClusterConfig cluster = spec_of(pool.front()).resolved_cluster();
  const power::PowerModel power;
  analysis::RunMatrix matrix(cluster);
  const analysis::BatchRepricer repricer(cluster);

  std::vector<analysis::SweepSpec> specs;
  std::vector<std::vector<RunRecord>> records;
  std::vector<std::vector<std::string>> keys;
  std::vector<double> compute_ms, codec_ms, store_ms, append_ms, disk_ms,
      memory_ms, cold_ms, warm_ms;
  double ledger_bytes = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const analysis::SweepSpec spec = spec_of(pool[i]);
    const auto kernel = analysis::make_spec_kernel(spec);
    const TimedKernel timed(*kernel);
    const std::string id = util::strf("q%zu", i);
    sim::WorkLedger ledger;
    const double c0 = mono_s();
    std::vector<RunRecord> recs =
        run_column(matrix, repricer, timed, spec.nodes.front(),
                   spec.resolved_freqs(), spec.comm_dvfs_mhz, id, spans,
                   layers, &ledger);
    compute_ms.push_back((mono_s() - c0) * 1e3);
    const int enc = spans.open("analysis.encode_ledger", id, -1);
    ledger_bytes +=
        static_cast<double>(analysis::RunCache::encode_ledger(ledger).size());
    spans.close(enc);
    std::vector<std::string> ks;
    for (const RunRecord& r : recs)
      ks.push_back(analysis::RunCache::key(*kernel, cluster, power, r.nodes,
                                           r.frequency_mhz,
                                           spec.comm_dvfs_mhz));
    specs.push_back(spec);
    records.push_back(std::move(recs));
    keys.push_back(std::move(ks));
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int span = spans.open("serve.codec", util::strf("q%zu", i), -1);
    const analysis::SweepSpec back =
        analysis::SweepSpec::parse(specs[i].to_json().dump());
    for (std::size_t j = 0; j < records[i].size(); ++j) {
      std::string line = serve::encode_point_line(j, records[i][j], false);
      line.pop_back();  // the wire's newline
      serve::PointLine decoded;
      if (!serve::decode_point_line(Json::parse(line), &decoded))
        throw std::runtime_error("codec: point line does not decode");
    }
    codec_ms.push_back(spans.close(span) * 1e3);
    (void)back;
  }

  {
    analysis::RunCache cache(dir + "/cache");
    analysis::SweepJournal journal(dir + "/probe.journal", /*resume=*/false);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string id = util::strf("q%zu", i);
      for (std::size_t j = 0; j < records[i].size(); ++j) {
        int span = spans.open("analysis.cache_store", id, -1);
        cache.store(keys[i][j], records[i][j]);
        store_ms.push_back(spans.close(span) * 1e3);
        span = spans.open("analysis.journal_append", id, -1);
        journal.append(keys[i][j], records[i][j]);
        append_ms.push_back(spans.close(span) * 1e3);
      }
    }
  }
  analysis::RunCache reread(dir + "/cache");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string id = util::strf("q%zu", i);
    for (std::size_t j = 0; j < records[i].size(); ++j) {
      const std::string want =
          analysis::RunCache::encode_record(records[i][j]);
      for (std::vector<double>* ms : {&disk_ms, &memory_ms}) {
        const int span = spans.open("analysis.cache_lookup", id, -1);
        const std::optional<RunRecord> hit = reread.lookup(keys[i][j]);
        ms->push_back(spans.close(span) * 1e3);
        if (!hit || analysis::RunCache::encode_record(*hit) != want)
          throw std::runtime_error("cache: stored record not read back");
      }
    }
  }

  std::fflush(stdout);  // the broker's workers fork
  {
    serve::BrokerOptions opts;
    opts.cache_dir = dir + "/broker";
    serve::Broker broker(opts);
    for (std::vector<double>* ms : {&cold_ms, &warm_ms}) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const int span =
            spans.open("serve.broker_run", util::strf("q%zu", i), -1);
        const serve::Broker::SweepResult r = broker.run(specs[i]);
        ms->push_back(spans.close(span) * 1e3);
        bool same = r.records.size() == records[i].size();
        for (std::size_t j = 0; same && j < r.records.size(); ++j)
          same = serve::cas_encode_record(r.records[j]) ==
                 serve::cas_encode_record(records[i][j]);
        if (!same) throw std::runtime_error("broker: record differs");
      }
    }
  }

  Json j = Json::object();
  j.set("queries", Json(static_cast<double>(specs.size())));
  j.set("traced_wall_s", Json(mono_s() - t0));
  j.set("layers", layers.to_json());
  j.set("self_s", self_json(spans));
  j.set("compute_ms", Json(median(compute_ms)));
  j.set("codec_ms", Json(median(codec_ms)));
  j.set("cache_store_ms", Json(median(store_ms)));
  j.set("journal_append_ms", Json(median(append_ms)));
  j.set("cache_lookup_disk_ms", Json(median(disk_ms)));
  j.set("cache_lookup_memory_ms", Json(median(memory_ms)));
  j.set("broker_cold_ms", Json(median(cold_ms)));
  j.set("broker_warm_ms", Json(median(warm_ms)));
  j.set("ledger_bytes_per_query",
        Json(ledger_bytes / static_cast<double>(specs.size())));
  j.set("compute_ms_mean",
        Json(std::accumulate(compute_ms.begin(), compute_ms.end(), 0.0) /
             static_cast<double>(compute_ms.size())));
  write_json(cli.get("spans", "spans.json"), spans.to_json());
  write_json(cli.get("out", "probe.json"), j);
  return 0;
}

/// The paper's lens on the tool itself: S = serial / parallel time,
/// its Karp-Flatt serial fraction and parallel efficiency on `procs`.
int scaling(const util::Cli& cli) {
  cli.check_usage({"serial", "parallel", "procs", "out"});
  const double serial = cli.get_double("serial", 0.0);
  const double parallel = cli.get_double("parallel", 0.0);
  const int procs = static_cast<int>(cli.get_int("procs", 1));
  if (serial <= 0.0 || parallel <= 0.0)
    throw std::invalid_argument("--serial and --parallel must be > 0");
  const double s = serial / parallel;
  Json j = Json::object();
  j.set("speedup", Json(s));
  j.set("efficiency", Json(core::parallel_efficiency(s, procs)));
  // Undefined on one processor (1 - 1/N = 0).
  j.set("karp_flatt",
        procs > 1 ? Json(core::karp_flatt_serial_fraction(s, procs)) : Json());
  write_json(cli.get("out", "scaling.json"), j);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string cmd =
      cli.positional().empty() ? std::string() : cli.positional().front();
  try {
    if (cmd == "serve-load") return serve_load(cli);
    if (cmd == "trace-sweep") return trace_sweep(cli);
    if (cmd == "serve-probe") return serve_probe(cli);
    if (cmd == "scaling") return scaling(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_harness serve-load|trace-sweep|serve-probe|"
               "scaling [options]\n");
  return 2;
}
