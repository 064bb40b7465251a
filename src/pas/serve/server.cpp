#include "pas/serve/server.hpp"

#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <utility>

#include "pas/serve/protocol.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/json.hpp"
#include "pas/util/log.hpp"

namespace pas::serve {
namespace {

double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      broker_(opts_.broker),
      requests_(obs::registry().counter("serve.requests")),
      connections_(obs::registry().counter("serve.connections")),
      protocol_errors_(obs::registry().counter("serve.protocol_errors")),
      request_seconds_(obs::registry().histogram("serve.request_seconds")) {
  if (opts_.unix_socket.empty() && opts_.tcp_port < 0)
    throw std::invalid_argument(
        "serve: configure a unix socket path and/or a tcp port");
  if (!opts_.unix_socket.empty())
    unix_listener_ = listen_unix(opts_.unix_socket);
  if (opts_.tcp_port >= 0)
    tcp_listener_ = listen_tcp(opts_.tcp_port, &bound_tcp_port_);
  if (unix_listener_.valid())
    accept_threads_.emplace_back([this] { accept_loop(&unix_listener_); });
  if (tcp_listener_.valid())
    accept_threads_.emplace_back([this] { accept_loop(&tcp_listener_); });
}

Server::~Server() { stop(); }

void Server::accept_loop(const Fd* listener) {
  while (!stop_.load()) {
    Fd conn = accept_with_timeout(*listener, 0.1);
    if (!conn.valid()) continue;  // timeout: re-check the stop flag
    connections_.add();
    auto shared = std::make_shared<Fd>(std::move(conn));
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stop_.load()) return;  // raced stop(): drop the connection
    conns_.push_back(shared);
    conn_threads_.emplace_back(
        [this, shared] { handle_connection(std::move(shared)); });
  }
}

void Server::handle_connection(std::shared_ptr<Fd> conn) {
  LineReader reader(*conn);
  std::string line;
  while (!stop_.load() && reader.next(&line)) {
    if (line.empty()) continue;
    const double t0 = mono_seconds();
    requests_.add();
    try {
      const util::Json request = util::Json::parse(line);
      if (!request.is_object())
        throw std::invalid_argument("request must be a JSON object");
      const util::Json* op = request.find("op");
      if (op == nullptr || !op->is_string())
        throw std::invalid_argument("request needs a string \"op\" member");
      const std::string& name = op->as_string();
      if (name == "ping") {
        if (!send_all(*conn, ok_line("ping"))) break;
      } else if (name == "stats") {
        if (!send_all(*conn, stats_line())) break;
      } else if (name == "shutdown") {
        send_all(*conn, ok_line("shutdown"));
        {
          std::lock_guard<std::mutex> lock(wait_mutex_);
          shutdown_requested_ = true;
        }
        wait_cv_.notify_all();
      } else if (name == "sweep") {
        handle_sweep(request, *conn);
      } else {
        throw std::invalid_argument("unknown op \"" + name + "\"");
      }
    } catch (const std::exception& e) {
      // A bad request costs an error line, never the connection: the
      // client may hold other sweeps on it.
      protocol_errors_.add();
      if (!send_all(*conn, error_line(e.what()))) break;
    }
    request_seconds_.observe(mono_seconds() - t0);
  }
  conn->shutdown_both();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == conn) {
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void Server::handle_sweep(const util::Json& request, const Fd& conn) {
  const util::Json* spec_json = request.find("spec");
  if (spec_json == nullptr)
    throw std::invalid_argument("sweep request needs a \"spec\" member");
  const Broker::SweepResult result =
      broker_.run(analysis::SweepSpec::from_json(*spec_json));

  // Buffer the whole response: header, one line per grid point, trailer.
  util::Json header = util::Json::object();
  header.set("ok", util::Json(true));
  header.set("op", util::Json("sweep"));
  header.set("points",
             util::Json(static_cast<double>(result.records.size())));
  std::string payload = header.dump() + "\n";
  for (std::size_t i = 0; i < result.records.size(); ++i)
    payload += encode_point_line(i, result.records[i],
                                 result.from_cache[i] != 0);
  util::Json trailer = util::Json::object();
  trailer.set("done", util::Json(true));
  trailer.set("points",
              util::Json(static_cast<double>(result.records.size())));
  trailer.set("cache_hits",
              util::Json(static_cast<double>(result.cache_hits)));
  trailer.set("dedup_hits",
              util::Json(static_cast<double>(result.dedup_hits)));
  payload += trailer.dump() + "\n";
  send_all(conn, payload);
}

std::string Server::stats_line() {
  const analysis::RunCache& cache = broker_.cache();
  util::Json stats = util::Json::object();
  util::Json cache_stats = util::Json::object();
  cache_stats.set("hits", util::Json(static_cast<double>(cache.hits())));
  cache_stats.set("misses", util::Json(static_cast<double>(cache.misses())));
  cache_stats.set("stores", util::Json(static_cast<double>(cache.stores())));
  stats.set("cache", std::move(cache_stats));
  stats.set("journal_entries",
            util::Json(static_cast<double>(broker_.journal_entries())));
  stats.set("requests", util::Json(static_cast<double>(requests_.value())));
  stats.set("connections",
            util::Json(static_cast<double>(connections_.value())));
  const obs::Histogram::Snapshot lat = request_seconds_.snapshot();
  util::Json latency = util::Json::object();
  latency.set("count", util::Json(static_cast<double>(lat.count)));
  latency.set("p50", util::Json(lat.p50));
  latency.set("p90", util::Json(lat.p90));
  latency.set("p99", util::Json(lat.p99));
  stats.set("request_seconds", std::move(latency));
  util::Json j = util::Json::object();
  j.set("ok", util::Json(true));
  j.set("op", util::Json("stats"));
  j.set("stats", std::move(stats));
  return j.dump() + "\n";
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  wait_cv_.wait(lock, [this] { return shutdown_requested_ || stop_.load(); });
}

bool Server::wait_for(double timeout_s) {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  return wait_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [this] { return shutdown_requested_ || stop_.load(); });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true);
  wait_cv_.notify_all();
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  // Unblock connection threads parked in recv().
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const std::shared_ptr<Fd>& conn : conns_) conn->shutdown_both();
  }
  for (;;) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (conn_threads_.empty()) break;
      t = std::move(conn_threads_.back());
      conn_threads_.pop_back();
    }
    t.join();
  }
  if (!opts_.unix_socket.empty()) ::unlink(opts_.unix_socket.c_str());
  if (!opts_.metrics_csv.empty()) {
    const int err = util::atomic_write_file(
        opts_.metrics_csv,
        obs::registry().to_csv(obs::Stability::kVolatile));
    if (err != 0)
      util::log_warn("serve: cannot write " + opts_.metrics_csv);
  }
}

}  // namespace pas::serve
