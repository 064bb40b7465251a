// Server — the pasim_serve front end: listeners, connection threads,
// request dispatch (DESIGN.md §13).
//
// A Server owns one Broker and serves the line protocol
// (pas/serve/protocol.hpp) over a Unix-domain socket, a localhost TCP
// port, or both: one server serves one host. Each connection gets a
// thread; requests on one connection are sequential (the protocol is
// request/response), while sweeps from different connections run
// concurrently and dedup inside the broker. A malformed request line
// costs an error response, never the connection; a vanished client
// costs the connection, never the server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pas/serve/broker.hpp"
#include "pas/serve/socket.hpp"

namespace pas::serve {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string unix_socket;
  /// >= 0 enables the 127.0.0.1 TCP listener (0 = ephemeral port).
  int tcp_port = -1;
  BrokerOptions broker;
  /// When set, the full metrics registry (volatile rows included —
  /// serving traffic is wall-clock shaped) is written here on stop().
  std::string metrics_csv;
};

class Server {
 public:
  /// Binds the listeners, starts the broker and the accept threads.
  /// Throws std::invalid_argument when no listener is configured and
  /// std::runtime_error on bind failures.
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound TCP port (-1 when TCP is disabled).
  int tcp_port() const { return bound_tcp_port_; }

  /// Blocks until a client sends {"op":"shutdown"} or stop() is called.
  void wait();

  /// wait() bounded to `timeout_s`; true when shutdown was requested
  /// (or the server already stopped). The tool's signal-polling loop.
  bool wait_for(double timeout_s);

  /// Idempotent orderly stop: unblocks every accept loop and open
  /// connection, joins all threads, writes metrics_csv.
  void stop();

 private:
  void accept_loop(const Fd* listener);
  void handle_connection(std::shared_ptr<Fd> conn);
  void handle_sweep(const util::Json& request, const Fd& conn);
  std::string stats_line();

  ServerOptions opts_;
  Broker broker_;
  Fd unix_listener_;
  Fd tcp_listener_;
  int bound_tcp_port_ = -1;

  std::atomic<bool> stop_{false};
  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::shared_ptr<Fd>> conns_;
  std::vector<std::thread> accept_threads_;

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;  ///< stop() already ran to completion

  // Resolved at construction (fork safety — see pas/serve/broker.hpp).
  obs::Counter& requests_;
  obs::Counter& connections_;
  obs::Counter& protocol_errors_;
  obs::Histogram& request_seconds_;
};

}  // namespace pas::serve
