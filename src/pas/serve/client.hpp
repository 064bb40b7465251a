// Client — the pasim_serve line-protocol client library, used by the
// pasim_client tool and the serve tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sweep_spec.hpp"
#include "pas/serve/socket.hpp"
#include "pas/util/json.hpp"

namespace pas::serve {

struct ClientOptions {
  /// Unix-domain socket path; wins over TCP when both are set.
  std::string unix_socket;
  std::string host = "127.0.0.1";
  int tcp_port = -1;
  /// Reconnect attempts after a refused/reset connect (a server that
  /// is restarting, or a listen backlog burst). Each retry backs off
  /// exponentially from `connect_backoff_s`; other connect errors
  /// (bad address, permission) never retry.
  int connect_retries = 0;
  double connect_backoff_s = 0.05;
};

/// One decoded sweep response.
struct SweepReply {
  /// Grid order, bit-identical to an offline run of the same spec.
  std::vector<analysis::RunRecord> records;
  std::vector<char> from_cache;
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_hits = 0;
};

class Client {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  explicit Client(const ClientOptions& opts);

  /// Retries ping-connects until the server answers or `timeout_s`
  /// elapses — the "wait for the server to come up" helper.
  static bool wait_ready(const ClientOptions& opts, double timeout_s);

  /// True when the server answers {"op":"ping"}.
  bool ping();

  /// The server's {"op":"stats"} payload (the "stats" member).
  util::Json stats();

  /// Asks the server to exit its wait() loop. True on acknowledgement.
  bool shutdown_server();

  /// Submits the spec's document half and blocks for the full
  /// response. Throws std::runtime_error on a protocol error, a server
  /// error response, or a lost connection.
  SweepReply sweep(const analysis::SweepSpec& spec);

 private:
  util::Json request(const util::Json& body);

  Fd fd_;
  LineReader reader_;
};

}  // namespace pas::serve
