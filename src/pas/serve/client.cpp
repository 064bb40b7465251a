#include "pas/serve/client.hpp"

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "pas/fault/fault.hpp"
#include "pas/serve/protocol.hpp"

namespace pas::serve {
namespace {

Fd connect_once(const ClientOptions& opts) {
  if (!opts.unix_socket.empty()) return connect_unix(opts.unix_socket);
  if (opts.tcp_port >= 0) return connect_tcp(opts.host, opts.tcp_port);
  throw std::runtime_error(
      "serve: ClientOptions needs a unix socket path or a tcp port");
}

/// The errnos worth retrying: the server is (re)starting or shed the
/// backlog. ENOENT covers a unix socket whose file is not bound yet.
bool transient_connect_error(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == ENOENT;
}

Fd connect(const ClientOptions& opts) {
  for (int attempt = 0;; ++attempt) {
    try {
      return connect_once(opts);
    } catch (const ConnectError& e) {
      if (attempt >= opts.connect_retries ||
          !transient_connect_error(e.saved_errno))
        throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        fault::backoff_s(opts.connect_backoff_s, attempt)));
  }
}

[[noreturn]] void raise_reply_error(const util::Json& reply) {
  const util::Json* error = reply.find("error");
  throw std::runtime_error("serve: server error: " +
                           (error != nullptr && error->is_string()
                                ? error->as_string()
                                : reply.dump()));
}

}  // namespace

Client::Client(const ClientOptions& opts)
    : fd_(connect(opts)), reader_(fd_) {}

bool Client::wait_ready(const ClientOptions& opts, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    try {
      Client client(opts);
      if (client.ping()) return true;
    } catch (const std::exception&) {
      // Not up yet.
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

util::Json Client::request(const util::Json& body) {
  if (!send_all(fd_, body.dump() + "\n"))
    throw std::runtime_error("serve: connection lost while sending");
  std::string line;
  if (!reader_.next(&line))
    throw std::runtime_error("serve: connection lost while waiting");
  return util::Json::parse(line);
}

bool Client::ping() {
  util::Json body = util::Json::object();
  body.set("op", util::Json("ping"));
  const util::Json reply = request(body);
  const util::Json* ok = reply.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

util::Json Client::stats() {
  util::Json body = util::Json::object();
  body.set("op", util::Json("stats"));
  const util::Json reply = request(body);
  const util::Json* ok = reply.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
    raise_reply_error(reply);
  const util::Json* stats = reply.find("stats");
  if (stats == nullptr)
    throw std::runtime_error("serve: stats reply without a stats member");
  return *stats;
}

bool Client::shutdown_server() {
  util::Json body = util::Json::object();
  body.set("op", util::Json("shutdown"));
  const util::Json reply = request(body);
  const util::Json* ok = reply.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

SweepReply Client::sweep(const analysis::SweepSpec& spec) {
  util::Json body = util::Json::object();
  body.set("op", util::Json("sweep"));
  body.set("spec", spec.to_json());
  const util::Json header = request(body);
  const util::Json* ok = header.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
    raise_reply_error(header);
  const util::Json* points = header.find("points");
  if (points == nullptr || !points->is_number() || points->as_number() < 0)
    throw std::runtime_error("serve: sweep header without a point count");
  const auto n = static_cast<std::size_t>(points->as_number());

  SweepReply reply;
  reply.records.resize(n);
  reply.from_cache.assign(n, 0);
  std::vector<char> seen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::string line;
    if (!reader_.next(&line))
      throw std::runtime_error("serve: connection lost mid-sweep");
    PointLine point;
    if (!decode_point_line(util::Json::parse(line), &point) ||
        point.index >= n || seen[point.index])
      throw std::runtime_error("serve: malformed sweep point line");
    reply.records[point.index] = std::move(point.record);
    reply.from_cache[point.index] = point.from_cache ? 1 : 0;
    seen[point.index] = 1;
  }
  std::string line;
  if (!reader_.next(&line))
    throw std::runtime_error("serve: connection lost before the trailer");
  const util::Json trailer = util::Json::parse(line);
  const util::Json* done = trailer.find("done");
  if (done == nullptr || !done->is_bool() || !done->as_bool())
    throw std::runtime_error("serve: sweep response ended without done");
  if (const util::Json* hits = trailer.find("cache_hits");
      hits != nullptr && hits->is_number())
    reply.cache_hits = static_cast<std::uint64_t>(hits->as_number());
  if (const util::Json* hits = trailer.find("dedup_hits");
      hits != nullptr && hits->is_number())
    reply.dedup_hits = static_cast<std::uint64_t>(hits->as_number());
  return reply;
}

}  // namespace pas::serve
