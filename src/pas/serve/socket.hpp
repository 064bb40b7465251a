// Minimal socket plumbing for pasim_serve: RAII fds, Unix-domain and
// localhost-TCP listeners/connections, and a buffered newline reader
// for the line protocol (pas/serve/protocol.hpp).
//
// Everything here is blocking I/O with poll()-based timeouts where a
// caller needs one (accept loops must notice a stop flag; clients wait
// for a server to come up). SIGPIPE is never raised: sends use
// MSG_NOSIGNAL, so a vanished peer is an error return, not a signal.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace pas::serve {

/// Thrown by the connect_* factories. Carries the failing connect(2)
/// errno so callers can tell a cold-start race (ECONNREFUSED — the
/// listener is not up yet; ECONNRESET — it dropped the backlog while
/// starting) from a permanent failure, and retry only the former.
class ConnectError : public std::runtime_error {
 public:
  ConnectError(const std::string& what, int err)
      : std::runtime_error(what), saved_errno(err) {}
  int saved_errno = 0;
};

/// Hard cap on one protocol line. A full-grid sweep response line
/// carries one encoded RunRecord (~1 KiB); 8 MiB is three orders of
/// magnitude of headroom and still refuses a garbage stream quickly.
constexpr std::size_t kMaxLineBytes = 8u << 20;

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd();

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Closes the current fd (if any) and takes ownership of `fd`.
  void reset(int fd = -1);
  /// Releases ownership without closing.
  int release();
  /// shutdown(SHUT_RDWR): unblocks a thread parked in recv() on this
  /// fd from another thread, without racing the close.
  void shutdown_both() const;

 private:
  int fd_ = -1;
};

// All factory functions throw std::runtime_error with errno detail on
// failure.

/// Binds + listens on a Unix-domain socket, unlinking a stale socket
/// file first. Note the sun_path limit (~107 bytes): keep paths short.
Fd listen_unix(const std::string& path);

/// Binds + listens on 127.0.0.1:`port` (0 picks an ephemeral port);
/// the actually bound port is stored in *bound_port.
Fd listen_tcp(int port, int* bound_port);

// The connect factories throw ConnectError (errno preserved) when the
// connect(2) itself fails.
Fd connect_unix(const std::string& path);
Fd connect_tcp(const std::string& host, int port);

/// Waits up to `timeout_s` for a connection; returns an invalid Fd on
/// timeout (the accept loop's stop-flag poll point).
Fd accept_with_timeout(const Fd& listener, double timeout_s);

/// Sends every byte (MSG_NOSIGNAL); false if the peer vanished.
bool send_all(const Fd& fd, const std::string& data);

/// Buffered reader of '\n'-terminated lines.
class LineReader {
 public:
  explicit LineReader(const Fd& fd, std::size_t max_line = kMaxLineBytes)
      : fd_(fd), max_line_(max_line) {}

  /// Reads the next line into *line (newline stripped). False on EOF,
  /// read error, or a line exceeding max_line (the connection is then
  /// unusable — framing is lost).
  bool next(std::string* line);

 private:
  const Fd& fd_;
  std::size_t max_line_;
  std::string buf_;
};

}  // namespace pas::serve
