#include "pas/serve/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "pas/util/format.hpp"

namespace pas::serve {
namespace {

[[noreturn]] void raise_errno(const std::string& what) {
  throw std::runtime_error(
      util::strf("%s: %s", what.c_str(), std::strerror(errno)));
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error(util::strf(
        "unix socket path \"%s\" exceeds the %zu-byte sun_path limit",
        path.c_str(), sizeof(addr.sun_path) - 1));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error(
        util::strf("\"%s\" is not an IPv4 address", host.c_str()));
  return addr;
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

Fd::~Fd() { reset(); }

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Fd listen_unix(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) raise_errno("socket(AF_UNIX)");
  // A server that died uncleanly leaves its socket file behind;
  // binding over it needs the unlink first.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    raise_errno(util::strf("bind(%s)", path.c_str()));
  if (::listen(fd.get(), 64) != 0)
    raise_errno(util::strf("listen(%s)", path.c_str()));
  return fd;
}

Fd listen_tcp(int port, int* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) raise_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = make_tcp_addr("127.0.0.1", port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    raise_errno(util::strf("bind(127.0.0.1:%d)", port));
  if (::listen(fd.get(), 64) != 0)
    raise_errno(util::strf("listen(127.0.0.1:%d)", port));
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0)
      raise_errno("getsockname");
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

Fd connect_unix(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) raise_errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    throw ConnectError(
        util::strf("connect(%s): %s", path.c_str(), std::strerror(err)), err);
  }
  return fd;
}

Fd connect_tcp(const std::string& host, int port) {
  const sockaddr_in addr = make_tcp_addr(host, port);
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) raise_errno("socket(AF_INET)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    throw ConnectError(util::strf("connect(%s:%d): %s", host.c_str(), port,
                                  std::strerror(err)),
                       err);
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Fd accept_with_timeout(const Fd& listener, double timeout_s) {
  pollfd pfd{listener.get(), POLLIN, 0};
  const int ms = static_cast<int>(timeout_s * 1000.0);
  const int n = ::poll(&pfd, 1, ms);
  if (n == 0) return Fd();
  if (n < 0) {
    if (errno == EINTR) return Fd();
    raise_errno("poll(listener)");
  }
  const int conn = ::accept(listener.get(), nullptr, nullptr);
  if (conn < 0) {
    // The peer can abort between poll and accept; that is its
    // problem, not the accept loop's.
    if (errno == ECONNABORTED || errno == EINTR || errno == EAGAIN ||
        errno == EINVAL)
      return Fd();
    raise_errno("accept");
  }
  return Fd(conn);
}

bool send_all(const Fd& fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd.get(), data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineReader::next(std::string* line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (buf_.size() > max_line_) return false;  // framing lost
    char chunk[65536];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace pas::serve
