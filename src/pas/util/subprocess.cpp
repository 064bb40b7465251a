#include "pas/util/subprocess.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pas/util/log.hpp"

namespace pas::util {
namespace {

/// A pidfd for `pid` (readable once it exits; close-on-exec), or -1
/// on kernels without pidfd_open (< 5.3).
int open_exit_fd(pid_t pid) {
#ifdef SYS_pidfd_open
  const long fd = ::syscall(SYS_pidfd_open, pid, 0);
  return fd >= 0 ? static_cast<int>(fd) : -1;
#else
  (void)pid;
  return -1;
#endif
}

}  // namespace

Wakeup::Wakeup() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}

Wakeup::~Wakeup() {
  if (fd_ >= 0) ::close(fd_);
}

void Wakeup::notify() {
  if (fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof one);
}

std::string Subprocess::Result::describe() const {
  if (!started) return "failed to start: " + error;
  std::ostringstream out;
  if (timed_out) {
    out << "timed out (killed by supervisor)";
    return out.str();
  }
  if (signaled) {
    out << "killed by signal " << term_signal;
    const char* name = ::strsignal(term_signal);
    if (name != nullptr) out << " (" << name;
    if (term_signal == SIGKILL) out << (name ? "; possibly the OOM killer" : "");
    if (name != nullptr) out << ")";
    return out.str();
  }
  if (exited) {
    out << "exited " << exit_code;
    return out.str();
  }
  return "still running";
}

Subprocess::Handle::Handle(Handle&& other) noexcept
    : pid_(other.pid_), exit_fd_(other.exit_fd_), reaped_(other.reaped_),
      result_(std::move(other.result_)) {
  other.pid_ = -1;
  other.exit_fd_ = -1;
  other.reaped_ = false;
}

Subprocess::Handle& Subprocess::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    if (running()) {
      kill(SIGKILL);
      wait();
    }
    close_exit_fd();
    pid_ = other.pid_;
    exit_fd_ = other.exit_fd_;
    reaped_ = other.reaped_;
    result_ = std::move(other.result_);
    other.pid_ = -1;
    other.exit_fd_ = -1;
    other.reaped_ = false;
  }
  return *this;
}

Subprocess::Handle::~Handle() {
  if (running()) {
    kill(SIGKILL);
    wait();
  }
  close_exit_fd();
}

void Subprocess::Handle::close_exit_fd() {
  if (exit_fd_ >= 0) ::close(exit_fd_);
  exit_fd_ = -1;
}

bool Subprocess::Handle::poll() { return reap(WNOHANG); }

bool Subprocess::Handle::reap(int flags) {
  if (reaped_ || pid_ <= 0) return reaped_;
  int status = 0;
  pid_t got = 0;
  do {
    got = ::waitpid(pid_, &status, flags);
  } while (got < 0 && errno == EINTR);
  if (got == 0) return false;
  reaped_ = true;
  close_exit_fd();
  if (got < 0) {
    // ECHILD etc.: we cannot classify the exit; report it as a crash so
    // the supervisor retries rather than trusting a phantom success.
    result_.signaled = true;
    result_.term_signal = SIGKILL;
    return true;
  }
  if (WIFEXITED(status)) {
    result_.exited = true;
    result_.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result_.signaled = true;
    result_.term_signal = WTERMSIG(status);
  }
  return true;
}

Subprocess::Result Subprocess::Handle::wait(double timeout_s) {
  if (timeout_s <= 0.0) {
    reap(0);
    return result_;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!poll()) {
    const double left = std::chrono::duration<double>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
    if (left <= 0.0) {
      kill(SIGKILL);
      reap(0);
      result_.timed_out = true;
      return result_;
    }
    wait_any({this}, left);
  }
  return result_;
}

void Subprocess::wait_any(const std::vector<const Handle*>& children,
                          double timeout_s, Wakeup* wake,
                          const std::vector<int>& extra) {
  std::vector<pollfd> fds;
  for (const int fd : extra) fds.push_back(pollfd{fd, POLLIN, 0});
  bool blind = false;  // something without a descriptor: poll it
  for (const Handle* h : children) {
    if (!h->running()) continue;
    if (h->exit_fd_ >= 0)
      fds.push_back(pollfd{h->exit_fd_, POLLIN, 0});
    else
      blind = true;
  }
  if (wake != nullptr) {
    if (wake->fd_ >= 0)
      fds.push_back(pollfd{wake->fd_, POLLIN, 0});
    else
      blind = true;
  }
  int ms = -1;
  if (timeout_s >= 0.0)
    ms = static_cast<int>(std::ceil(std::min(timeout_s, 86400.0) * 1e3));
  if (blind) ms = (ms < 0) ? 1 : std::min(ms, 1);
  ::poll(fds.data(), static_cast<nfds_t>(fds.size()), ms);
  if (wake != nullptr && wake->fd_ >= 0) {
    std::uint64_t rung = 0;  // drain: the next wait sleeps again
    [[maybe_unused]] const ssize_t n = ::read(wake->fd_, &rung, sizeof rung);
  }
}

void Subprocess::Handle::kill(int sig) const {
  if (pid_ > 0 && !reaped_) ::kill(pid_, sig);
}

Subprocess::Handle Subprocess::spawn(std::function<int()> body) {
  Handle h;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    h.reaped_ = true;
    h.result_.error = std::strerror(errno);
    return h;
  }
  if (pid == 0) {
    // Die with the forking thread: a SIGKILLed supervisor must not leave
    // its children running unsupervised. A parent that died before the
    // prctl already re-parented this child, so check once by hand and
    // die the same way.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::raise(SIGKILL);
    int code = 125;
    try {
      code = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "subprocess body threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "subprocess body threw a non-std exception\n");
    }
    // _exit, not exit: the child shares the parent's atexit handlers and
    // stdio buffers; running them here would double-flush or deadlock.
    std::fflush(nullptr);
    _exit(code);
  }
  h.pid_ = pid;
  h.exit_fd_ = open_exit_fd(pid);
  h.result_.started = true;
  return h;
}

Subprocess::Result Subprocess::call(std::function<int()> body,
                                    double timeout_s) {
  Handle h = spawn(std::move(body));
  return h.wait(timeout_s);
}

// ---- WorkerPool ----------------------------------------------------------
//
// The pool and its zygote talk over a SOCK_SEQPACKET pair in fixed-size
// messages. A worker's socket carries length-prefixed requests one way
// and a one-byte "done" the other.

namespace {

enum Op : std::int32_t {
  kSpawn,        ///< pool -> zygote: fork worker `worker`
  kKill,         ///< pool -> zygote: SIGKILL worker `worker`
  kSpawned,      ///< zygote -> pool: `worker` is pid `value`; socket attached
  kSpawnFailed,  ///< zygote -> pool: no worker; `value` is the errno
  kExited,       ///< zygote -> pool: `worker` ended; `value` from encode_exit
};

struct Msg {
  std::int32_t op = 0;
  std::int32_t worker = -1;
  std::int32_t value = 0;
};

constexpr char kDone = 'D';

/// A reaped worker's end in one int: its exit code, or minus its signal.
std::int32_t encode_exit(const Subprocess::Result& r) {
  return r.exited ? r.exit_code : -r.term_signal;
}

Subprocess::Result decode_exit(std::int32_t code) {
  Subprocess::Result r;
  r.started = true;
  r.exited = code >= 0;
  r.exit_code = code >= 0 ? code : -1;
  r.signaled = code < 0;
  r.term_signal = code < 0 ? -code : 0;
  return r;
}

/// Sends `m`, attaching descriptor `pass` when it is >= 0.
bool send_msg(int sock, const Msg& m, int pass = -1) {
  iovec iov{const_cast<Msg*>(&m), sizeof m};
  msghdr h{};
  h.msg_iov = &iov;
  h.msg_iovlen = 1;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  if (pass >= 0) {
    h.msg_control = control;
    h.msg_controllen = sizeof control;
    cmsghdr* c = CMSG_FIRSTHDR(&h);
    c->cmsg_level = SOL_SOCKET;
    c->cmsg_type = SCM_RIGHTS;
    c->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(c), &pass, sizeof(int));
  }
  ssize_t n = 0;
  do {
    n = ::sendmsg(sock, &h, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  return n == static_cast<ssize_t>(sizeof m);
}

enum class Got { kMsg, kNone, kClosed };

/// Receives one message (and the descriptor it carries into *fd, when
/// `fd` is non-null). kNone: nothing waiting under MSG_DONTWAIT.
Got recv_msg(int sock, Msg* m, int* fd, int flags) {
  iovec iov{m, sizeof *m};
  msghdr h{};
  h.msg_iov = &iov;
  h.msg_iovlen = 1;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  h.msg_control = control;
  h.msg_controllen = sizeof control;
  ssize_t n = 0;
  do {
    n = ::recvmsg(sock, &h, flags | MSG_CMSG_CLOEXEC);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Got::kNone;
  if (n != static_cast<ssize_t>(sizeof *m)) return Got::kClosed;
  for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_RIGHTS) continue;
    int got = -1;
    std::memcpy(&got, CMSG_DATA(c), sizeof got);
    if (fd != nullptr)
      *fd = got;
    else
      ::close(got);
  }
  return Got::kMsg;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Closes every descriptor above stderr but `keep`, so that a zygote or
/// a worker holds no socket or file that another owner's close must
/// reach: a pool's socket, a listener, a journal and its flock.
void close_fds_except(int keep) {
#ifdef SYS_close_range
  if (keep > 3) ::syscall(SYS_close_range, 3u, keep - 1u, 0u);
  ::syscall(SYS_close_range, static_cast<unsigned>(std::max(keep + 1, 3)),
            ~0u, 0u);
#else
  for (int fd = 3; fd < 1024; ++fd)
    if (fd != keep) ::close(fd);
#endif
}

/// A worker's life: run the body on each request until the pool closes
/// the socket.
int serve_requests(int sock, const WorkerPool::Body& body) {
  for (;;) {
    std::uint64_t size = 0;
    if (!read_all(sock, reinterpret_cast<char*>(&size), sizeof size)) return 0;
    std::string request(size, '\0');
    if (!read_all(sock, request.data(), request.size())) return 0;
    body(request);
    std::fflush(nullptr);
    if (!write_all(sock, &kDone, 1)) return 0;
  }
}

/// The zygote's life: fork, kill and reap workers on the pool's word,
/// and report every exit. When the pool closes its socket, SIGKILL and
/// reap the workers (the Handle destructors) and exit.
int zygote_main(int ctl, const WorkerPool::Body& body) {
  std::map<int, Subprocess::Handle> workers;
  for (;;) {
    for (auto it = workers.begin(); it != workers.end();) {
      if (!it->second.poll()) {
        ++it;
        continue;
      }
      send_msg(ctl, Msg{kExited, it->first, encode_exit(it->second.result())});
      it = workers.erase(it);
    }
    Msg m;
    const Got got = recv_msg(ctl, &m, nullptr, MSG_DONTWAIT);
    if (got == Got::kClosed) return 0;
    if (got == Got::kNone) {
      std::vector<const Subprocess::Handle*> live;
      for (const auto& [id, h] : workers) live.push_back(&h);
      Subprocess::wait_any(live, -1.0, nullptr, {ctl});
      continue;
    }
    if (m.op == kKill) {
      const auto it = workers.find(m.worker);
      if (it != workers.end()) it->second.kill(SIGKILL);
      continue;
    }
    if (m.op != kSpawn) continue;
    int pair[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
      send_msg(ctl, Msg{kSpawnFailed, m.worker, errno});
      continue;
    }
    Subprocess::Handle h = Subprocess::spawn([&]() -> int {
      close_fds_except(pair[1]);
      return serve_requests(pair[1], body);
    });
    const int err = errno;
    ::close(pair[1]);
    if (h.running()) {
      send_msg(ctl, Msg{kSpawned, m.worker, h.pid()}, pair[0]);
      workers.emplace(m.worker, std::move(h));
    } else {
      send_msg(ctl, Msg{kSpawnFailed, m.worker, err});
    }
    ::close(pair[0]);
  }
}

}  // namespace

WorkerPool::WorkerPool(Body body) {
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, pair) != 0)
    throw std::runtime_error(std::string("worker pool: socketpair: ") +
                             std::strerror(errno));
  // Flush first: the zygote and its workers inherit stdio buffers.
  std::fflush(nullptr);
  zygote_ = Subprocess::spawn([&pair, &body]() -> int {
    close_fds_except(pair[1]);
    return zygote_main(pair[1], body);
  });
  ::close(pair[1]);
  if (!zygote_.running()) {
    ::close(pair[0]);
    throw std::runtime_error("worker pool: cannot fork the zygote: " +
                             zygote_.result().error);
  }
  ctl_ = pair[0];
}

WorkerPool::~WorkerPool() {
  for (const Worker& w : workers_) ::close(w.fd);
  if (ctl_ >= 0) ::close(ctl_);
  zygote_.wait();
}

int WorkerPool::submit(const std::string& request) {
  pump();  // prune workers that died idle
  const int job = next_job_++;
  Worker* w = nullptr;
  for (Worker& candidate : workers_)
    if (candidate.job < 0 && !candidate.hup) {
      w = &candidate;
      break;
    }
  std::string error;
  if (w == nullptr) w = start_worker(&error);
  if (w == nullptr) {
    Event e;
    e.job = job;
    e.result.error = error;
    ended_.push_back(std::move(e));
    return job;
  }
  w->job = job;
  // A worker that dies before it reads the request fails this write or
  // not; either way the zygote's exit report ends the job.
  const std::uint64_t size = request.size();
  if (write_all(w->fd, reinterpret_cast<const char*>(&size), sizeof size))
    write_all(w->fd, request.data(), request.size());
  return job;
}

WorkerPool::Worker* WorkerPool::start_worker(std::string* error) {
  const int id = next_worker_++;
  if (ctl_ < 0 || !send_msg(ctl_, Msg{kSpawn, id, 0})) {
    zygote_gone();
    *error = "the worker zygote has exited";
    return nullptr;
  }
  for (;;) {
    Msg m;
    int fd = -1;
    if (recv_msg(ctl_, &m, &fd, 0) != Got::kMsg) {
      zygote_gone();
      *error = "the worker zygote has exited";
      return nullptr;
    }
    if (m.op == kExited) {
      on_exit(m.worker, m.value);
    } else if (m.worker == id && m.op == kSpawnFailed) {
      *error = std::strerror(m.value);
      return nullptr;
    } else if (m.worker == id && m.op == kSpawned && fd >= 0) {
      Worker& w = workers_.emplace_back();
      w.id = id;
      w.fd = fd;
      return &w;
    } else if (fd >= 0) {
      ::close(fd);
    }
  }
}

void WorkerPool::on_exit(int id, int code) {
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if (it->id != id) continue;
    if (it->job >= 0) {
      Event e;
      e.job = it->job;
      // Its "done" may have landed after this pool last looked.
      char c = 0;
      e.done = !it->hup && ::recv(it->fd, &c, 1, MSG_DONTWAIT) == 1;
      if (!e.done) e.result = decode_exit(code);
      ended_.push_back(std::move(e));
    }
    ::close(it->fd);
    workers_.erase(it);
    return;
  }
}

void WorkerPool::zygote_gone() {
  if (ctl_ < 0) return;
  ::close(ctl_);
  ctl_ = -1;
  zygote_.wait();
  log_warn("worker pool: the zygote " + zygote_.result().describe() +
           "; no worker can be started");
  for (const Worker& w : workers_) {
    if (w.job >= 0) {
      // PR_SET_PDEATHSIG took them with the zygote.
      Event e;
      e.job = w.job;
      e.result = decode_exit(-SIGKILL);
      ended_.push_back(std::move(e));
    }
    ::close(w.fd);
  }
  workers_.clear();
}

void WorkerPool::kill(int job) {
  for (const Worker& w : workers_)
    if (w.job == job && ctl_ >= 0) send_msg(ctl_, Msg{kKill, w.id, 0});
}

void WorkerPool::wait(double timeout_s, Wakeup* wake) {
  if (!ended_.empty()) return;
  std::vector<int> fds;
  if (ctl_ >= 0) fds.push_back(ctl_);
  for (const Worker& w : workers_)
    if (w.job >= 0 && !w.hup) fds.push_back(w.fd);
  Subprocess::wait_any({}, timeout_s, wake, fds);
}

std::vector<WorkerPool::Event> WorkerPool::poll() {
  pump();
  return std::exchange(ended_, {});
}

void WorkerPool::pump() {
  for (Worker& w : workers_) {
    if (w.job < 0 || w.hup) continue;
    char c = 0;
    const ssize_t n = ::recv(w.fd, &c, 1, MSG_DONTWAIT);
    if (n == 1) {
      Event e;
      e.job = w.job;
      e.done = true;
      ended_.push_back(std::move(e));
      w.job = -1;
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      w.hup = true;  // dead or dying: its exit report ends the job
    }
  }
  while (ctl_ >= 0) {
    Msg m;
    const Got got = recv_msg(ctl_, &m, nullptr, MSG_DONTWAIT);
    if (got == Got::kNone) break;
    if (got == Got::kClosed) {
      zygote_gone();
      break;
    }
    if (m.op == kExited) on_exit(m.worker, m.value);
  }
}

}  // namespace pas::util
