#include "pas/util/subprocess.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
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
#include <sstream>

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
                          double timeout_s, Wakeup* wake) {
  std::vector<pollfd> fds;
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

}  // namespace pas::util
