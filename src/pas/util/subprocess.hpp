// util::Subprocess — forked children that run a function, with
// wall-clock timeouts and faithful exit classification.
//
// The column supervisor (analysis::ColumnSupervisor, DESIGN.md §12)
// runs each sweep column in a child so that a segfault, an abort(), an
// OOM kill or a runaway loop costs one column, not the sweep. The
// parent needs to know exactly how a child died, so Result
// distinguishes:
//
//   * exited / exit_code — normal termination,
//   * signaled / term_signal — killed by a signal. SIGKILL a parent
//     did not send is the kernel OOM killer's signature,
//   * timed_out — the parent enforced the deadline with SIGKILL.
//
// spawn(fn) forks WITHOUT exec: the child runs `fn` in a copy of the
// address space and _exit()s with its return value (no atexit
// handlers, no stdio double-flush). Callers must fork from a thread
// that holds no locks shared with running threads — the column
// supervisor forks only on the one thread that drives it.
//
// A child dies with its parent: spawn sets PR_SET_PDEATHSIG to SIGKILL,
// so a SIGKILLed supervisor leaves no worker simulating on. The signal
// follows the forking *thread*, not the process: a thread that exits
// while its children run kills them too. Both callers keep that thread
// alive until their children are reaped — pasim_serve's scheduler
// thread and the thread that called an --isolate sweep.
//
// Waiting is exit-driven: each child comes with a pidfd that turns
// readable the instant it exits, and wait_any() sleeps on any number
// of them plus a Wakeup doorbell until the first of an exit, a
// doorbell ring or a deadline. The column supervisor sleeps there.
#pragma once

#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace pas::util {

/// A doorbell a supervisor waits on together with its children's exits
/// (Subprocess::wait_any): notify() from any thread wakes the waiter,
/// or makes its next wait return at once. Rings coalesce.
class Wakeup {
 public:
  Wakeup();
  ~Wakeup();
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  void notify();

 private:
  friend class Subprocess;
  int fd_ = -1;  ///< eventfd; -1 when none could be created
};

class Subprocess {
 public:
  struct Result {
    bool started = false;   ///< fork succeeded
    bool exited = false;    ///< normal termination
    int exit_code = -1;     ///< valid when exited
    bool signaled = false;  ///< killed by a signal
    int term_signal = 0;    ///< valid when signaled
    bool timed_out = false; ///< parent killed it at the deadline
    std::string error;      ///< errno text of a spawn-level failure

    bool ok() const { return started && exited && exit_code == 0; }
    /// "exited 0", "killed by signal 9 (SIGKILL — possibly the OOM
    /// killer)", "timed out after 30.0s", ...
    std::string describe() const;
  };

  /// A live (or reaped) child. Move-only; destroying a still-running
  /// handle kills (SIGKILL) and reaps the child — a supervisor that
  /// unwinds never leaks orphans.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept;
    Handle& operator=(Handle&& other) noexcept;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle();

    pid_t pid() const { return pid_; }
    bool valid() const { return pid_ > 0 || reaped_; }
    bool running() const { return pid_ > 0 && !reaped_; }

    /// Non-blocking reap attempt; true once the child has been reaped
    /// (result() is then final).
    bool poll();

    /// Blocks until exit, or until `timeout_s` (> 0) elapses — then
    /// SIGKILLs the child, reaps it and marks the result timed_out.
    /// Sleeps on the child's exit (wait_any), not on a polling loop.
    Result wait(double timeout_s = 0.0);

    void kill(int sig) const;

    const Result& result() const { return result_; }

   private:
    friend class Subprocess;
    /// waitpid(`flags`) and classify; true once reaped.
    bool reap(int flags);
    void close_exit_fd();

    pid_t pid_ = -1;
    int exit_fd_ = -1;  ///< pidfd; -1 when the kernel offers none
    bool reaped_ = false;
    Result result_;
  };

  /// Blocks until one of `children` has exited (its poll() then reaps
  /// it), `wake` is notified, or `timeout_s` passes (< 0: no limit) —
  /// whichever comes first. Returns early on a signal; callers re-check
  /// their state and wait again. Children the kernel gives no pidfd
  /// for are polled at a 1 ms interval instead.
  static void wait_any(const std::vector<const Handle*>& children,
                       double timeout_s, Wakeup* wake = nullptr);

  /// Forks a child that runs `body` and _exit()s with its return value
  /// (exceptions are reported on stderr and exit as 125).
  static Handle spawn(std::function<int()> body);

  /// spawn(body) + wait(timeout_s).
  static Result call(std::function<int()> body, double timeout_s = 0.0);
};

}  // namespace pas::util
