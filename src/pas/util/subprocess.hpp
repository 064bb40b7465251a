// util::Subprocess — forked children that run a function, with
// wall-clock timeouts and faithful exit classification — and
// util::WorkerPool, persistent workers forked by one zygote.
//
// The column supervisor (analysis::ColumnSupervisor, DESIGN.md §12)
// runs sweep columns in worker processes so that a segfault, an
// abort(), an OOM kill or a runaway loop costs one column, not the
// sweep. The parent needs to know exactly how a child died, so Result
// distinguishes:
//
//   * exited / exit_code — normal termination,
//   * signaled / term_signal — killed by a signal. SIGKILL a parent
//     did not send is the kernel OOM killer's signature,
//   * timed_out — the parent enforced the deadline with SIGKILL.
//
// spawn(fn) forks WITHOUT exec: the child runs `fn` in a copy of the
// address space and _exit()s with its return value (no atexit
// handlers, no stdio double-flush). A fork copies only the forking
// thread, so a lock another thread held at that instant stays held in
// the child forever: fork from a process with one thread, or from a
// thread whose peers hold nothing the child will need. WorkerPool
// makes that rule cheap to keep: it forks its zygote once, on the
// thread that builds it, and every later fork happens in the
// single-threaded zygote.
//
// A child dies with its parent: spawn sets PR_SET_PDEATHSIG to SIGKILL,
// so a SIGKILLed supervisor leaves no worker simulating on. The signal
// follows the forking *thread*, not the process: a thread that exits
// while its children run kills them too. A pool's workers die with its
// zygote, and the zygote with the thread that built the pool, which
// must outlive it — pasim_serve's main thread and the thread that
// called an --isolate sweep.
//
// Waiting is exit-driven: each child comes with a pidfd that turns
// readable the instant it exits, and wait_any() sleeps on any number
// of them plus a Wakeup doorbell and other descriptors until the first
// of an exit, a doorbell ring, a readable descriptor or a deadline.
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
  /// it), `wake` is notified, one of `extra` turns readable (or hangs
  /// up), or `timeout_s` passes (< 0: no limit) — whichever comes
  /// first. Returns early on a signal; callers re-check their state and
  /// wait again. Children the kernel gives no pidfd for are polled at a
  /// 1 ms interval instead.
  static void wait_any(const std::vector<const Handle*>& children,
                       double timeout_s, Wakeup* wake = nullptr,
                       const std::vector<int>& extra = {});

  /// Forks a child that runs `body` and _exit()s with its return value
  /// (exceptions are reported on stderr and exit as 125).
  static Handle spawn(std::function<int()> body);

  /// spawn(body) + wait(timeout_s).
  static Result call(std::function<int()> body, double timeout_s = 0.0);
};

/// Persistent worker processes behind one zygote (DESIGN.md §12).
///
/// The constructor forks the zygote on the calling thread; from then on
/// only the zygote forks. submit() hands a request to an idle worker,
/// and when none idles the zygote forks one, so a pool holds at most as
/// many workers as it ever had jobs in flight. A worker loops: it reads
/// a request from its socket, runs the body on it and reports done; a
/// job costs no fork. A worker that dies is forked anew on the next
/// job that needs one.
///
/// The zygote reaps its workers and reports each exit, which poll()
/// returns as the end of the job the worker ran, classified like any
/// Subprocess::Result. It also sends the SIGKILLs kill() asks for:
/// as their parent it can never hit a recycled pid. The destructor
/// closes the zygote's socket; the zygote then SIGKILLs and reaps every
/// worker and exits, and the destructor reaps it. Used from one thread.
class WorkerPool {
 public:
  /// Runs in a worker on each request; returning reports the job done.
  /// A throw ends the worker (exit 125).
  using Body = std::function<void(const std::string& request)>;

  /// The end of a job: done, or the death of the worker running it.
  struct Event {
    int job = -1;
    bool done = false;
    /// How the worker ended when !done (started is false when no
    /// worker could be forked for the job).
    Subprocess::Result result;
  };

  /// Forks the zygote. Throws std::runtime_error when it cannot.
  explicit WorkerPool(Body body);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Hands `request` to an idle worker, having the zygote fork one when
  /// none idles, and returns the job's id.
  int submit(const std::string& request);

  /// SIGKILLs the worker running `job`; poll() then reports its death.
  void kill(int job);

  /// Sleeps until a job may have ended, `wake` rings or `timeout_s`
  /// passes (< 0: no limit).
  void wait(double timeout_s, Wakeup* wake = nullptr);

  /// The jobs that ended since the last call. Never blocks.
  std::vector<Event> poll();

  /// Live workers, idle or busy.
  std::size_t workers() const { return workers_.size(); }

 private:
  struct Worker {
    int id = -1;
    int fd = -1;       ///< request/done socket
    int job = -1;      ///< the job it runs; -1 when idle
    bool hup = false;  ///< its socket closed: the exit report is due
  };

  /// Collects "done" replies and the zygote's exit reports into ended_.
  void pump();
  Worker* start_worker(std::string* error);
  /// Handles the zygote's report that worker `id` ended with `code`.
  void on_exit(int id, int code);
  /// The zygote is gone, and its workers with it (PR_SET_PDEATHSIG).
  void zygote_gone();

  int ctl_ = -1;  ///< SOCK_SEQPACKET to the zygote; -1 once it is gone
  Subprocess::Handle zygote_;
  std::vector<Worker> workers_;
  std::vector<Event> ended_;  ///< ended jobs poll() has yet to return
  int next_job_ = 0;
  int next_worker_ = 0;
};

}  // namespace pas::util
