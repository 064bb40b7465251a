// ColumnSupervisor — the crash policy for sweep columns run in worker
// processes (DESIGN.md §12), shared by `--isolate` and pasim_serve.
//
// The constructor forks the zygote of a util::WorkerPool on the calling
// thread; every worker is forked by that zygote and runs the caller's
// body for one column after another. launch() sends an idle worker the
// members of a column the journal index lacks, with the column's
// context; the worker runs the body on them and reports through the
// shared journal. The supervisor owns only the columns in flight:
// wait() sleeps on their workers, the caller's doorbell and its nearest
// timer, and reap() SIGKILLs a worker at its deadline and harvests the
// columns that ended with one refresh() (plus repair_tail() when a
// column is incomplete: a dead worker may have torn the tail frame). It
// reports each column complete, due for a retry after
// fault::backoff_s(0.05, attempt), or given up. Queues, resume and
// fail-soft records stay with the callers.
//
// Fork safety: the only fork on the caller's side is the zygote's, in
// the constructor; build the supervisor while no other thread of the
// process can hold a lock its workers need. The supervisor registers
// no metric; it bumps counters the caller resolved before.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pas/analysis/sweep_executor.hpp"
#include "pas/analysis/sweep_journal.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/util/subprocess.hpp"

namespace pas::analysis {

class ColumnSupervisor {
 public:
  /// What the supervisor needs of a column. Callers derive their own
  /// column type from it and get it back from reap() and kill_all().
  struct Column {
    std::vector<SweepExecutor::Point> points;
    std::vector<std::string> keys;  ///< journal key of each point
    std::string label;              ///< names the column in log lines
    /// Sent to the worker with the pending members: what the body runs
    /// them under (serve: the column's SweepSpec document).
    std::string context;
    int attempts = 0;               ///< launches so far
    double not_before = 0.0;        ///< retry gate, in now() seconds
  };

  struct Policy {
    std::string name;  ///< log-line prefix
    double timeout_s;  ///< wall-clock deadline of one attempt
    int retries;       ///< relaunches before a column is given up
  };

  /// Counters bumped per incomplete attempt, and per retry granted.
  struct Counters {
    obs::Counter& crashes;
    obs::Counter& timeouts;
    obs::Counter& retries;
  };

  /// Runs in a worker on a column's context and its members still to
  /// do. A throw ends the worker.
  using Body = std::function<void(
      const std::string& context,
      const std::vector<SweepExecutor::Point>& pending)>;

  enum class Outcome { kComplete, kRetry, kGaveUp };

  struct Exit {
    std::shared_ptr<Column> column;
    Outcome outcome = Outcome::kComplete;
    /// How the attempt ended: "exited 0" when its worker reported done,
    /// else how the worker died (timed_out when the supervisor killed it).
    util::Subprocess::Result result;
    double elapsed_s = 0.0;  ///< launch to harvest
  };

  /// Throws std::runtime_error naming the path and errno when `journal`
  /// could not be created — workers report through nothing else —
  /// before it forks the zygote.
  ColumnSupervisor(SweepJournal& journal, Policy policy, Counters counters,
                   Body body);

  ColumnSupervisor(const ColumnSupervisor&) = delete;
  ColumnSupervisor& operator=(const ColumnSupervisor&) = delete;

  /// The clock of deadlines and not_before gates (steady, in seconds).
  static double now();

  /// True when the journal index holds every member of `col`.
  bool complete(const Column& col) const;

  /// Hands a worker the members of `col` the journal index lacks.
  /// Sends nothing and returns false when it lacks none.
  bool launch(std::shared_ptr<Column> col);

  /// Sleeps until a column may have ended, `wake` rings, a live
  /// deadline passes or `wake_at` (now() seconds; < 0 for none) comes
  /// due.
  void wait(double wake_at, util::Wakeup* wake = nullptr);

  /// SIGKILLs workers past their deadline, and harvests every column
  /// whose attempt ended. Never blocks.
  std::vector<Exit> reap();

  /// SIGKILLs the worker of every column in flight, waits until the
  /// zygote has reaped them, harvests the journal once and returns the
  /// columns (a stop drain). Counts nothing.
  std::vector<std::shared_ptr<Column>> kill_all();

  /// Columns in flight.
  std::size_t live() const { return live_.size(); }

 private:
  struct Attempt {
    int job = -1;
    std::shared_ptr<Column> column;
    double t0 = 0.0;
    double deadline = 0.0;
    bool timed_out = false;  ///< killed by us at the deadline
  };

  /// The attempt running pool job `job`, or live_.end().
  std::vector<Attempt>::iterator attempt(int job);

  SweepJournal& journal_;
  Policy policy_;
  Counters counters_;
  util::WorkerPool pool_;
  std::vector<Attempt> live_;
};

}  // namespace pas::analysis
