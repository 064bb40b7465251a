// ColumnSupervisor — the crash policy for sweep columns run in forked
// workers (DESIGN.md §12), shared by `--isolate` and pasim_serve.
//
// launch() forks an attempt at the members of a column the journal
// index lacks; the child runs the caller's body on them and reports
// through the shared journal. The supervisor owns only the live
// children: wait() sleeps on their exits, the caller's doorbell and
// its nearest timer, and reap() SIGKILLs a child at its deadline and
// harvests each exit with one refresh() (plus repair_tail() when the
// column is incomplete: a dead child may have torn the tail frame). It
// reports the column complete, due for a retry after
// fault::backoff_s(0.05, attempt), or given up. Queues, resume and
// fail-soft records stay with the callers.
//
// Fork safety: launch() forks on the calling thread. The supervisor
// registers no metric; it bumps counters the caller resolved before
// any fork.
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
    int attempts = 0;               ///< forks so far
    double not_before = 0.0;        ///< retry gate, in now() seconds
  };

  struct Policy {
    std::string name;  ///< log-line prefix
    double timeout_s;  ///< wall-clock deadline of one attempt
    int retries;       ///< re-forks before a column is given up
  };

  /// Counters bumped per incomplete exit, and per retry granted.
  struct Counters {
    obs::Counter& crashes;
    obs::Counter& timeouts;
    obs::Counter& retries;
  };

  /// Runs in the child on the members still to do; the child exits 0
  /// when it returns.
  using Body =
      std::function<void(const std::vector<SweepExecutor::Point>& pending)>;

  enum class Outcome { kComplete, kRetry, kGaveUp };

  struct Exit {
    std::shared_ptr<Column> column;
    Outcome outcome = Outcome::kComplete;
    /// How the child ended; timed_out when the supervisor killed it.
    util::Subprocess::Result result;
    double elapsed_s = 0.0;  ///< fork to reap
  };

  /// Throws std::runtime_error naming the path and errno when `journal`
  /// could not be created: workers report through nothing else.
  ColumnSupervisor(SweepJournal& journal, Policy policy, Counters counters);

  ColumnSupervisor(const ColumnSupervisor&) = delete;
  ColumnSupervisor& operator=(const ColumnSupervisor&) = delete;

  /// The clock of deadlines and not_before gates (steady, in seconds).
  static double now();

  /// True when the journal index holds every member of `col`.
  bool complete(const Column& col) const;

  /// Forks an attempt at the members of `col` the journal index lacks.
  /// Forks nothing and returns false when it lacks none.
  bool launch(std::shared_ptr<Column> col, const Body& body);

  /// Sleeps until a child exits, `wake` rings, a live deadline passes or
  /// `wake_at` (now() seconds; < 0 for none) comes due.
  void wait(double wake_at, util::Wakeup* wake = nullptr);

  /// SIGKILLs children past their deadline, and reaps and harvests
  /// every child that has exited. Never blocks.
  std::vector<Exit> reap();

  /// SIGKILLs and reaps every live child, harvests the journal once and
  /// returns their columns (a stop drain). Counts nothing.
  std::vector<std::shared_ptr<Column>> kill_all();

  std::size_t live() const { return live_.size(); }

 private:
  struct Child {
    util::Subprocess::Handle handle;
    std::shared_ptr<Column> column;
    double t0 = 0.0;
    double deadline = 0.0;
    bool timed_out = false;  ///< killed by us at the deadline
  };

  SweepJournal& journal_;
  Policy policy_;
  Counters counters_;
  std::vector<Child> live_;
};

}  // namespace pas::analysis
