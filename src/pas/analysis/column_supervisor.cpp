#include "pas/analysis/column_supervisor.hpp"

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "pas/fault/fault.hpp"
#include "pas/util/format.hpp"
#include "pas/util/log.hpp"

namespace pas::analysis {

ColumnSupervisor::ColumnSupervisor(SweepJournal& journal, Policy policy,
                                   Counters counters)
    : journal_(journal), policy_(std::move(policy)), counters_(counters) {
  if (const int err = journal_.create_error())
    throw std::runtime_error(util::strf(
        "%s: cannot create the sweep journal %s: %s (errno %d); column "
        "workers report only through it",
        policy_.name.c_str(), journal_.path().c_str(), std::strerror(err),
        err));
}

double ColumnSupervisor::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ColumnSupervisor::complete(const Column& col) const {
  for (const std::string& key : col.keys)
    if (!journal_.find(key)) return false;
  return true;
}

bool ColumnSupervisor::launch(std::shared_ptr<Column> col, const Body& body) {
  // The index is current as of the last harvest, so a retry resumes
  // past its predecessor's points without the child reading the journal.
  std::vector<SweepExecutor::Point> pending;
  for (std::size_t i = 0; i < col->keys.size(); ++i)
    if (!journal_.find(col->keys[i])) pending.push_back(col->points[i]);
  if (pending.empty()) return false;
  ++col->attempts;
  Child c;
  // fork without exec: the child builds a fresh executor (the parent's
  // pool threads do not survive a fork) and reports through the journal.
  c.handle = util::Subprocess::spawn([&body, &pending]() -> int {
    body(pending);
    return 0;
  });
  c.column = std::move(col);
  c.t0 = now();
  c.deadline = c.t0 + policy_.timeout_s;
  live_.push_back(std::move(c));
  return true;
}

void ColumnSupervisor::wait(double wake_at, util::Wakeup* wake) {
  std::vector<const util::Subprocess::Handle*> children;
  for (const Child& c : live_) {
    children.push_back(&c.handle);
    if (!c.timed_out && (wake_at < 0.0 || c.deadline < wake_at))
      wake_at = c.deadline;
  }
  util::Subprocess::wait_any(
      children, wake_at < 0.0 ? -1.0 : std::max(0.0, wake_at - now()), wake);
}

std::vector<ColumnSupervisor::Exit> ColumnSupervisor::reap() {
  std::vector<Exit> exits;
  for (auto it = live_.begin(); it != live_.end();) {
    if (!it->handle.poll()) {
      if (!it->timed_out && now() > it->deadline) {
        it->timed_out = true;
        it->handle.kill(SIGKILL);
      }
      ++it;
      continue;
    }
    Exit& e = exits.emplace_back();
    e.column = std::move(it->column);
    e.result = it->handle.result();
    e.result.timed_out = e.result.timed_out || it->timed_out;
    e.elapsed_s = now() - it->t0;
    it = live_.erase(it);

    // Harvest whatever the child journaled: a crashed worker's completed
    // points survive, only its in-flight work is lost.
    journal_.refresh();
    if (complete(*e.column)) continue;
    Column& col = *e.column;
    (e.result.timed_out ? counters_.timeouts : counters_.crashes).add();
    // The dead child may have left a torn frame; appending after it would
    // hide every later record, so repair before anyone writes there. Safe
    // against live writers: repair holds the journal flock, and anything
    // past the last good frame is unreachable garbage by definition.
    journal_.repair_tail();
    if (col.attempts <= policy_.retries) {
      counters_.retries.add();
      // Same doubling policy as message-send retries (pas::fault), at
      // supervisor scale: 50 ms base.
      const double backoff = fault::backoff_s(0.05, col.attempts - 1);
      col.not_before = now() + backoff;
      e.outcome = Outcome::kRetry;
      util::log_warn(util::strf(
          "%s: %s column worker %s; retrying in %.0f ms (attempt %d/%d)",
          policy_.name.c_str(), col.label.c_str(), e.result.describe().c_str(),
          backoff * 1e3, col.attempts + 1, policy_.retries + 1));
    } else {
      e.outcome = Outcome::kGaveUp;
      util::log_warn(util::strf(
          "%s: %s column worker %s after %d attempt(s); its unfinished "
          "points fail soft as %s",
          policy_.name.c_str(), col.label.c_str(), e.result.describe().c_str(),
          col.attempts, e.result.timed_out ? "timeout" : "crashed"));
    }
  }
  return exits;
}

std::vector<std::shared_ptr<ColumnSupervisor::Column>>
ColumnSupervisor::kill_all() {
  std::vector<std::shared_ptr<Column>> columns;
  if (live_.empty()) return columns;
  for (Child& c : live_) {
    c.handle.kill(SIGKILL);
    c.handle.wait();
    columns.push_back(std::move(c.column));
  }
  live_.clear();
  journal_.refresh();
  journal_.repair_tail();
  return columns;
}

}  // namespace pas::analysis
