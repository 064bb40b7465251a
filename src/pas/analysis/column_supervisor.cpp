#include "pas/analysis/column_supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "pas/fault/fault.hpp"
#include "pas/util/format.hpp"
#include "pas/util/json.hpp"
#include "pas/util/log.hpp"

namespace pas::analysis {
namespace {

SweepJournal& require_created(SweepJournal& journal, const std::string& name) {
  if (const int err = journal.create_error())
    throw std::runtime_error(util::strf(
        "%s: cannot create the sweep journal %s: %s (errno %d); column "
        "workers report only through it",
        name.c_str(), journal.path().c_str(), std::strerror(err), err));
  return journal;
}

/// What a worker receives for one attempt: the column's context, its
/// pending members and the journal's crash trigger. A worker outlives
/// the attempt, so it re-arms the trigger from each request rather
/// than inheriting it at fork (a test-only hook, 0 in production).
std::string encode_request(const std::string& context,
                           const std::vector<SweepExecutor::Point>& pending) {
  util::Json j = util::Json::object();
  j.set("context", util::Json(context));
  util::Json& points = j.set("points", util::Json::array());
  for (const SweepExecutor::Point& p : pending) {
    util::Json& point = points.push_back(util::Json::array());
    point.push_back(util::Json(p.nodes));
    point.push_back(util::Json(p.frequency_mhz));
    point.push_back(util::Json(p.comm_dvfs_mhz));
  }
  j.set("crash_after_appends",
        util::Json(SweepJournal::crash_after_appends()));
  return j.dump();
}

void run_request(const ColumnSupervisor::Body& body,
                 const std::string& request) {
  const util::Json j = util::Json::parse(request);
  SweepJournal::set_crash_after_appends(
      static_cast<long>(j.find("crash_after_appends")->as_number()));
  std::vector<SweepExecutor::Point> pending;
  for (const util::Json& p : j.find("points")->items())
    pending.push_back(SweepExecutor::Point{
        static_cast<int>(p.items()[0].as_number()), p.items()[1].as_number(),
        p.items()[2].as_number()});
  body(j.find("context")->as_string(), pending);
}

}  // namespace

ColumnSupervisor::ColumnSupervisor(SweepJournal& journal, Policy policy,
                                   Counters counters, Body body)
    : journal_(require_created(journal, policy.name)),
      policy_(std::move(policy)),
      counters_(counters),
      pool_([body = std::move(body)](const std::string& request) {
        run_request(body, request);
      }) {}

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

bool ColumnSupervisor::launch(std::shared_ptr<Column> col) {
  // The index is current as of the last harvest, so a retry resumes
  // past its predecessor's points without the worker reading the journal.
  std::vector<SweepExecutor::Point> pending;
  for (std::size_t i = 0; i < col->keys.size(); ++i)
    if (!journal_.find(col->keys[i])) pending.push_back(col->points[i]);
  if (pending.empty()) return false;
  ++col->attempts;
  Attempt a;
  a.job = pool_.submit(encode_request(col->context, pending));
  a.column = std::move(col);
  a.t0 = now();
  a.deadline = a.t0 + policy_.timeout_s;
  live_.push_back(std::move(a));
  return true;
}

std::vector<ColumnSupervisor::Attempt>::iterator ColumnSupervisor::attempt(
    int job) {
  return std::find_if(live_.begin(), live_.end(),
                      [job](const Attempt& a) { return a.job == job; });
}

void ColumnSupervisor::wait(double wake_at, util::Wakeup* wake) {
  for (const Attempt& a : live_)
    if (!a.timed_out && (wake_at < 0.0 || a.deadline < wake_at))
      wake_at = a.deadline;
  pool_.wait(wake_at < 0.0 ? -1.0 : std::max(0.0, wake_at - now()), wake);
}

std::vector<ColumnSupervisor::Exit> ColumnSupervisor::reap() {
  const double t = now();
  for (Attempt& a : live_) {
    if (a.timed_out || t <= a.deadline) continue;
    a.timed_out = true;
    pool_.kill(a.job);
  }
  std::vector<Exit> exits;
  const std::vector<util::WorkerPool::Event> ended = pool_.poll();
  if (ended.empty()) return exits;
  // Harvest whatever the workers journaled: a crashed worker's completed
  // points survive, only its in-flight work is lost.
  journal_.refresh();
  for (const util::WorkerPool::Event& ev : ended) {
    const auto it = attempt(ev.job);
    if (it == live_.end()) continue;
    Exit& e = exits.emplace_back();
    e.column = std::move(it->column);
    if (ev.done) {
      e.result.started = e.result.exited = true;
      e.result.exit_code = 0;
    } else {
      e.result = ev.result;
    }
    e.result.timed_out = e.result.timed_out || it->timed_out;
    e.elapsed_s = now() - it->t0;
    live_.erase(it);

    if (complete(*e.column)) continue;
    Column& col = *e.column;
    (e.result.timed_out ? counters_.timeouts : counters_.crashes).add();
    // The dead worker may have left a torn frame; appending after it
    // would hide every later record, so repair before anyone writes
    // there. Safe against live writers: repair holds the journal flock,
    // and anything past the last good frame is unreachable garbage by
    // definition.
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
  for (const Attempt& a : live_) pool_.kill(a.job);
  while (!live_.empty()) {
    for (const util::WorkerPool::Event& ev : pool_.poll()) {
      const auto it = attempt(ev.job);
      if (it == live_.end()) continue;
      columns.push_back(std::move(it->column));
      live_.erase(it);
    }
    if (!live_.empty()) pool_.wait(-1.0);
  }
  journal_.refresh();
  journal_.repair_tail();
  return columns;
}

}  // namespace pas::analysis
