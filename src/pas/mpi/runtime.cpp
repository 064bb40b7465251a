#include "pas/mpi/runtime.hpp"

#include <exception>
#include <future>
#include <stdexcept>

#include "pas/obs/metrics.hpp"
#include "pas/util/format.hpp"

namespace pas::mpi {

double RunResult::total_cpu_seconds() const {
  double t = 0.0;
  for (const RankReport& r : ranks) t += r.cpu_seconds;
  return t;
}

double RunResult::total_memory_seconds() const {
  double t = 0.0;
  for (const RankReport& r : ranks) t += r.memory_seconds;
  return t;
}

double RunResult::total_network_seconds() const {
  double t = 0.0;
  for (const RankReport& r : ranks) t += r.network_seconds;
  return t;
}

double RunResult::total_busy_seconds() const {
  return total_cpu_seconds() + total_memory_seconds();
}

double RunResult::mean_network_seconds() const {
  if (ranks.empty()) return 0.0;
  return total_network_seconds() / static_cast<double>(ranks.size());
}

std::string RunResult::to_string() const {
  return pas::util::strf(
      "N=%d f=%.0fMHz: T=%.4fs (cpu %.4f, mem %.4f, net %.4f per-rank mean)",
      nranks, frequency_mhz,
      makespan,
      nranks ? total_cpu_seconds() / nranks : 0.0,
      nranks ? total_memory_seconds() / nranks : 0.0,
      mean_network_seconds());
}

Runtime::Runtime(sim::ClusterConfig cfg)
    : cfg_(std::move(cfg)), cluster_(cfg_), rank_pool_(cfg_.num_nodes) {
  mailboxes_.reserve(static_cast<std::size_t>(cfg_.num_nodes));
  for (int i = 0; i < cfg_.num_nodes; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  // On deadlock the monitor wakes every blocked receiver so each rank
  // unwinds with its own DeadlockError (notify needs no mailbox lock).
  monitor_.set_wake_all([this] {
    for (auto& mb : mailboxes_) mb->wake();
  });
}

std::exception_ptr Runtime::pick_error(
    const std::vector<std::exception_ptr>& errors) {
  std::exception_ptr primary, deadlock;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    bool is_deadlock = false;
    try {
      std::rethrow_exception(e);
    } catch (const DeadlockError&) {
      is_deadlock = true;
    } catch (...) {
    }
    if (!is_deadlock) {
      if (!primary) primary = e;
    } else if (!deadlock) {
      deadlock = e;
    }
  }
  return primary ? primary : deadlock;
}

RunResult Runtime::run(int nranks, double frequency_mhz, const RankBody& body) {
  if (nranks < 1 || nranks > cfg_.num_nodes)
    throw std::invalid_argument(pas::util::strf(
        "nranks=%d out of range [1, %d]", nranks, cfg_.num_nodes));

  static obs::Counter& runs = obs::registry().counter("mpi.runs");
  runs.add();

  cluster_.reset();
  cluster_.set_frequency_mhz(frequency_mhz);
  for (auto& mb : mailboxes_) {
    if (mb->pending() != 0) {
      // An aborted run legitimately strands undelivered messages; a
      // *successful* run that leaves some is still a bug in the body.
      if (!last_run_failed_)
        throw std::logic_error("stale messages from a previous run");
      mb->clear();
    }
  }

  const fault::FaultPlan plan(cfg_.fault, nranks, fault_attempt_);
  if (plan.active()) {
    for (int r = 0; r < nranks; ++r)
      cluster_.node(r).cpu.set_perf_scale(plan.speed_factor(r));
  }
  monitor_.begin_run(nranks);

  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    comms.push_back(
        std::unique_ptr<Comm>(new Comm(*this, r, nranks, plan.rank_faults(r))));

  // Every rank must hold a worker for the whole run (ranks block on
  // each other through mailboxes and collectives), so the pool needs
  // one worker per rank before any body starts.
  rank_pool_.ensure_workers(nranks);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::future<void>> done;
  done.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    done.push_back(rank_pool_.submit([&, r] {
      try {
        body(*comms[static_cast<std::size_t>(r)]);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      // Registered in both outcomes: a finished or aborted rank can
      // complete a deadlock among the survivors.
      monitor_.end_rank(r);
    }));
  }
  for (std::future<void>& f : done) f.get();
  if (std::exception_ptr e = pick_error(errors)) {
    last_run_failed_ = true;
    std::rethrow_exception(e);
  }
  last_run_failed_ = false;

  RunResult result;
  result.nranks = nranks;
  result.frequency_mhz = frequency_mhz;
  result.fabric_bytes = cluster_.fabric().total_bytes();
  result.fabric_messages = cluster_.fabric().total_messages();
  result.ranks.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const sim::NodeState& node = cluster_.node(r);
    RankReport report;
    report.rank = r;
    report.finish_time = node.clock.now();
    report.cpu_seconds = node.clock.seconds_in(sim::Activity::kCpu);
    report.memory_seconds = node.clock.seconds_in(sim::Activity::kMemory);
    report.network_seconds = node.clock.seconds_in(sim::Activity::kNetwork);
    report.idle_seconds = node.clock.seconds_in(sim::Activity::kIdle);
    report.executed = node.executed;
    report.comm = comms[static_cast<std::size_t>(r)]->stats();
    report.activity_by_fkey = node.activity_by_fkey;
    result.makespan = std::max(result.makespan, report.finish_time);
    result.ranks.push_back(report);
  }

  return result;
}

}  // namespace pas::mpi
