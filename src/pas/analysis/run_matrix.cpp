#include "pas/analysis/run_matrix.hpp"

#include <stdexcept>
#include <utility>

#include "pas/analysis/sampled_estimator.hpp"
#include "pas/util/format.hpp"
#include "pas/util/log.hpp"

namespace pas::analysis {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kDeadlock: return "deadlock";
    case RunStatus::kNodeFailure: return "node-failure";
    case RunStatus::kMessageLoss: return "message-loss";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kCrashed: return "crashed";
  }
  return "?";
}

void MatrixResult::add(RunRecord record) {
  if (!record.failed())
    times.add(record.nodes, record.frequency_mhz, record.seconds);
  index_.emplace(grid_key(record.nodes, record.frequency_mhz),
                 records.size());
  records.push_back(std::move(record));
}

std::vector<const RunRecord*> MatrixResult::failed_points() const {
  std::vector<const RunRecord*> failed;
  for (const RunRecord& r : records) {
    if (r.failed()) failed.push_back(&r);
  }
  return failed;
}

const RunRecord& MatrixResult::at(int nodes, double frequency_mhz) const {
  if (index_.size() != records.size()) {
    // `records` was appended to directly; rebuild the index.
    index_.clear();
    for (std::size_t i = 0; i < records.size(); ++i)
      index_.emplace(grid_key(records[i].nodes, records[i].frequency_mhz), i);
  }
  const auto it = index_.find(grid_key(nodes, frequency_mhz));
  if (it == index_.end())
    throw std::out_of_range(pas::util::strf(
        "MatrixResult: no record at N=%d f=%.0f MHz", nodes, frequency_mhz));
  return records[it->second];
}

std::vector<power::ActivityProfile> activity_profiles(
    const mpi::RunResult& result) {
  std::vector<power::ActivityProfile> profiles;
  profiles.reserve(result.ranks.size());
  for (const mpi::RankReport& r : result.ranks) {
    power::ActivityProfile p;
    p.cpu_s = r.cpu_seconds;
    p.memory_s = r.memory_seconds;
    p.network_s = r.network_seconds;
    p.idle_s = r.idle_seconds;
    profiles.push_back(p);
  }
  return profiles;
}

RunMatrix::RunMatrix(sim::ClusterConfig cluster, power::PowerModel power)
    : cluster_(std::move(cluster)),
      meter_(std::move(power)),
      runtime_(cluster_) {}

RunRecord RunMatrix::run_one(const npb::Kernel& kernel, int nodes,
                             double frequency_mhz, double comm_dvfs_mhz,
                             int fault_attempt, const SamplingPlan& sampling) {
  npb::KernelResult root_result;
  runtime_.set_fault_attempt(fault_attempt);

  npb::IterationCtl ctl;
  sim::SampleProbe probe;
  if (sampling.active()) {
    ctl.sample_period = sampling.sample_period;
    ctl.warmup_iters = sampling.warmup_iters;
    probe.begin(nodes);
    ctl.probe = &probe;
  }

  const mpi::RunResult run = runtime_.run(
      nodes, frequency_mhz,
      [&](mpi::Comm& comm) {
        if (comm_dvfs_mhz != 0.0) comm.set_comm_dvfs_mhz(comm_dvfs_mhz);
        npb::KernelResult r =
            ctl.trivial() ? kernel.run(comm) : kernel.run_ctl(comm, ctl);
        if (comm.rank() == 0) root_result = std::move(r);
      });

  RunRecord rec;
  rec.nodes = nodes;
  rec.frequency_mhz = frequency_mhz;
  rec.seconds = run.makespan;
  rec.verified = root_result.verified;
  const double n = static_cast<double>(nodes);
  rec.mean_overhead_s = run.mean_network_seconds();
  rec.mean_cpu_s = run.total_cpu_seconds() / n;
  rec.mean_memory_s = run.total_memory_seconds() / n;

  // Energy from per-operating-point slices (exact under per-phase
  // DVFS; equivalent to single-point metering without it).
  for (const mpi::RankReport& r : run.ranks) {
    std::vector<power::FrequencySlice> slices;
    slices.reserve(r.activity_by_fkey.size());
    for (const auto& [fkey, seconds] : r.activity_by_fkey) {
      power::FrequencySlice slice;
      slice.frequency_mhz = static_cast<double>(fkey) / 10.0;
      slice.activity.cpu_s =
          seconds[static_cast<std::size_t>(sim::Activity::kCpu)];
      slice.activity.memory_s =
          seconds[static_cast<std::size_t>(sim::Activity::kMemory)];
      slice.activity.network_s =
          seconds[static_cast<std::size_t>(sim::Activity::kNetwork)];
      slice.activity.idle_s =
          seconds[static_cast<std::size_t>(sim::Activity::kIdle)];
      slices.push_back(slice);
    }
    rec.energy += meter_.measure_node_slices(
        slices, cluster_.operating_points, run.makespan, frequency_mhz);
  }

  double messages = 0.0;
  double doubles = 0.0;
  for (const mpi::RankReport& r : run.ranks) {
    messages += static_cast<double>(r.comm.messages_sent);
    doubles += r.comm.avg_doubles_per_message();
    rec.send_retries += static_cast<double>(r.comm.sends_retried);
  }
  rec.messages_per_rank = messages / n;
  rec.doubles_per_message = doubles / n;

  for (const mpi::RankReport& r : run.ranks) rec.executed_per_rank += r.executed;
  rec.executed_per_rank = rec.executed_per_rank * (1.0 / n);

  if (sampling.active()) {
    // Extrapolate the sampled run to the full iteration count. The
    // extensive measurements (times, energy, messages, executed work)
    // scale by the estimated/measured makespan ratio — skipped
    // iterations would have repeated the detailed ones' behaviour,
    // which is exactly the sampling contract. Intensive ones
    // (doubles_per_message, verified) pass through.
    const SampledEstimate est =
        estimate_sampled_run(probe, kernel.iteration_count(nodes),
                             sampling.warmup_iters, run.makespan);
    if (!est.valid)
      throw std::runtime_error(pas::util::strf(
          "sampled run of %s at N=%d collected no usable boundaries "
          "(period=%d, warmup=%d)",
          kernel.name().c_str(), nodes, sampling.sample_period,
          sampling.warmup_iters));
    const double ratio = rec.seconds > 0.0 ? est.seconds / rec.seconds : 1.0;
    rec.seconds = est.seconds;
    rec.mean_overhead_s *= ratio;
    rec.mean_cpu_s *= ratio;
    rec.mean_memory_s *= ratio;
    rec.energy.cpu_j *= ratio;
    rec.energy.memory_j *= ratio;
    rec.energy.network_j *= ratio;
    rec.energy.idle_j *= ratio;
    rec.messages_per_rank *= ratio;
    rec.executed_per_rank = rec.executed_per_rank * ratio;
    rec.sampled = true;
    rec.total_iters = est.total_iters;
    rec.sampled_iters = est.sampled_iters;
    rec.ci_seconds = est.ci_seconds;
    if (rec.seconds > 0.0)
      rec.ci_energy_j = rec.energy.total_j() * (est.ci_seconds / rec.seconds);
  }

  if (runtime_.tracer().enabled()) {
    // One program span per rank, under the detail events.
    for (std::size_t r = 0; r < run.ranks.size(); ++r)
      runtime_.tracer().record_span(
          static_cast<int>(r), 0.0, run.ranks[r].finish_time, "rank",
          pas::util::strf("rank %zu", r));
  }

  pas::util::log_info(pas::util::strf(
      "%s N=%d f=%.0fMHz: T=%.4fs, overhead=%.4fs, E=%.1fJ, verified=%d",
      kernel.name().c_str(), nodes, frequency_mhz, rec.seconds,
      rec.mean_overhead_s, rec.energy.total_j(), rec.verified ? 1 : 0));
  return rec;
}

MatrixResult RunMatrix::sweep(const npb::Kernel& kernel,
                              const std::vector<int>& node_counts,
                              const std::vector<double>& freqs_mhz,
                              double comm_dvfs_mhz) {
  MatrixResult result;
  for (int n : node_counts) {
    for (double f : freqs_mhz)
      result.add(run_one(kernel, n, f, comm_dvfs_mhz));
  }
  return result;
}

}  // namespace pas::analysis
