#include "pas/analysis/experiment.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "pas/analysis/sweep_executor.hpp"
#include "pas/mpi/runtime.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"

namespace pas::analysis {

ExperimentEnv ExperimentEnv::paper() { return ExperimentEnv{}; }

double ExperimentEnv::top_f_mhz() const {
  return *std::max_element(freqs_mhz.begin(), freqs_mhz.end());
}

int ExperimentEnv::max_nodes() const {
  return *std::max_element(nodes.begin(), nodes.end());
}

int ExperimentEnv::min_parallel_nodes() const {
  return *std::min_element(parallel_nodes.begin(), parallel_nodes.end());
}

ExperimentEnv ExperimentEnv::small() {
  ExperimentEnv env;
  env.cluster = sim::ClusterConfig::paper_testbed(4);
  env.nodes = {1, 2, 4};
  env.parallel_nodes = {2, 4};
  env.freqs_mhz = {600.0, 1000.0, 1400.0};
  return env;
}

std::unique_ptr<npb::Kernel> make_kernel(const std::string& name,
                                         Scale scale) {
  if (name == "EP") {
    npb::EpConfig cfg;
    if (scale == Scale::kSmall) cfg.log2_pairs = 15;
    return std::make_unique<npb::EpKernel>(cfg);
  }
  if (name == "FT") {
    npb::FtConfig cfg;
    if (scale == Scale::kSmall) {
      cfg.nx = cfg.ny = cfg.nz = 16;
      cfg.niter = 2;
    }
    return std::make_unique<npb::FtKernel>(cfg);
  }
  if (name == "LU") {
    npb::LuConfig cfg;
    if (scale == Scale::kSmall) {
      cfg.n = 16;
      cfg.iterations = 3;
    }
    return std::make_unique<npb::LuKernel>(cfg);
  }
  if (name == "CG") {
    npb::CgConfig cfg;
    if (scale == Scale::kSmall) {
      cfg.n = 16;
      cfg.iterations = 8;
    }
    return std::make_unique<npb::CgKernel>(cfg);
  }
  if (name == "MG") {
    npb::MgConfig cfg;
    if (scale == Scale::kSmall) {
      cfg.n = 16;
      cfg.levels = 2;
      cfg.cycles = 2;
    }
    return std::make_unique<npb::MgKernel>(cfg);
  }
  throw std::invalid_argument("unknown kernel: " + name);
}

std::unique_ptr<npb::Kernel> make_spec_kernel(const SweepSpec& spec) {
  std::unique_ptr<npb::Kernel> kernel =
      make_kernel(spec.kernel, spec.resolved_scale());
  if (spec.iterations > 0) {
    std::unique_ptr<npb::Kernel> adjusted =
        kernel->with_iterations(spec.iterations);
    if (adjusted == nullptr)
      throw std::invalid_argument(pas::util::strf(
          "spec: iterations: kernel %s does not support an iteration "
          "override",
          spec.kernel.c_str()));
    kernel = std::move(adjusted);
  }
  return kernel;
}

ExperimentEnv env_for_spec(const SweepSpec& spec) {
  ExperimentEnv env = spec.resolved_scale() == Scale::kSmall
                          ? ExperimentEnv::small()
                          : ExperimentEnv::paper();
  env.cluster = spec.cluster ? *spec.cluster : spec.resolved_cluster();
  env.nodes = spec.resolved_nodes();
  env.parallel_nodes.clear();
  for (int n : env.nodes)
    if (n > 1) env.parallel_nodes.push_back(n);
  env.freqs_mhz = spec.resolved_freqs();
  env.base_f_mhz = spec.base_f_mhz();
  return env;
}

void require_base_node(const util::Cli& cli, const ExperimentEnv& env,
                       const GridNeeds& needs) {
  std::vector<std::string> nodes;
  for (int n : env.nodes) nodes.push_back(std::to_string(n));
  const std::string grid = util::join(nodes, ",");
  if (std::find(env.nodes.begin(), env.nodes.end(), 1) == env.nodes.end())
    cli.usage_error("nodes: the grid " + grid +
                    " has no N=1, the base every speedup divides by (Eq 1)");
  const std::set<int> above_one(env.parallel_nodes.begin(),
                                env.parallel_nodes.end());
  if (static_cast<int>(above_one.size()) < needs.nodes_above_one)
    cli.usage_error(util::strf(
        "nodes: the grid %s has %zu node count%s above 1, but %s needs %d",
        grid.c_str(), above_one.size(), above_one.size() == 1 ? "" : "s",
        needs.why, needs.nodes_above_one));
  const std::set<double> freqs(env.freqs_mhz.begin(), env.freqs_mhz.end());
  if (static_cast<int>(freqs.size()) < needs.freqs) {
    std::vector<std::string> fs;
    for (double f : env.freqs_mhz) fs.push_back(util::strf("%g", f));
    cli.usage_error(util::strf(
        "freqs: the grid %s has %zu distinct frequenc%s, but %s needs %d",
        util::join(fs, ",").c_str(), freqs.size(),
        freqs.size() == 1 ? "y" : "ies", needs.why, needs.freqs));
  }
}

core::LevelWorkload to_level_workload(
    const counters::WorkloadDecomposition& d) {
  core::LevelWorkload w;
  w.reg_ins = d.reg_ins;
  w.l1_ins = d.l1_ins;
  w.l2_ins = d.l2_ins;
  w.mem_ins = d.mem_ins;
  return w;
}

core::LevelSeconds to_level_seconds(const tools::LevelTimes& t) {
  core::LevelSeconds s;
  s.reg_s = t.reg_s;
  s.l1_s = t.l1_s;
  s.l2_s = t.l2_s;
  s.mem_s = t.mem_s;
  return s;
}

counters::CounterSet measure_counters(const npb::Kernel& kernel,
                                      const ExperimentEnv& env) {
  mpi::Runtime runtime(env.cluster);
  const mpi::RunResult run = runtime.run(
      1, env.base_f_mhz, [&](mpi::Comm& comm) { (void)kernel.run(comm); });
  counters::CounterSet set;
  set.record_mix(run.ranks.at(0).executed);
  return set;
}

core::SimplifiedParameterization parameterize_simplified(
    const npb::Kernel& kernel, const ExperimentEnv& env) {
  core::SimplifiedParameterization sp(env.base_f_mhz);
  RunMatrix matrix(env.cluster);
  // Step 3: sequential runs at each frequency (includes the base).
  for (double f : env.freqs_mhz)
    sp.add_sequential(f, matrix.run_one(kernel, 1, f).seconds);
  // Step 1: parallel runs at the base frequency.
  for (int n : env.parallel_nodes)
    sp.add_parallel_base(n, matrix.run_one(kernel, n, env.base_f_mhz).seconds);
  return sp;
}

core::FineGrainParameterization parameterize_fine_grain(
    const npb::Kernel& kernel, const ExperimentEnv& env) {
  // Step 1: workload distribution from the counters.
  const counters::CounterSet set = measure_counters(kernel, env);
  core::FineGrainParameterization fp(to_level_workload(set.decompose()),
                                     env.base_f_mhz);

  // Step 2a: per-level seconds-per-instruction from the memory probe.
  tools::MemBench membench(
      sim::CpuModel(env.cluster.cpu, env.cluster.memory,
                    env.cluster.operating_points));
  for (double f : env.freqs_mhz)
    fp.set_level_seconds(f, to_level_seconds(membench.probe(f)));

  // Step 2b: communication profile (one profiling run per node count at
  // the base frequency) priced by the message probe per frequency.
  RunMatrix matrix(env.cluster);
  tools::MsgBench msgbench(env.cluster);
  for (int n : env.parallel_nodes) {
    const RunRecord rec = matrix.run_one(kernel, n, env.base_f_mhz);
    const auto doubles =
        static_cast<std::size_t>(std::max(1.0, rec.doubles_per_message));
    for (double f : env.freqs_mhz) {
      // One ping-pong leg prices one boundary exchange: the sender
      // blocks for its serialization and the receiver waits out the
      // store-and-forward delivery — exactly a message's share of
      // w_PO under blocking-send semantics (§5.2 step 2).
      const double per_msg = msgbench.pingpong_seconds(doubles, f);
      fp.set_comm(n, rec.messages_per_rank, f, per_msg);
    }
  }
  return fp;
}

counters::CounterSet measure_counters(const npb::Kernel& kernel,
                                      const ExperimentEnv& env,
                                      SweepExecutor& exec) {
  // The one-processor profiling run's mean executed mix *is* rank 0's
  // mix, so the cached RunRecord carries everything the counters need.
  const RunRecord rec = exec.run_one(kernel, 1, env.base_f_mhz);
  counters::CounterSet set;
  set.record_mix(rec.executed_per_rank);
  return set;
}

core::SimplifiedParameterization parameterize_simplified(
    const npb::Kernel& kernel, const ExperimentEnv& env, SweepExecutor& exec) {
  std::vector<SweepExecutor::Point> points;
  points.reserve(env.freqs_mhz.size() + env.parallel_nodes.size());
  for (double f : env.freqs_mhz)
    points.push_back(SweepExecutor::Point{1, f, 0.0});
  for (int n : env.parallel_nodes)
    points.push_back(SweepExecutor::Point{n, env.base_f_mhz, 0.0});
  const std::vector<RunRecord> recs = exec.run_points(kernel, points);

  core::SimplifiedParameterization sp(env.base_f_mhz);
  std::size_t i = 0;
  for (double f : env.freqs_mhz) sp.add_sequential(f, recs[i++].seconds);
  for (int n : env.parallel_nodes) sp.add_parallel_base(n, recs[i++].seconds);
  return sp;
}

core::FineGrainParameterization parameterize_fine_grain(
    const npb::Kernel& kernel, const ExperimentEnv& env, SweepExecutor& exec) {
  const counters::CounterSet set = measure_counters(kernel, env, exec);
  core::FineGrainParameterization fp(to_level_workload(set.decompose()),
                                     env.base_f_mhz);

  tools::MemBench membench(
      sim::CpuModel(env.cluster.cpu, env.cluster.memory,
                    env.cluster.operating_points));
  for (double f : env.freqs_mhz)
    fp.set_level_seconds(f, to_level_seconds(membench.probe(f)));

  std::vector<SweepExecutor::Point> points;
  points.reserve(env.parallel_nodes.size());
  for (int n : env.parallel_nodes)
    points.push_back(SweepExecutor::Point{n, env.base_f_mhz, 0.0});
  const std::vector<RunRecord> recs = exec.run_points(kernel, points);

  tools::MsgBench msgbench(env.cluster);
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const RunRecord& rec = recs[k];
    const auto doubles =
        static_cast<std::size_t>(std::max(1.0, rec.doubles_per_message));
    for (double f : env.freqs_mhz) {
      const double per_msg = msgbench.pingpong_seconds(doubles, f);
      fp.set_comm(env.parallel_nodes[k], rec.messages_per_rank, f, per_msg);
    }
  }
  return fp;
}

}  // namespace pas::analysis
