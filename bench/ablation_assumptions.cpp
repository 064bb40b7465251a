// A1 — ablation of the SP assumptions (§5.1) and of the modeled
// system-specific effects:
//
//  1. Assumption 2 (overhead frequency-independent): raise the
//     network's CPU cost per byte so overhead *does* track f, and
//     measure how the SP error budget degrades on FT.
//  2. Bus-slowdown step (Table 6): disable it and show the OFF-chip
//     seconds flatten, changing the low-frequency column of the
//     surface.
#include <cstdio>

#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/util/cli.hpp"

namespace {

pas::analysis::ErrorTable sp_errors(const pas::sim::ClusterConfig& cluster,
                                    const pas::analysis::ExperimentEnv& env,
                                    const pas::npb::Kernel& kernel) {
  using namespace pas;
  analysis::RunMatrix matrix(cluster);
  const analysis::MatrixResult measured =
      matrix.sweep(kernel, env.nodes, env.freqs_mhz);
  core::SimplifiedParameterization sp(env.base_f_mhz);
  sp.ingest(measured.times);
  return analysis::speedup_error_table(
      measured.times,
      [&](int n, double f) { return sp.predict_speedup(n, f); },
      env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  // RunMatrix bench: only the document half of the spec applies (no
  // executor, so no cache/jobs flags).
  cli.check_usage({"spec", "small", "nodes", "freqs"});
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli, "FT");
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env);
  const auto ft = analysis::make_spec_kernel(spec);

  std::puts("=== Ablation 1: Assumption 2 (w_PO^ON = 0) ===");
  const analysis::ErrorTable base_err = sp_errors(env.cluster, env, *ft);
  std::fputs(base_err.render("SP errors, stock network (overhead mostly "
                             "frequency-independent)")
                 .to_string()
                 .c_str(),
             stdout);

  sim::ClusterConfig heavy_cpu_net = env.cluster;
  heavy_cpu_net.network.cpu_cycles_per_byte = 40.0;  // 10x protocol cost
  const analysis::ErrorTable abl_err = sp_errors(heavy_cpu_net, env, *ft);
  std::fputs(abl_err.render("SP errors, CPU-bound network (overhead now "
                            "tracks f -> Assumption 2 violated)")
                 .to_string()
                 .c_str(),
             stdout);
  std::printf(
      "max SP error: %.1f%% stock vs %.1f%% with f-dependent overhead "
      "(expected: ablated >= stock)\n\n",
      base_err.max_error() * 100.0, abl_err.max_error() * 100.0);

  std::puts("=== Ablation 2: bus slowdown at low CPU clocks (Table 6) ===");
  sim::ClusterConfig no_step = env.cluster;
  no_step.memory.bus_slowdown_at_low_freq = false;
  analysis::RunMatrix with_step(env.cluster);
  analysis::RunMatrix without_step(no_step);
  const double t_step = with_step.run_one(*ft, 1, 600).seconds;
  const double t_flat = without_step.run_one(*ft, 1, 600).seconds;
  const double t_fast = with_step.run_one(*ft, 1, 1400).seconds;
  std::printf(
      "FT sequential @600 MHz: %.3fs with the bus step, %.3fs without "
      "(@1400 MHz: %.3fs). The step slows the low-frequency column by "
      "%.1f%%.\n",
      t_step, t_flat, t_fast, (t_step / t_flat - 1.0) * 100.0);
  return 0;
}
