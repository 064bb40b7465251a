// DVFS explorer — reproduces the paper's measurement methodology on
// one kernel: full (N, f) sweep with per-activity time breakdown and
// energy, the three workload classes side by side if asked.
//
// The sweep runs on the parallel executor: pass --jobs N to fan grid
// points across cores and --cache [dir] to reuse results of previous
// invocations (records are bit-identical either way).
//
//   ./examples/dvfs_explorer --kernel LU --nodes 1,2,4 --freqs 600,1400
//   ./examples/dvfs_explorer --spec sweep.json      (same axes from a file)
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/figures.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage(analysis::SweepSpec::cli_option_names());
  // Historical defaults: LU over a trimmed grid (the spec-document
  // defaults are EP over the full scale grid).
  const bool named = cli.has("spec") || cli.has("kernel");
  analysis::SweepSpec spec =
      analysis::SweepSpec::from_cli(cli, named ? nullptr : "LU");
  // The trimmed node grid stops at the cluster's size (4 nodes at the
  // small scale).
  if (spec.nodes.empty()) {
    for (int n : {1, 2, 4, 8})
      if (n <= spec.resolved_cluster().num_nodes) spec.nodes.push_back(n);
  }
  if (spec.freqs_mhz.empty()) spec.freqs_mhz = {600, 1000, 1400};
  const std::string name = spec.kernel;
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env);
  const std::vector<int>& nodes = env.nodes;
  const std::vector<double>& freqs = env.freqs_mhz;

  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult sweep = executor.run();

  util::TextTable t(util::strf(
      "%s: time / ON-chip / OFF-chip / overhead / energy per configuration",
      name.c_str()));
  t.set_header({"N", "f (MHz)", "T (s)", "cpu (s)", "mem (s)", "net (s)",
                "E (J)", "verified"});
  for (const analysis::RunRecord& rec : sweep.records) {
    t.add_row({util::strf("%d", rec.nodes),
               util::strf("%.0f", rec.frequency_mhz),
               util::strf("%.4f", rec.seconds),
               util::strf("%.4f", rec.mean_cpu_s),
               util::strf("%.4f", rec.mean_memory_s),
               util::strf("%.4f", rec.mean_overhead_s),
               util::strf("%.1f", rec.energy.total_j()),
               rec.verified ? "yes" : "NO"});
  }
  std::fputs(t.to_string().c_str(), stdout);

  const auto surface = analysis::speedup_surface(
      sweep.times, nodes, freqs, env.base_f_mhz,
      util::strf("%s: power-aware speedup surface (base 1 node @ %.0f MHz)",
                 name.c_str(), env.base_f_mhz));
  std::fputs(surface.to_string().c_str(), stdout);

  // The paper's decomposition message: how the overhead share moves.
  std::puts("overhead share of execution time:");
  for (int n : nodes) {
    const auto& rec = sweep.at(n, env.base_f_mhz);
    std::printf("  N=%2d: %.1f%%\n", n,
                rec.mean_overhead_s / rec.seconds * 100.0);
  }
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
