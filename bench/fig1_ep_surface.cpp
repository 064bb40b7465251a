// Figure 1 — EP execution time (1a) and two-dimensional speedup
// surface (1b) over processor count and CPU frequency, plus the Eq 12
// analytic prediction check (S = N * f/f0 for EP).
//
// Expected shape (paper): time falls with both N and f; speedup is
// nearly N * f/f0 (paper: 36.5 measured vs 37.3 predicted at 16 nodes,
// 1400 MHz — within 2.3 %).
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/figures.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  auto known = analysis::SweepSpec::cli_option_names();
  known.push_back("csv");
  cli.check_usage(known);
  // --spec FILE seeds the sweep document; flags override. This bench
  // IS the EP figure, so from_cli pins the kernel after the merge.
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli, "EP");
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env);
  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult measured = executor.run();

  const auto fig_a = analysis::execution_time_table(
      measured.times, env.nodes, env.freqs_mhz,
      "Fig 1a: EP execution time (seconds)");
  std::fputs(fig_a.to_string().c_str(), stdout);

  const auto fig_b = analysis::speedup_surface(
      measured.times, env.nodes, env.freqs_mhz, env.base_f_mhz,
      util::strf("Fig 1b: EP two-dimensional speedup (base 1 node @ %g MHz)",
                 env.base_f_mhz));
  std::fputs(fig_b.to_string().c_str(), stdout);

  // Eq 12 check: the analytic EP speedup is N * f / f0.
  double max_err = 0.0;
  for (int n : env.nodes) {
    for (double f : env.freqs_mhz) {
      const double predicted = n * f / env.base_f_mhz;
      const double err = util::relative_error(
          measured.times.speedup(n, f, 1, env.base_f_mhz), predicted);
      max_err = std::max(max_err, err);
    }
  }
  std::printf(
      "Eq 12 (S = N * f/f0) max error over the surface: %.1f%% "
      "(paper: <= 2.3%%)\n",
      max_err * 100.0);
  if (cli.has("csv") && !fig_b.write_csv(cli.get("csv", "fig1b.csv")))
    return 1;
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
