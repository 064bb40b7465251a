// Figure 2 — FT execution time (2a) and two-dimensional speedup
// surface (2b).
//
// Expected shape (paper): execution time *rises* from 1 to 2 nodes
// (all-to-all overhead), then falls sub-linearly; the 1-processor
// frequency speedup is sub-linear (paper: 1.6 at 1400 MHz); the
// benefit of frequency scaling shrinks as nodes are added.
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/figures.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  auto known = analysis::SweepSpec::cli_option_names();
  known.push_back("csv");
  cli.check_usage(known);
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli, "FT");
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(
      cli, env, {1, 1, "the T(N) > T(1) shape check"});
  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult measured = executor.run();

  const auto fig_a = analysis::execution_time_table(
      measured.times, env.nodes, env.freqs_mhz,
      "Fig 2a: FT execution time (seconds)");
  std::fputs(fig_a.to_string().c_str(), stdout);

  const auto fig_b = analysis::speedup_surface(
      measured.times, env.nodes, env.freqs_mhz, env.base_f_mhz,
      util::strf("Fig 2b: FT two-dimensional speedup (base 1 node @ %g MHz)",
                 env.base_f_mhz));
  std::fputs(fig_b.to_string().c_str(), stdout);

  const int n2 = env.min_parallel_nodes();
  const double t1 = measured.times.at(1, env.base_f_mhz);
  const double t2 = measured.times.at(n2, env.base_f_mhz);
  std::printf("shape: T(%d) > T(1) at %g MHz -> %s (%.3fs vs %.3fs)\n", n2,
              env.base_f_mhz, t2 > t1 ? "OK" : "MISMATCH", t2, t1);
  const int top_n = env.max_nodes();
  const double fgain1 = measured.times.at(1, env.base_f_mhz) /
                        measured.times.at(1, env.top_f_mhz());
  const double fgainN = measured.times.at(top_n, env.base_f_mhz) /
                        measured.times.at(top_n, env.top_f_mhz());
  std::printf(
      "shape: frequency gain shrinks with N -> %s (x%.2f at N=1, x%.2f at "
      "N=%d); sequential frequency speedup %.2f (paper: 1.6, sub-linear)\n",
      fgain1 > fgainN ? "OK" : "MISMATCH", fgain1, fgainN, top_n, fgain1);
  if (cli.has("csv") && !fig_b.write_csv(cli.get("csv", "fig2b.csv")))
    return 1;
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
