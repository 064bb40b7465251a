// Table 1 — prediction errors of the generalized Amdahl product form
// (Eq 3, e = 2 enhancements) for FT across (N, f), relative to the
// measured speedup with base (1 node, 600 MHz).
//
// Expected shape (paper): 600 MHz column exact by construction; errors
// grow into tens of percent at higher frequencies and node counts
// (paper: up to 78 %, average 45 %).
#include <cstdio>

#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/core/baseline_models.hpp"
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
      cli, env, {1, 1, "the error table over N > 1"});
  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult measured = executor.run();

  const analysis::ErrorTable errors = analysis::speedup_error_table(
      measured.times,
      [&](int n, double f) {
        return core::eq3_product_prediction(measured.times, n, f, 1,
                                            env.base_f_mhz);
      },
      env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);

  const auto table = errors.render(util::strf(
      "Table 1: FT speedup prediction error of the Eq 3 product form "
      "(base: 1 node @ %g MHz)",
      env.base_f_mhz));
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("max error %.1f%%, mean error %.1f%%\n",
              errors.max_error() * 100.0, errors.mean_error() * 100.0);
  std::printf("paper shape check: errors grow with frequency -> %s\n",
              errors.at(env.max_nodes(), env.top_f_mhz()) >
                      errors.at(env.max_nodes(), env.base_f_mhz)
                  ? "OK"
                  : "MISMATCH");
  if (cli.has("csv") && !table.write_csv(cli.get("csv", "table1.csv")))
    return 1;
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
