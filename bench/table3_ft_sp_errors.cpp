// Table 3 — FT power-aware-speedup prediction errors using the
// simplified parameterization (§5.1, Eq 16-18).
//
// Expected shape (paper): errors within ~3 % (vs tens of percent for
// the Eq 3 product form in Table 1); the 600 MHz column is exact by
// construction.
#include <cstdio>

#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  auto known = analysis::SweepSpec::cli_option_names();
  known.push_back("csv");
  cli.check_usage(known);
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli, "FT");
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env);
  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult measured = executor.run();

  core::SimplifiedParameterization sp(env.base_f_mhz);
  sp.ingest(measured.times);

  for (int n : env.parallel_nodes) {
    std::printf("derived overhead T(wPO) at N=%d: %.4f s (Eq 17)\n", n,
                sp.overhead_seconds(n));
  }

  const analysis::ErrorTable errors = analysis::speedup_error_table(
      measured.times,
      [&](int n, double f) { return sp.predict_speedup(n, f); },
      env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
  const auto table = errors.render(
      "Table 3: FT power-aware speedup prediction error "
      "(simplified parameterization, Eq 18)");
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("max error %.1f%% (paper: <= 3%%), mean %.1f%%\n",
              errors.max_error() * 100.0, errors.mean_error() * 100.0);
  if (cli.has("csv") && !table.write_csv(cli.get("csv", "table3.csv")))
    return 1;
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
