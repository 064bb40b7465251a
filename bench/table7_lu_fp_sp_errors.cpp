// Table 7 — LU execution-time prediction errors: fine-grain
// parameterization (FP, §5.2) vs simplified parameterization (SP,
// §5.1), side by side per (N, f) like the paper.
//
// Expected shape (paper): SP exact in its calibration row/column and
// its errors grow with both N and f; FP errors are nonzero everywhere
// (it never sees an end-to-end timing) but level off with frequency.
#include <cstdio>

#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/stats.hpp"
#include "pas/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  auto known = analysis::SweepSpec::cli_option_names();
  known.push_back("csv");
  cli.check_usage(known);
  analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli, "LU");
  // The paper's Table 7 stops at 8 nodes (--nodes still overrides).
  if (spec.nodes.empty() && spec.resolved_scale() == analysis::Scale::kPaper)
    spec.nodes = {1, 2, 4, 8};
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env);
  const auto lu = analysis::make_spec_kernel(spec);
  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult measured = executor.run();

  core::SimplifiedParameterization sp(env.base_f_mhz);
  sp.ingest(measured.times);
  // Executor-backed: the FP profiling runs at (N, f0) are cache hits
  // from the sweep above.
  const core::FineGrainParameterization fp =
      analysis::parameterize_fine_grain(*lu, env, executor);

  util::TextTable t(
      "Table 7: LU power-aware prediction errors — FP vs SP "
      "(execution time, relative error)");
  std::vector<std::string> header{"N"};
  for (double f : env.freqs_mhz) {
    header.push_back(util::strf("%.0f FP", f));
    header.push_back(util::strf("%.0f SP", f));
  }
  t.set_header(header);
  for (int n : env.nodes) {
    std::vector<std::string> row{util::strf("%d", n)};
    for (double f : env.freqs_mhz) {
      const double m = measured.times.at(n, f);
      row.push_back(
          util::percent(util::relative_error(m, fp.predict_parallel(n, f)), 1));
      row.push_back(
          util::percent(util::relative_error(m, sp.predict_time(n, f)), 1));
    }
    t.add_row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);

  const analysis::ErrorTable sp_err = analysis::time_error_table(
      measured.times, [&](int n, double f) { return sp.predict_time(n, f); },
      env.parallel_nodes, env.freqs_mhz);
  const analysis::ErrorTable fp_err = analysis::time_error_table(
      measured.times,
      [&](int n, double f) { return fp.predict_parallel(n, f); },
      env.parallel_nodes, env.freqs_mhz);
  std::printf("SP: max %.1f%%, mean %.1f%% | FP: max %.1f%%, mean %.1f%%\n",
              sp_err.max_error() * 100.0, sp_err.mean_error() * 100.0,
              fp_err.max_error() * 100.0, fp_err.mean_error() * 100.0);
  if (cli.has("csv") && !t.write_csv(cli.get("csv", "table7.csv")))
    return 1;
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
