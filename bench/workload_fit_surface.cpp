// R2 — workload estimation from timings (the paper's stated future
// work: estimating DOP / w_1 directly). Fits the four-parameter
// surface T(N,f) = A(f0/f) + B(f0/f)/N + C + D/N to a *subset* of measured
// configurations for each kernel, reports the recovered decomposition
// (serial fraction, frequency-blind overhead), and scores predictions
// on the full grid.
//
// Expected shape: EP -> serial fraction ~0, overhead terms ~0, near-perfect
// R^2; FT -> large frequency-blind overhead terms (the all-to-all);
// LU/CG/MG -> small serial fractions with visible overhead.
#include <algorithm>
#include <cstdio>

#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/core/workload_fit.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  auto known = analysis::SweepSpec::cli_option_names();
  known.push_back("csv");
  cli.check_usage(known);
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli);
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env, analysis::kWorkloadFitNeeds);
  const analysis::Scale scale = spec.resolved_scale();

  util::TextTable t(
      "Workload fit T(N,f) = A(f0/f) + B(f0/f)/N + C + D/N");
  t.set_header({"kernel", "A serial (s)", "B parallel (s)", "C invariant (s)",
                "D per-N (s)", "serial frac", "R^2", "max err (full grid)"});

  analysis::SweepExecutor executor(spec);
  // The off-base anchors are picked by rank on ascending copies of the
  // axes, so a spec that lists an axis descending fits the same subset.
  std::vector<int> nodes_up = env.nodes;
  std::vector<double> freqs_up = env.freqs_mhz;
  std::sort(nodes_up.begin(), nodes_up.end());
  std::sort(freqs_up.begin(), freqs_up.end());

  for (const char* name : {"EP", "FT", "LU", "CG", "MG"}) {
    const auto kernel = analysis::make_kernel(name, scale);
    const analysis::MatrixResult full = executor.run(
        {kernel.get(), env.nodes, env.freqs_mhz, spec.comm_dvfs_mhz});

    // Fit from the base row/column plus a few off-base anchors
    // (11 of 25 samples).
    core::TimingMatrix subset;
    for (int n : env.nodes) subset.add(n, env.base_f_mhz,
                                       full.times.at(n, env.base_f_mhz));
    for (double f : env.freqs_mhz) subset.add(1, f, full.times.at(1, f));
    const double f_top = freqs_up.back();
    const double f_mid = freqs_up[freqs_up.size() / 2];
    subset.add(nodes_up.back(), f_top, full.times.at(nodes_up.back(), f_top));
    const int n2 = env.min_parallel_nodes();
    subset.add(n2, f_top, full.times.at(n2, f_top));
    if (nodes_up.size() > 2)
      subset.add(nodes_up[2], f_mid, full.times.at(nodes_up[2], f_mid));

    const core::WorkloadFit fit = core::fit_workload(subset, env.base_f_mhz);
    const analysis::ErrorTable err = analysis::time_error_table(
        full.times, [&](int n, double f) { return fit.predict_time(n, f); },
        env.nodes, env.freqs_mhz);

    t.add_row({name, util::strf("%.4f", fit.serial_s),
               util::strf("%.4f", fit.parallel_s),
               util::strf("%.4f", fit.invariant_s),
               util::strf("%.4f", fit.overhead_per_n_s),
               util::percent(fit.serial_fraction(), 1),
               util::strf("%.4f", fit.r2),
               util::percent(err.max_error(), 1)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  if (cli.has("csv") && !t.write_csv(cli.get("csv", "workload_fit.csv")))
    return 1;
  return obs::export_and_report(executor.observer()) ? 0 : 1;
}
