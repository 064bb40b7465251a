// Quickstart — the 60-second tour of PASim's public API:
//   1. build the paper's 16-node power-aware cluster,
//   2. run a real kernel (FT) at a few (N, f) configurations,
//   3. fit the simplified parameterization from the required
//      measurements only,
//   4. predict an unmeasured configuration and compare.
//
//   ./examples/quickstart [--kernel FT|EP|LU] [--spec spec.json]
#include <algorithm>
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage({"spec", "kernel", "small", "nodes", "freqs"});
  // Historical default: the tour uses FT unless a spec or flag says
  // otherwise (the spec-document default is EP).
  const bool named = cli.has("spec") || cli.has("kernel");
  const analysis::SweepSpec spec =
      analysis::SweepSpec::from_cli(cli, named ? nullptr : "FT");
  const std::string name = spec.kernel;

  // 1. The simulated testbed: 16 Pentium-M nodes, five DVFS points,
  //    Fast Ethernet (paper §4.1).
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  std::printf("cluster: %s\n\n", env.cluster.to_string().c_str());

  // 2. Run the kernel. Every run executes real math (FFTs, SSOR,
  //    random streams) with built-in verification; timing comes from
  //    the virtual-time cluster model.
  const auto kernel = analysis::make_spec_kernel(spec);
  analysis::RunMatrix matrix(env.cluster);
  const analysis::RunRecord seq = matrix.run_one(*kernel, 1, env.base_f_mhz);
  std::printf("%s on 1 node @ %.0f MHz: %.4f s (verified: %s), %.1f J\n",
              name.c_str(), env.base_f_mhz, seq.seconds,
              seq.verified ? "yes" : "NO", seq.energy.total_j());

  // 3. Fit SP: sequential runs at each frequency + parallel runs at
  //    the base frequency. That is all the model needs (§5.1).
  const core::SimplifiedParameterization sp =
      analysis::parameterize_simplified(*kernel, env);

  // 4. Predict a configuration we never measured during the fit, then
  //    measure it and compare.
  const int n = std::min(8, env.max_nodes());
  const double f = env.top_f_mhz();
  const double predicted = sp.predict_time(n, f);
  const analysis::RunRecord check = matrix.run_one(*kernel, n, f);
  std::printf(
      "\nprediction at N=%d, f=%.0f MHz:\n  predicted %.4f s, measured "
      "%.4f s, error %.1f%%\n",
      n, f, predicted, check.seconds,
      util::relative_error(check.seconds, predicted) * 100.0);
  std::printf("  predicted power-aware speedup: %.2f (measured %.2f)\n",
              sp.predict_speedup(n, f), seq.seconds / check.seconds);
  return 0;
}
