// Capacity planner — the paper's §2 use case: given a workload, find
// the "sweet spot" (processor count, frequency) under a chosen
// objective, using predictions instead of exhaustively measuring the
// whole configuration grid.
//
//   ./examples/capacity_planner --kernel FT --objective edp
//   objectives: delay | energy | edp | ed2p
#include <cstdio>
#include <string>

#include "pas/analysis/experiment.hpp"
#include "pas/core/sweet_spot.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage({"spec", "kernel", "small", "nodes", "freqs", "objective"});
  // Historical default kernel for this example is FT.
  const bool named = cli.has("spec") || cli.has("kernel");
  const analysis::SweepSpec spec =
      analysis::SweepSpec::from_cli(cli, named ? nullptr : "FT");
  const std::string name = spec.kernel;
  const std::string objective_arg = cli.get("objective", "edp");

  power::Objective objective = power::Objective::kEnergyDelay;
  if (objective_arg == "delay") objective = power::Objective::kDelay;
  else if (objective_arg == "energy") objective = power::Objective::kEnergy;
  else if (objective_arg == "ed2p")
    objective = power::Objective::kEnergyDelaySquared;

  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  const auto kernel = analysis::make_spec_kernel(spec);

  // Fit from the SP measurement set: |freqs| sequential runs plus
  // |node counts| base-frequency runs — 9 runs instead of 25.
  const core::SimplifiedParameterization sp =
      analysis::parameterize_simplified(*kernel, env);

  const core::SweetSpotFinder finder(power::PowerModel(),
                                     env.cluster.operating_points);
  const auto points = finder.evaluate(
      env.nodes, env.freqs_mhz,
      [&](int n, double f) { return sp.predict_time(n, f); },
      [&](int n, double f) {
        (void)f;
        return n > 1 ? sp.overhead_seconds(n) : 0.0;
      });

  std::printf("%s configuration ranking under %s:\n", name.c_str(),
              power::objective_name(objective));
  int row = 0;
  for (const power::MetricPoint& p : power::ranked(points, objective)) {
    std::printf("  %2d. %s\n", ++row, p.to_string().c_str());
    if (row >= 10) break;
  }

  const power::MetricPoint best = power::best(points, objective);
  std::printf("\nsweet spot: %d nodes @ %.0f MHz (predicted %.3f s, %.0f J)\n",
              best.nodes, best.frequency_mhz, best.time_s, best.energy_j);

  // Sanity-check the recommendation against a real (simulated) run.
  analysis::RunMatrix matrix(env.cluster);
  const analysis::RunRecord check =
      matrix.run_one(*kernel, best.nodes, best.frequency_mhz);
  std::printf("verification run: %.3f s measured (%.1f%% off), %.0f J\n",
              check.seconds,
              util::relative_error(check.seconds, best.time_s) * 100.0,
              check.energy.total_j());
  return 0;
}
