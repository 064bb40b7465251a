// E2 — the opening claim of the paper's abstract: "power-aware
// clusters can conserve significant energy (>30 %) with minimal
// performance loss (<1 %) running parallel scientific workloads",
// achieved by scaling the CPU down during communication phases
// (refs [14, 15]).
//
// For each kernel we run every (N > 1) at the top application
// frequency, once with static DVFS and once with communication-phase
// DVFS at the lowest point, and report the time penalty and energy
// saving. Expected shape: EP (no communication) saves ~nothing; FT and
// LU save more the more communication-bound the configuration, with a
// sub-percent-to-few-percent slowdown.
#include <algorithm>
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  // RunMatrix bench: only the document half of the spec applies (no
  // executor, so no cache/jobs flags).
  cli.check_usage({"spec", "small", "nodes", "freqs", "csv"});
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli);
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  const analysis::Scale scale = spec.resolved_scale();
  const double app_mhz = env.top_f_mhz();
  const double comm_mhz = env.base_f_mhz;

  util::TextTable t(util::strf(
      "Communication-phase DVFS: app @ %.0f MHz, comm phases @ %.0f MHz",
      app_mhz, comm_mhz));
  t.set_header({"kernel", "N", "T static", "T comm-DVFS", "time penalty",
                "E static", "E comm-DVFS", "energy saving"});

  analysis::RunMatrix matrix(env.cluster);
  for (const char* name : {"EP", "FT", "LU", "CG", "MG"}) {
    const auto kernel = analysis::make_kernel(name, scale);
    for (int n : env.parallel_nodes) {
      const analysis::RunRecord base = matrix.run_one(*kernel, n, app_mhz);
      const analysis::RunRecord dvfs =
          matrix.run_one(*kernel, n, app_mhz, comm_mhz);
      const double penalty = dvfs.seconds / base.seconds - 1.0;
      const double saving =
          1.0 - dvfs.energy.total_j() / base.energy.total_j();
      t.add_row({name, util::strf("%d", n),
                 util::strf("%.4f s", base.seconds),
                 util::strf("%.4f s", dvfs.seconds),
                 util::percent(penalty, 2),
                 util::strf("%.1f J", base.energy.total_j()),
                 util::strf("%.1f J", dvfs.energy.total_j()),
                 util::percent(saving, 1)});
    }
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::puts(
      "expected shape: EP untouched; FT (long all-to-all phases) approaches "
      "the abstract's >30% saving at a few % penalty; LU's fine-grained "
      "per-plane messages make it a poor target — transition costs eat the "
      "gains, which is why phase-granular schedulers profile first.");

  // Sensitivity of the LU result to the DVFS transition latency.
  // Clamp the node count to the cluster: the small testbed stops at 4.
  const int n_sense = std::min(8, env.nodes.back());
  util::TextTable s(util::strf(
      "LU @ N=%d: sensitivity to the DVFS transition latency (app %.0f MHz)",
      n_sense, app_mhz));
  s.set_header({"transition", "time penalty", "energy saving"});
  const auto lu = analysis::make_kernel("LU", scale);
  for (double trans_us : {0.0, 10.0, 50.0, 100.0}) {
    sim::ClusterConfig cfg = env.cluster;
    cfg.dvfs_transition_s = trans_us * 1e-6;
    analysis::RunMatrix m2(cfg);
    const analysis::RunRecord base = m2.run_one(*lu, n_sense, app_mhz);
    const analysis::RunRecord dvfs =
        m2.run_one(*lu, n_sense, app_mhz, comm_mhz);
    s.add_row({util::strf("%.0f us", trans_us),
               util::percent(dvfs.seconds / base.seconds - 1.0, 2),
               util::percent(1.0 - dvfs.energy.total_j() /
                                       base.energy.total_j(), 1)});
  }
  std::fputs(s.to_string().c_str(), stdout);
  if (cli.has("csv") &&
      !t.write_csv(cli.get("csv", "dvfs_comm_savings.csv")))
    return 1;
  return 0;
}
