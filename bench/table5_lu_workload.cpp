// Table 5 — LU workload measurement and decomposition from the
// PAPI-like counters (§5.2 step 1).
//
// Expected shape (paper): ON-chip workload dominates (98.8 %), most of
// it CPU/register + L1; OFF-chip (main memory) is ~1.2 %.
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/table.hpp"
#include "pas/util/format.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  // Counter bench: only the document half of the spec applies.
  cli.check_usage({"spec", "small", "nodes", "freqs", "csv"});
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli, "LU");
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  const auto lu = analysis::make_spec_kernel(spec);

  const counters::CounterSet set = analysis::measure_counters(*lu, env);
  const counters::WorkloadDecomposition d = set.decompose();

  std::printf("raw counters: %s\n", set.to_string().c_str());

  util::TextTable t("Table 5: LU workload measurement and decomposition");
  t.set_header({"Workload", "Memory level", "Derivation", "#ins (x1e9)",
                "share"});
  t.add_row({"ON-chip", "CPU/Register", "PAPI_TOT_INS - PAPI_L1_DCA",
             util::strf("%.3f", d.reg_ins / 1e9),
             util::percent(d.reg_ins / d.total(), 2)});
  t.add_row({"", "L1 Cache", "PAPI_L1_DCA - PAPI_L1_DCM",
             util::strf("%.3f", d.l1_ins / 1e9),
             util::percent(d.l1_ins / d.total(), 2)});
  t.add_row({"", "L2 Cache", "PAPI_L2_TCA - PAPI_L2_TCM",
             util::strf("%.3f", d.l2_ins / 1e9),
             util::percent(d.l2_ins / d.total(), 2)});
  t.add_row({"OFF-chip", "Main Memory", "PAPI_L2_TCM",
             util::strf("%.3f", d.mem_ins / 1e9),
             util::percent(d.mem_ins / d.total(), 2)});
  std::fputs(t.to_string().c_str(), stdout);

  std::printf(
      "ON-chip fraction: %.1f%% (paper: 98.8%%); ON-chip weights: "
      "%.2f%% reg / %.2f%% L1 / %.2f%% L2 (paper: 44.66 / 53.89 / 1.45)\n",
      d.on_chip_fraction() * 100.0, d.reg_weight() * 100.0,
      d.l1_weight() * 100.0, d.l2_weight() * 100.0);
  if (cli.has("csv") && !t.write_csv(cli.get("csv", "table5.csv"))) return 1;
  return 0;
}
