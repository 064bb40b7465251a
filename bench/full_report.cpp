// Full reproduction report: runs the complete evaluation once and
// writes a directory of artifacts — REPORT.md plus one CSV per table /
// figure — so a reviewer gets the whole paper-vs-measured story from a
// single binary.
//
// The evaluation grid is executed by the SweepExecutor: the columns of
// all five kernels run as one batch across a worker pool (--jobs N,
// default: all cores) and completed operating points are memoized
// (--cache [dir] persists them across invocations — a re-run, or a
// table/figure bench afterwards, replays records instead of
// re-simulating). Concurrency and caching never change the artifacts:
// REPORT.md and the CSVs are byte-identical to the serial, uncached
// path (see DESIGN.md §6).
//
//   ./bench/full_report --out report_dir [--small] [--jobs N]
//                       [--cache [dir]] [--no-cache]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/figures.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/core/baseline_models.hpp"
#include "pas/core/isoefficiency.hpp"
#include "pas/core/workload_fit.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/obs/observer.hpp"
#include "pas/tools/membench.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"

namespace {

using namespace pas;

struct Report {
  std::filesystem::path dir;
  std::string md;
  bool write_failed = false;

  void save_csv(const std::string& name, const util::TextTable& t) {
    if (const obs::WriteResult r = t.write_csv((dir / name).string()); !r) {
      std::fprintf(stderr, "report: %s\n", r.to_string().c_str());
      write_failed = true;
    }
    md += util::strf("\n```\n%s```\n*(CSV: `%s`)*\n", t.to_string().c_str(),
                     name.c_str());
  }
  void h2(const std::string& title) { md += "\n## " + title + "\n"; }
  void p(const std::string& text) { md += "\n" + text + "\n"; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  auto known = analysis::SweepSpec::cli_option_names();
  known.push_back("out");
  cli.check_usage(known);
  const auto wall_start = std::chrono::steady_clock::now();
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli);
  const analysis::ExperimentEnv env = analysis::env_for_spec(spec);
  analysis::require_base_node(cli, env, analysis::kWorkloadFitNeeds);
  const analysis::Scale scale = spec.resolved_scale();

  Report report;
  report.dir = cli.get("out", "pasim_report");
  std::error_code ec;
  std::filesystem::create_directories(report.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n",
                 report.dir.string().c_str(), ec.message().c_str());
    return 1;
  }

  report.md =
      "# PASim reproduction report\n\n"
      "Regenerated artifacts for *Power-Aware Speedup* (Ge & Cameron, "
      "IPDPS 2007) on the simulated 16-node Pentium-M testbed. Base "
      "configuration: 1 node @ 600 MHz.\n";

  analysis::SweepExecutor executor(spec);

  // All five grids run as one batch, so --jobs N keeps N columns in
  // flight across kernels. The document's own kernel honours its
  // schema-v2 fields (iterations); the other four run at the preset.
  const std::vector<const char*> names{"EP", "FT", "LU", "CG", "MG"};
  std::vector<std::unique_ptr<npb::Kernel>> kernels;
  std::vector<analysis::SweepRequest> requests;
  for (const char* name : names) {
    kernels.push_back(name == spec.kernel ? analysis::make_spec_kernel(spec)
                                          : analysis::make_kernel(name, scale));
    requests.push_back({kernels.back().get(), env.nodes, env.freqs_mhz,
                        spec.comm_dvfs_mhz});
  }
  const std::vector<analysis::MatrixResult> results =
      executor.run_all(requests);

  for (std::size_t k = 0; k < names.size(); ++k) {
    const char* name = names[k];
    const analysis::MatrixResult& m = results[k];

    report.h2(util::strf("%s — execution-time and speedup surfaces", name));
    bool all_verified = true;
    for (const auto& rec : m.records) all_verified &= rec.verified;
    report.p(util::strf("All %zu runs verified: **%s**.", m.records.size(),
                        all_verified ? "yes" : "NO"));
    report.save_csv(util::strf("%s_time.csv", name),
                    analysis::execution_time_table(
                        m.times, env.nodes, env.freqs_mhz,
                        util::strf("%s execution time (s)", name)));
    report.save_csv(util::strf("%s_speedup.csv", name),
                    analysis::speedup_surface(
                        m.times, env.nodes, env.freqs_mhz, env.base_f_mhz,
                        util::strf("%s power-aware speedup", name)));

    // Eq 3 (Table 1 style) vs SP (Table 3 style) errors.
    const analysis::ErrorTable eq3 = analysis::speedup_error_table(
        m.times,
        [&](int n, double f) {
          return core::eq3_product_prediction(m.times, n, f, 1,
                                              env.base_f_mhz);
        },
        env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
    core::SimplifiedParameterization sp(env.base_f_mhz);
    sp.ingest(m.times);
    const analysis::ErrorTable sp_err = analysis::speedup_error_table(
        m.times, [&](int n, double f) { return sp.predict_speedup(n, f); },
        env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
    report.p(util::strf(
        "Eq 3 product-form speedup error: max %.1f%%, mean %.1f%% — "
        "power-aware SP error: max %.1f%%, mean %.1f%%.",
        eq3.max_error() * 100, eq3.mean_error() * 100,
        sp_err.max_error() * 100, sp_err.mean_error() * 100));
    report.save_csv(util::strf("%s_eq3_errors.csv", name),
                    eq3.render(util::strf("%s Eq 3 errors", name)));
    report.save_csv(util::strf("%s_sp_errors.csv", name),
                    sp_err.render(util::strf("%s SP errors", name)));

    // Workload fit + isoefficiency.
    const core::WorkloadFit fit = core::fit_workload(m.times, env.base_f_mhz);
    std::string iso = "isoefficiency k(N) at E=0.7:";
    for (const auto& pt :
         core::isoefficiency_curve(fit, env.parallel_nodes, 0.7)) {
      iso += util::strf(" k(%d)=%.2f", pt.nodes, pt.workload_factor);
    }
    report.p(util::strf(
        "Workload fit (R^2 %.3f): serial %.4fs, parallel %.4fs, overhead "
        "%.4fs + %.4fs/N. %s",
        fit.r2, fit.serial_s, fit.parallel_s, fit.invariant_s,
        fit.overhead_per_n_s, iso.c_str()));
  }

  // Table 6-style probe summary.
  report.h2("Probe measurements (Table 6)");
  tools::MemBench membench(sim::CpuModel(
      env.cluster.cpu, env.cluster.memory, env.cluster.operating_points));
  util::TextTable probes("Seconds per workload by level and frequency");
  probes.set_header({"f (MHz)", "reg (ns)", "L1 (ns)", "L2 (ns)", "mem (ns)"});
  for (double f : env.freqs_mhz) {
    const tools::LevelTimes t = membench.probe(f);
    probes.add_row({util::strf("%.0f", f), util::strf("%.2f", t.reg_s * 1e9),
                    util::strf("%.2f", t.l1_s * 1e9),
                    util::strf("%.2f", t.l2_s * 1e9),
                    util::strf("%.0f", t.mem_s * 1e9)});
  }
  report.save_csv("probe_levels.csv", probes);

  // Crash-atomic like every other artifact: a killed run leaves either
  // the previous REPORT.md or the complete new one, never a torso.
  if (const obs::WriteResult r = obs::write_text_file(
          (report.dir / "REPORT.md").string(), report.md);
      !r) {
    std::fprintf(stderr, "report: %s\n", r.to_string().c_str());
    report.write_failed = true;
  }
  std::printf("report written to %s (REPORT.md + CSVs)\n",
              report.dir.string().c_str());

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  // Batched-replay shape (DESIGN.md §11): how many DVFS lanes each
  // simulated column amortized.
  const std::uint64_t lanes =
      obs::registry().counter("repricer.batch_lanes").value();
  const std::uint64_t columns = obs::registry().counter("repricer.columns").value();
  std::string reprice;
  if (columns > 0)
    reprice = util::strf(", repriced %.1f lanes/column",
                         static_cast<double>(lanes) /
                             static_cast<double>(columns));
  std::printf("wall time %.2fs, jobs %d, run cache: %s%s\n", wall_s,
              executor.jobs(), executor.cache().stats_string().c_str(),
              reprice.c_str());
  if (const std::string sweep_line = obs::sweep_counters_summary();
      !sweep_line.empty())
    std::printf("%s\n", sweep_line.c_str());
  if (!obs::export_and_report(executor.observer())) return 1;
  return report.write_failed ? 1 : 0;
}
