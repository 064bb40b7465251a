// Resilience sweep — EP/FT/LU under increasing fault rates.
//
// For each kernel the fault-free sweep is the reference: it is exactly
// what the paper's model is parameterized against (a perfect cluster).
// Each faulty sweep then shows how far reality drifts from that
// prediction as stragglers, message loss and node failures ramp up:
//
//   * failed points (node died / retries exhausted) and run retries,
//   * mean |T_faulty - T_clean| / T_clean over surviving points — the
//     model-error degradation Hofmann et al. observe under machine-
//     state perturbation (arXiv:1803.01618),
//   * the energy overhead of fault handling (retries, backoff,
//     straggler stretch) relative to the clean sweep.
//
// One executor runs every sweep, one batch per kernel: the clean grid
// plus one fault-armed grid per positive rate. Faults never change the
// op stream, so each column's one recording prices the column under
// every rate; a lane that would abort on a fault is simulated in full.
//
// Deterministic: a fixed --fault-seed reproduces every number at any
// --jobs (DESIGN.md §7).
#include <cmath>
#include <cstdio>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/fault/fault.hpp"
#include "pas/obs/metrics.hpp"
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
  const analysis::SweepSpec base = analysis::SweepSpec::from_cli(cli);
  const analysis::ExperimentEnv env = analysis::env_for_spec(base);
  const analysis::Scale scale = base.resolved_scale();
  const std::uint64_t seed =
      base.fault ? base.fault->seed
                 : static_cast<std::uint64_t>(cli.get_int("fault-seed", 42));

  // --faults R (or a fault block in --spec) pins a single rate; default
  // sweeps an increasing ramp.
  std::vector<double> rates{0.0, 0.01, 0.02, 0.05, 0.10};
  if (cli.has("faults")) rates = {0.0, cli.get_double("faults", 0.1)};

  // One executor, with the spec's fault cleared (each faulty request
  // carries its own), so one observer and one journal see every sweep:
  // run_report.json tells the whole clean-vs-faulty story, and --resume
  // resumes all of it.
  analysis::SweepSpec spec = base;
  spec.fault = fault::FaultConfig{};
  analysis::SweepExecutor exec(std::move(spec));

  util::TextTable table(util::strf(
      "Resilience sweep: predicted-vs-simulated drift under faults (seed "
      "%llu)",
      static_cast<unsigned long long>(seed)));
  table.set_header({"kernel", "rate", "failed", "run retries", "send retries",
                    "mean |dT|/T", "energy overhead"});

  for (const char* name : {"EP", "FT", "LU"}) {
    const auto kernel = analysis::make_kernel(name, scale);

    // The clean reference (rate 0 of the ramp), then each positive rate.
    const analysis::SweepRequest clean_request{
        kernel.get(), env.nodes, env.freqs_mhz, base.comm_dvfs_mhz};
    std::vector<analysis::SweepRequest> requests{clean_request};
    for (double rate : rates) {
      if (rate <= 0.0) continue;
      requests.push_back(clean_request);
      requests.back().fault = fault::FaultConfig::scaled(rate, seed);
    }
    const std::vector<analysis::MatrixResult> results = exec.run_all(requests);
    const analysis::MatrixResult& clean = results.front();

    std::size_t next = 1;
    for (double rate : rates) {
      const analysis::MatrixResult& faulty =
          rate > 0.0 ? results[next++] : clean;

      int failed = 0;
      int run_retries = 0;
      double send_retries = 0.0;
      double err_sum = 0.0, clean_energy = 0.0, faulty_energy = 0.0;
      int survived = 0;
      for (const analysis::RunRecord& rec : faulty.records) {
        run_retries += rec.attempts - 1;
        send_retries += rec.send_retries;
        if (rec.failed()) {
          ++failed;
          continue;
        }
        const analysis::RunRecord& ref =
            clean.at(rec.nodes, rec.frequency_mhz);
        err_sum += std::abs(rec.seconds - ref.seconds) / ref.seconds;
        clean_energy += ref.energy.total_j();
        faulty_energy += rec.energy.total_j();
        ++survived;
      }
      table.add_row(
          {name, util::strf("%.2f", rate),
           util::strf("%d/%zu", failed, faulty.records.size()),
           util::strf("%d", run_retries), util::strf("%.0f", send_retries),
           survived > 0 ? util::strf("%.2f%%", 100.0 * err_sum / survived)
                        : "-",
           clean_energy > 0.0
               ? util::strf("%+.2f%%",
                            100.0 * (faulty_energy - clean_energy) /
                                clean_energy)
               : "-"});
    }
  }

  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "clean sweep = the model's perfect-cluster prediction; |dT|/T over "
      "surviving points tracks Hofmann et al.'s error degradation.\n");
  if (const std::string sweep_line = obs::sweep_counters_summary();
      !sweep_line.empty())
    std::printf("%s\n", sweep_line.c_str());
  if (cli.has("csv") &&
      !table.write_csv(cli.get("csv", "resilience_sweep.csv")))
    return 1;
  return obs::export_and_report(exec.observer()) ? 0 : 1;
}
