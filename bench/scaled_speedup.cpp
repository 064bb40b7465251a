// R1 — the related-work speedup models of the paper's §6, exercised on
// the simulated cluster: fixed-size (Amdahl/strong) scaling, Karp-Flatt
// experimental serial fractions, and fixed-time (Gustafson) scaling
// where the workload grows with the processor count.
//
// Expected shape: EP behaves like the ideal Gustafson workload (scaled
// run time flat, Karp-Flatt e ~ 0); FT's growing all-to-all overhead
// shows up as a rising Karp-Flatt serial fraction and scaled times that
// drift upward.
#include <algorithm>
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/core/baseline_models.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/table.hpp"

namespace {

using namespace pas;

std::unique_ptr<npb::Kernel> scaled_ep(int factor_log2) {
  npb::EpConfig cfg;
  cfg.log2_pairs = 20 + factor_log2;
  return std::make_unique<npb::EpKernel>(cfg);
}

std::unique_ptr<npb::Kernel> scaled_ft(int factor) {
  npb::FtConfig cfg;
  cfg.nx = cfg.ny = 64;
  cfg.nz = 16 * factor;  // scale the decomposed dimension with N
  cfg.niter = 2;
  cfg.roundtrip_check = false;
  return std::make_unique<npb::FtKernel>(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage({"spec", "nodes", "freq"});
  const analysis::SweepSpec spec = analysis::SweepSpec::from_cli(cli);
  const double f = cli.has("freq") ? cli.get_double("freq", 1400)
                   : spec.freqs_mhz.empty()
                       ? 1400
                       : *std::max_element(spec.freqs_mhz.begin(),
                                           spec.freqs_mhz.end());
  // Rows ascend whatever the listed order: the workload grows with the
  // row index, the first row is the scaled-time base and the last the
  // Sun-Ni point.
  std::vector<int> nodes =
      spec.nodes.empty() ? std::vector<int>{1, 2, 4, 8, 16} : spec.nodes;
  std::sort(nodes.begin(), nodes.end());
  analysis::RunMatrix matrix(sim::ClusterConfig::paper_testbed(16));

  for (const char* name : {"EP", "FT"}) {
    const bool is_ep = std::string(name) == "EP";

    // Fixed-size (strong) scaling at the standard problem size.
    const auto fixed = is_ep ? scaled_ep(0) : scaled_ft(4);
    core::TimingMatrix strong;
    for (int n : nodes)
      strong.add(n, f, matrix.run_one(*fixed, n, f).seconds);

    // Fixed-time (Gustafson) scaling: workload grows with N.
    std::vector<double> scaled_time;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const int n = nodes[i];
      const auto grown =
          is_ep ? scaled_ep(static_cast<int>(i)) : scaled_ft(n);
      scaled_time.push_back(matrix.run_one(*grown, n, f).seconds);
    }

    util::TextTable t(util::strf(
        "%s @ %.0f MHz: strong scaling vs fixed-time (Gustafson) scaling",
        name, f));
    t.set_header({"N", "S fixed-size", "efficiency", "Karp-Flatt e",
                  "T scaled (w x N)", "scaled / T1"});
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const int n = nodes[i];
      const double s = strong.speedup(n, f, 1, f);
      t.add_row(
          {util::strf("%d", n), util::strf("%.2f", s),
           util::strf("%.2f", core::parallel_efficiency(s, n)),
           n > 1 ? util::strf("%.4f", core::karp_flatt_serial_fraction(s, n))
                 : std::string("-"),
           util::strf("%.4f s", scaled_time[i]),
           util::strf("%.2f", scaled_time[i] / scaled_time[0])});
    }
    std::fputs(t.to_string().c_str(), stdout);

    // Sun-Ni: if memory allowed the workload to grow ~ N, the
    // memory-bounded speedup at the largest N would be:
    // Clamp: EP can come out marginally super-linear (e < 0) from
    // charge-rounding noise.
    const int n_top = nodes.back();
    const double kf = std::clamp(core::karp_flatt_serial_fraction(
                                     strong.speedup(n_top, f, 1, f), n_top),
                                 0.0, 1.0);
    std::printf(
        "  Sun-Ni memory-bounded speedup at N=%d with G(N)=N and the "
        "Karp-Flatt serial fraction: %.2f (Gustafson: %.2f, Amdahl: %.2f)\n\n",
        n_top, core::sun_ni_speedup(kf, n_top, static_cast<double>(n_top)),
        core::gustafson_speedup(kf, n_top),
        core::amdahl_speedup(1.0 - kf, n_top));
  }
  return 0;
}
