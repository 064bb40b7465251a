// Trace timeline — run a kernel with virtual-time tracing enabled and
// export a Chrome trace (chrome://tracing / Perfetto) showing every
// rank's compute blocks, sends and receives. The fastest way to *see*
// FT's all-to-all walls, LU's pipelined wavefront or a comm-DVFS
// schedule's phase boundaries.
//
//   ./examples/trace_timeline --kernel FT --nodes 4 --freq 1400
//       --out ft_trace.json [--comm-dvfs 600]   (one command line)
#include <algorithm>
#include <cstdio>

#include "pas/analysis/experiment.hpp"
#include "pas/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const util::Cli cli(argc, argv);
  cli.check_usage(
      {"spec", "kernel", "small", "nodes", "freq", "freqs", "comm-dvfs",
       "out"});
  // Historical defaults: FT at the small scale, one 4-node point.
  const bool named = cli.has("spec") || cli.has("kernel");
  analysis::SweepSpec spec =
      analysis::SweepSpec::from_cli(cli, named ? nullptr : "FT");
  if (!cli.has("spec") && !cli.has("small")) spec.scale = "small";
  const std::string name = spec.kernel;
  // One point: the largest listed node count and top listed frequency.
  const int nodes = spec.nodes.empty()
                        ? 4
                        : *std::max_element(spec.nodes.begin(),
                                            spec.nodes.end());
  const double freq = cli.has("freq") ? cli.get_double("freq", 1400)
                      : spec.freqs_mhz.empty()
                          ? 1400
                          : *std::max_element(spec.freqs_mhz.begin(),
                                              spec.freqs_mhz.end());
  const double comm_dvfs = spec.comm_dvfs_mhz;
  const std::string out = cli.get("out", "trace.json");

  const auto kernel = analysis::make_spec_kernel(spec);
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed());
  rt.tracer().enable();

  const mpi::RunResult result = rt.run(nodes, freq, [&](mpi::Comm& comm) {
    if (comm_dvfs != 0.0) comm.set_comm_dvfs_mhz(comm_dvfs);
    (void)kernel->run(comm);
  });

  std::printf("%s on %d nodes @ %.0f MHz: %.4f s, %zu trace events\n",
              name.c_str(), nodes, freq, result.makespan,
              rt.tracer().size());
  if (const obs::WriteResult w = rt.tracer().write_chrome_json(out); !w) {
    std::fprintf(stderr, "%s\n", w.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s — open in chrome://tracing or ui.perfetto.dev\n",
              out.c_str());

  // A quick textual digest: per-rank network share.
  for (const mpi::RankReport& r : result.ranks) {
    std::printf("  rank %d: cpu %.4fs, mem %.4fs, net %.4fs (%.0f%% comm)\n",
                r.rank, r.cpu_seconds, r.memory_seconds, r.network_seconds,
                100.0 * r.network_seconds / r.finish_time);
  }
  return 0;
}
