// Experiment orchestration shared by the bench binaries: the paper's
// configuration grid, kernel factories, and the glue that turns
// substrate measurements (counters, MemBench, MsgBench, profiled runs)
// into fully parameterized SP / FP predictors.
#pragma once

#include <memory>
#include <string>

#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sweep_spec.hpp"
#include "pas/core/fine_grain_param.hpp"
#include "pas/core/simplified_param.hpp"
#include "pas/counters/counter_set.hpp"
#include "pas/npb/cg.hpp"
#include "pas/npb/ep.hpp"
#include "pas/npb/ft.hpp"
#include "pas/npb/lu.hpp"
#include "pas/npb/mg.hpp"
#include "pas/tools/membench.hpp"
#include "pas/tools/msgbench.hpp"

namespace pas::util {
class Cli;
}

namespace pas::analysis {

class SweepExecutor;

/// The paper's experimental grid (§4.1): 16 Pentium-M nodes, N in
/// {1, 2, 4, 8, 16}, f in {600..1400} MHz, base (1 node, 600 MHz).
struct ExperimentEnv {
  sim::ClusterConfig cluster = sim::ClusterConfig::paper_testbed();
  std::vector<int> nodes{1, 2, 4, 8, 16};
  std::vector<int> parallel_nodes{2, 4, 8, 16};
  std::vector<double> freqs_mhz{600.0, 800.0, 1000.0, 1200.0, 1400.0};
  double base_f_mhz = 600.0;

  /// The top frequency and the largest node count of the axes, in any
  /// order: a spec may list an axis descending.
  double top_f_mhz() const;
  int max_nodes() const;
  /// The smallest node count above 1 (2 on the preset grids); requires
  /// a non-empty parallel_nodes.
  int min_parallel_nodes() const;

  static ExperimentEnv paper();
  /// Reduced grid (N <= 4, 3 frequencies) for quick runs and tests.
  static ExperimentEnv small();
};

/// "EP", "FT", "LU", "CG" or "MG" at the given scale (the Scale enum
/// lives in pas/analysis/sweep_spec.hpp); throws std::invalid_argument
/// for unknown names.
std::unique_ptr<npb::Kernel> make_kernel(const std::string& name, Scale scale);

/// The spec's kernel at the spec's scale.
std::unique_ptr<npb::Kernel> make_spec_kernel(const SweepSpec& spec);

/// Expands a spec document into the environment the bench binaries
/// consume: the scale's preset grid with the spec's axis overrides
/// applied (parallel_nodes = the node counts > 1, base_f_mhz = the
/// smallest frequency — the default grids keep the paper's 600 MHz
/// base point).
ExperimentEnv env_for_spec(const SweepSpec& spec);

/// What a binary's analyses read off the grid besides N=1: distinct
/// node counts above 1 (a shape check against N=1, a fitted
/// N-dependence) and distinct frequencies (a fitted f-dependence).
/// `why` names the analysis in the usage error.
struct GridNeeds {
  int nodes_above_one = 0;
  int freqs = 1;
  const char* why = "";
};

/// The workload fit's basis {g, g/N, [N>1], [N>1]/N} (g = f0/f) is
/// singular unless two node counts above 1 and two frequencies vary it.
inline constexpr GridNeeds kWorkloadFitNeeds{
    2, 2, "the workload fit T = A g + B g/N + C + D/N"};

/// Eq 1 divides by T_1, so a binary that prints speedups needs N=1 on
/// its node axis, plus whatever `needs` asks for. A grid that lacks any
/// of it is a usage error (Cli::usage_error, exit status 2) naming what
/// is missing, before anything runs.
void require_base_node(const util::Cli& cli, const ExperimentEnv& env,
                       const GridNeeds& needs = {});

/// Adapters between substrate outputs and core-model inputs (the core
/// library deliberately does not link against counters/tools).
core::LevelWorkload to_level_workload(
    const counters::WorkloadDecomposition& d);
core::LevelSeconds to_level_seconds(const tools::LevelTimes& t);

/// §5.1: measures T_1(f) for every frequency and T_N(f0) for every
/// node count, and returns the ready SP predictor.
core::SimplifiedParameterization parameterize_simplified(
    const npb::Kernel& kernel, const ExperimentEnv& env);

/// §5.2: counter-derived workload distribution (1-processor run),
/// MemBench level times per frequency, and per-node-count
/// communication profiles priced by MsgBench. Returns the ready FP
/// predictor.
core::FineGrainParameterization parameterize_fine_grain(
    const npb::Kernel& kernel, const ExperimentEnv& env);

/// The counter measurement of §5.2 step 1 on its own: runs the kernel
/// on one processor and returns the PAPI-style event set.
counters::CounterSet measure_counters(const npb::Kernel& kernel,
                                      const ExperimentEnv& env);

/// Executor-backed variants: identical results to the serial functions
/// above, but profiling runs go through `exec` — concurrent across the
/// pool and memoized, so operating points a sweep already simulated
/// (e.g. the (1, f) column and the (N, f0) row of the full grid) are
/// cache hits instead of re-runs. `exec` must have been built from
/// `env.cluster` with the default power model.
core::SimplifiedParameterization parameterize_simplified(
    const npb::Kernel& kernel, const ExperimentEnv& env, SweepExecutor& exec);
core::FineGrainParameterization parameterize_fine_grain(
    const npb::Kernel& kernel, const ExperimentEnv& env, SweepExecutor& exec);
counters::CounterSet measure_counters(const npb::Kernel& kernel,
                                      const ExperimentEnv& env,
                                      SweepExecutor& exec);

}  // namespace pas::analysis
