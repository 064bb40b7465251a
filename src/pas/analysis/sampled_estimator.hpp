// SampledEstimator — SMARTS-style extrapolation for sampled runs
// (DESIGN.md §14).
//
// A sampled run executes only a systematic subset of a kernel's
// iterations (every `sample_period`-th after a detailed warming window
// of `warmup_iters`); skipped iterations execute nothing, so the run's
// measured makespan covers setup + the detailed subset + the epilogue.
// The estimator reconstructs the full-run time from the per-boundary
// snapshots a sim::SampleProbe collected:
//
//   * the cluster-level series is the max-over-ranks virtual `now` at
//     each recorded iteration boundary (the makespan is a max, so the
//     estimator extrapolates the same statistic it predicts);
//   * consecutive recorded boundaries differ by the cost of exactly
//     one detailed iteration (everything between them was skipped and
//     cost nothing), so the post-warmup deltas are i.i.d. samples of
//     the per-iteration cost;
//   * estimate = measured + mean(delta) * skipped, with a normal-
//     approximation confidence interval 1.96 * sd / sqrt(n) * skipped.
//
// The estimate is exact when iterations cost identical time (our
// kernels' steady state) and carries a CI that widens with observed
// per-iteration variance. Sampled records are estimates by contract:
// they are never byte-compared, only checked for CI coverage
// (SweepOptions::verify_sampling).
#pragma once

#include "pas/sim/sampling.hpp"

namespace pas::analysis {

struct SampledEstimate {
  /// False when the probe held too few boundaries to estimate (the
  /// caller should fall back to the measured record unchanged).
  bool valid = false;
  double seconds = 0.0;     ///< estimated full-run makespan
  double ci_seconds = 0.0;  ///< 95% half-width on `seconds`
  int total_iters = 0;      ///< full iteration count being estimated
  int sampled_iters = 0;    ///< detailed iterations actually run
};

/// Extrapolates a full-run makespan from one sampled run.
///
/// `total_iters` is the kernel's full iteration count for this rank
/// count, `warmup_iters` the detailed warming window of the plan the
/// run executed (the sampling period itself is encoded in which
/// boundaries the probe holds), and `measured_seconds` its measured
/// makespan.
SampledEstimate estimate_sampled_run(const sim::SampleProbe& probe,
                                     int total_iters, int warmup_iters,
                                     double measured_seconds);

}  // namespace pas::analysis
