// Sampled estimation (DESIGN.md §14).
//
// The sampling contract is statistical: sampled records are estimates
// that must cover the exact makespan within their confidence interval
// (checked here by running the executor with verify_sampling = 1).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sampled_estimator.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/sim/sampling.hpp"

namespace pas::analysis {
namespace {

// ---- SampledEstimator unit tests ----------------------------------

sim::SampleProbe make_probe(
    const std::vector<std::vector<std::pair<int, double>>>& lanes) {
  sim::SampleProbe probe;
  probe.begin(static_cast<int>(lanes.size()));
  for (std::size_t r = 0; r < lanes.size(); ++r) {
    for (const auto& [iter, now] : lanes[r]) {
      sim::RankSample s;
      s.iter = iter;
      s.now = now;
      probe.record(static_cast<int>(r), std::move(s));
    }
  }
  return probe;
}

TEST(SampledEstimator, SteadyStateExtrapolationIsExactWithZeroCi) {
  // Baseline at 0, warmup iterations 1..2, then every 5th: identical
  // per-iteration cost 1s, measured makespan 6.5s (setup + epilogue).
  const auto probe = make_probe({{{0, 0.0},
                                  {1, 1.0},
                                  {2, 2.0},
                                  {5, 3.0},
                                  {10, 4.0},
                                  {15, 5.0},
                                  {20, 6.0}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/20, /*warmup=*/2, /*measured=*/6.5);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.total_iters, 20);
  EXPECT_EQ(est.sampled_iters, 6);
  // 14 skipped iterations at exactly 1s each.
  EXPECT_DOUBLE_EQ(est.seconds, 20.5);
  EXPECT_DOUBLE_EQ(est.ci_seconds, 0.0);
}

TEST(SampledEstimator, VariancePropagatesIntoTheHalfWidth) {
  // Deltas 1s and 2s -> mean 1.5, sd sqrt(0.5); 4 skipped iterations.
  const auto probe = make_probe({{{0, 0.0}, {2, 1.0}, {4, 3.0}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/6, /*warmup=*/0, /*measured=*/3.5);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.sampled_iters, 2);
  EXPECT_DOUBLE_EQ(est.seconds, 3.5 + 1.5 * 4);
  // 1.96 * (sqrt(0.5) / sqrt(2)) * 4 = 1.96 * 0.5 * 4.
  EXPECT_NEAR(est.ci_seconds, 3.92, 1e-12);
}

TEST(SampledEstimator, NothingSkippedReturnsTheMeasuredRun) {
  const auto probe = make_probe({{{0, 0.0}, {1, 1.0}, {2, 2.0}, {3, 3.0}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/3, /*warmup=*/0, /*measured=*/3.25);
  ASSERT_TRUE(est.valid);
  EXPECT_DOUBLE_EQ(est.seconds, 3.25);
  EXPECT_DOUBLE_EQ(est.ci_seconds, 0.0);
}

TEST(SampledEstimator, BaselineOnlyProbeCannotExtrapolate) {
  const auto probe = make_probe({{{0, 0.0}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/10, /*warmup=*/0, /*measured=*/1.0);
  EXPECT_FALSE(est.valid);
  const sim::SampleProbe unstarted;
  EXPECT_FALSE(estimate_sampled_run(unstarted, 10, 0, 1.0).valid);
}

TEST(SampledEstimator, ClusterSeriesIsTheMaxOverRanks) {
  // Rank 1 is the straggler at every boundary; the makespan estimate
  // must extrapolate the max series, not rank 0's.
  const auto probe =
      make_probe({{{0, 0.0}, {1, 1.0}, {2, 2.0}},
                  {{0, 0.0}, {1, 1.5}, {2, 2.5}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/4, /*warmup=*/0, /*measured=*/3.0);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.sampled_iters, 2);
  // Max series deltas: 1.5 then 1.0 -> mean 1.25 over 2 skipped;
  // sd sqrt(0.125), so 1.96 * sd / sqrt(2) * 2 = 0.98.
  EXPECT_DOUBLE_EQ(est.seconds, 3.0 + 1.25 * 2);
  EXPECT_NEAR(est.ci_seconds, 0.98, 1e-12);
}

// ---- executor-level sampling -------------------------------------

SweepSpec spec_with(sim::ClusterConfig cluster, SweepOptions opts) {
  SweepSpec spec;
  spec.cluster = std::move(cluster);
  spec.options = std::move(opts);
  return spec;
}

TEST(SweepSampling, CtorRejectsContradictoryOptions) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  {
    SweepOptions o;
    o.sampling = true;
    o.verify_replay = true;
    EXPECT_THROW(SweepExecutor(spec_with(cfg, o)), std::invalid_argument);
  }
  {
    SweepOptions o;
    o.verify_sampling = 0.5;  // without sampling
    EXPECT_THROW(SweepExecutor(spec_with(cfg, o)), std::invalid_argument);
  }
  {
    SweepOptions o;
    o.sampling = true;
    o.sample_period = 1;
    EXPECT_THROW(SweepExecutor(spec_with(cfg, o)), std::invalid_argument);
  }
  {
    SweepOptions o;
    o.sampling = true;
    o.warmup_iters = -1;
    EXPECT_THROW(SweepExecutor(spec_with(cfg, o)), std::invalid_argument);
  }
}

// Sampled sweep with verify_sampling = 1: every point is re-simulated
// exactly and the exact makespan must fall inside the estimate's
// confidence interval — a CI violation aborts the sweep, so finishing
// IS the assertion. Record shape is checked on top.
TEST(SweepSampling, SampledGridCoversExactRunsWithinCi) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto base = make_kernel("FT", Scale::kSmall);
  const auto kernel = base->with_iterations(16);
  ASSERT_NE(kernel, nullptr);

  SweepOptions o;
  o.jobs = 2;
  o.sampling = true;
  o.sample_period = 4;
  o.warmup_iters = 2;
  o.verify_sampling = 1.0;
  SweepExecutor executor(spec_with(cfg, o));
  const MatrixResult got =
      executor.run({kernel.get(), {1, 2}, {800.0, 1200.0}});
  ASSERT_EQ(got.records.size(), 4u);
  for (const RunRecord& rec : got.records) {
    EXPECT_TRUE(rec.sampled);
    EXPECT_EQ(rec.total_iters, 16);
    EXPECT_GT(rec.sampled_iters, 0);
    EXPECT_LT(rec.sampled_iters, 16);
    EXPECT_GE(rec.ci_seconds, 0.0);
    EXPECT_GE(rec.ci_energy_j, 0.0);
    EXPECT_GT(rec.seconds, 0.0);
  }
}

}  // namespace
}  // namespace pas::analysis
