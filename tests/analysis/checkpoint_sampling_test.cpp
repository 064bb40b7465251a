// Checkpoint warm-starts + sampled estimation (DESIGN.md §14).
//
// The checkpoint contract is exact: truncating a run at an iteration
// boundary, serializing the captured state, and resuming a fresh run
// from the decoded checkpoint must reproduce the uninterrupted run bit
// for bit — every cached record byte and every trace event. The
// sampling contract is statistical: sampled records are estimates that
// must cover the exact makespan within their confidence interval
// (checked here by running the executor with verify_sampling = 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sampled_estimator.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/sim/checkpoint.hpp"
#include "pas/sim/sampling.hpp"
#include "pas/sim/trace.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

namespace fs = std::filesystem;

// The boundaries worth cutting at: the first iteration, the midpoint,
// and the final boundary (capture there leaves only the epilogue).
std::set<int> boundaries_of(int total) {
  std::set<int> b;
  for (int candidate : {1, total / 2, total})
    if (candidate >= 1 && candidate <= total) b.insert(candidate);
  return b;
}

std::string event_string(const sim::TraceEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%d|%.17g|%.17g|%d|%s|%s|%d", e.node,
                e.start_s, e.duration_s, static_cast<int>(e.activity),
                e.category.c_str(), e.label.c_str(),
                static_cast<int>(e.instant));
  return buf;
}

std::vector<std::string> canonical_events(std::vector<sim::TraceEvent> ev) {
  sim::sort_events(ev);
  std::vector<std::string> out;
  out.reserve(ev.size());
  for (const sim::TraceEvent& e : ev) out.push_back(event_string(e));
  return out;
}

// Truncate at `boundary`, round-trip the capture through its
// serialized form, resume, and demand the cold run's exact bytes.
void roundtrip_one(const sim::ClusterConfig& cfg, const npb::Kernel& kernel,
                   int nodes, int boundary, const std::string& cold_bytes) {
  sim::Checkpoint cap;
  SegmentOptions seg1;
  seg1.stop_at = boundary;
  seg1.capture = &cap;
  RunMatrix m1(cfg);
  const RunRecord partial = m1.run_segment(kernel, nodes, 1000.0, 0.0, 0, seg1);
  ASSERT_FALSE(partial.failed());
  EXPECT_EQ(cap.boundary, boundary);
  EXPECT_EQ(cap.nranks, nodes);

  const std::string encoded = cap.encode();
  sim::Checkpoint decoded;
  ASSERT_TRUE(sim::Checkpoint::decode(encoded, &decoded));
  EXPECT_EQ(decoded.encode(), encoded);

  SegmentOptions seg2;
  seg2.resume = &decoded;
  RunMatrix m2(cfg);
  const RunRecord resumed = m2.run_segment(kernel, nodes, 1000.0, 0.0, 0, seg2);
  EXPECT_EQ(RunCache::encode_record(resumed), cold_bytes);
}

TEST(CheckpointRoundTrip, AllKernelsAllBoundariesBitIdentical) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  for (const char* name : {"EP", "CG", "LU", "MG", "FT"}) {
    const auto kernel = make_kernel(name, Scale::kSmall);
    for (int nodes : {1, 2}) {
      const int total = kernel->iteration_count(nodes);
      ASSERT_GE(total, 1) << name;
      RunMatrix cold(cfg);
      const std::string cold_bytes =
          RunCache::encode_record(cold.run_one(*kernel, nodes, 1000.0));
      for (int boundary : boundaries_of(total)) {
        SCOPED_TRACE(std::string(name) + " nodes=" + std::to_string(nodes) +
                     " boundary=" + std::to_string(boundary) + "/" +
                     std::to_string(total));
        roundtrip_one(cfg, *kernel, nodes, boundary, cold_bytes);
      }
    }
  }
}

// Trace events across a cut: seg1 records everything up to the
// boundary plus its own *truncated* per-rank program spans; seg2
// records everything after (at restored virtual times) plus the
// full-length rank spans the cold run also records. So
// (seg1 minus "rank" spans) + seg2 == cold, event for event.
TEST(CheckpointRoundTrip, TraceEventsSpliceToTheColdRun) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("CG", Scale::kSmall);
  const int nodes = 2;
  const int boundary = kernel->iteration_count(nodes) / 2;
  ASSERT_GE(boundary, 1);

  RunMatrix cold(cfg);
  cold.tracer().enable();
  const RunRecord want = cold.run_one(*kernel, nodes, 1000.0);
  ASSERT_FALSE(want.failed());
  const std::vector<std::string> cold_ev =
      canonical_events(cold.tracer().events());

  sim::Checkpoint cap;
  SegmentOptions seg1;
  seg1.stop_at = boundary;
  seg1.capture = &cap;
  RunMatrix m1(cfg);
  m1.tracer().enable();
  (void)m1.run_segment(*kernel, nodes, 1000.0, 0.0, 0, seg1);

  SegmentOptions seg2;
  seg2.resume = &cap;
  RunMatrix m2(cfg);
  m2.tracer().enable();
  const RunRecord resumed = m2.run_segment(*kernel, nodes, 1000.0, 0.0, 0, seg2);
  EXPECT_EQ(RunCache::encode_record(resumed), RunCache::encode_record(want));

  std::vector<sim::TraceEvent> spliced;
  for (const sim::TraceEvent& e : m1.tracer().events())
    if (e.category != "rank") spliced.push_back(e);
  for (const sim::TraceEvent& e : m2.tracer().events()) spliced.push_back(e);
  EXPECT_EQ(canonical_events(std::move(spliced)), cold_ev);
}

// A corrupted .ckpt entry must never warm-start a run: the cache
// quarantines it to `<file>.bad` and falls back to the next-deepest
// boundary — across a process restart (fresh RunCache on the same dir).
TEST(CheckpointRoundTrip, CorruptCheckpointQuarantinedFallsBackShallower) {
  const std::string dir = pas::test::scratch_path("pasim_ckpt_quarantine");
  fs::remove_all(dir);
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const int nodes = 2;
  const int total = kernel->iteration_count(nodes);
  ASSERT_GE(total, 2);
  const std::string key =
      RunCache::checkpoint_key(*kernel, cfg, nodes, 1000.0, 0.0);

  {
    RunCache cache(dir);
    for (int boundary : {1, total}) {
      sim::Checkpoint cap;
      SegmentOptions seg;
      seg.stop_at = boundary;
      seg.capture = &cap;
      RunMatrix m(cfg);
      (void)m.run_segment(*kernel, nodes, 1000.0, 0.0, 0, seg);
      cache.store_checkpoint(key, std::move(cap));
    }
  }

  {  // "Another process" sees the deepest persisted boundary.
    RunCache warm(dir);
    const auto deepest = warm.lookup_checkpoint(key, total);
    ASSERT_NE(deepest, nullptr);
    EXPECT_EQ(deepest->boundary, total);
  }

  // Corrupt the deepest entry on disk (truncate mid-payload).
  fs::path deepest_path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string fname = entry.path().filename().string();
    if (fname.find("_b" + std::to_string(total) + ".ckpt") !=
        std::string::npos)
      deepest_path = entry.path();
  }
  ASSERT_FALSE(deepest_path.empty());
  {
    std::ofstream out(deepest_path, std::ios::trunc);
    out << "pasim-run-cache v5\ntruncated garbage";
  }

  RunCache fresh(dir);
  const auto got = fresh.lookup_checkpoint(key, total);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->boundary, 1);
  EXPECT_TRUE(fs::exists(deepest_path.string() + ".bad"));
  EXPECT_FALSE(fs::exists(deepest_path));

  // The shallow fallback still satisfies the exact contract.
  RunMatrix cold(cfg);
  const RunRecord want = cold.run_one(*kernel, nodes, 1000.0);
  SegmentOptions seg;
  seg.resume = got.get();
  RunMatrix m(cfg);
  const RunRecord resumed = m.run_segment(*kernel, nodes, 1000.0, 0.0, 0, seg);
  EXPECT_EQ(RunCache::encode_record(resumed), RunCache::encode_record(want));
}

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
      probe, /*total=*/20, /*start=*/0, /*warmup=*/2, /*period=*/5,
      /*measured=*/6.5);
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
      probe, /*total=*/6, /*start=*/0, /*warmup=*/0, /*period=*/2,
      /*measured=*/3.5);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.sampled_iters, 2);
  EXPECT_DOUBLE_EQ(est.seconds, 3.5 + 1.5 * 4);
  // 1.96 * (sqrt(0.5) / sqrt(2)) * 4 = 1.96 * 0.5 * 4.
  EXPECT_NEAR(est.ci_seconds, 3.92, 1e-12);
}

TEST(SampledEstimator, NothingSkippedReturnsTheMeasuredRun) {
  const auto probe = make_probe({{{0, 0.0}, {1, 1.0}, {2, 2.0}, {3, 3.0}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/3, /*start=*/0, /*warmup=*/0, /*period=*/2,
      /*measured=*/3.25);
  ASSERT_TRUE(est.valid);
  EXPECT_DOUBLE_EQ(est.seconds, 3.25);
  EXPECT_DOUBLE_EQ(est.ci_seconds, 0.0);
}

TEST(SampledEstimator, ResumeAtFullDepthIsExact) {
  // Warm-started at (or past) the final boundary: only the epilogue
  // executed, nothing to extrapolate, the measured makespan is exact.
  const sim::SampleProbe empty;
  const SampledEstimate est = estimate_sampled_run(
      empty, /*total=*/8, /*start=*/8, /*warmup=*/2, /*period=*/4,
      /*measured=*/1.75);
  ASSERT_TRUE(est.valid);
  EXPECT_DOUBLE_EQ(est.seconds, 1.75);
  EXPECT_DOUBLE_EQ(est.ci_seconds, 0.0);
}

TEST(SampledEstimator, BaselineOnlyProbeCannotExtrapolate) {
  const auto probe = make_probe({{{0, 0.0}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/10, /*start=*/0, /*warmup=*/0, /*period=*/5,
      /*measured=*/1.0);
  EXPECT_FALSE(est.valid);
  const sim::SampleProbe unstarted;
  EXPECT_FALSE(estimate_sampled_run(unstarted, 10, 0, 0, 5, 1.0).valid);
}

TEST(SampledEstimator, ClusterSeriesIsTheMaxOverRanks) {
  // Rank 1 is the straggler at every boundary; the makespan estimate
  // must extrapolate the max series, not rank 0's.
  const auto probe =
      make_probe({{{0, 0.0}, {1, 1.0}, {2, 2.0}},
                  {{0, 0.0}, {1, 1.5}, {2, 2.5}}});
  const SampledEstimate est = estimate_sampled_run(
      probe, /*total=*/4, /*start=*/0, /*warmup=*/0, /*period=*/2,
      /*measured=*/3.0);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.sampled_iters, 2);
  // Max series deltas: 1.5 then 1.0 -> mean 1.25 over 2 skipped;
  // sd sqrt(0.125), so 1.96 * sd / sqrt(2) * 2 = 0.98.
  EXPECT_DOUBLE_EQ(est.seconds, 3.0 + 1.25 * 2);
  EXPECT_NEAR(est.ci_seconds, 0.98, 1e-12);
}

// ---- executor-level sampling + warm-starts ------------------------

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
    o.checkpoints = true;
    o.use_cache = false;
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

// Warm-starting a deeper sweep from a shallower sweep's checkpoints is
// exact: the warm-started record carries the cold run's bytes, and the
// cache directory accumulates one checkpoint per iteration depth.
TEST(SweepCheckpoint, WarmStartedDeepRunMatchesColdBytes) {
  const std::string dir = pas::test::scratch_path("pasim_warmstart_bytes");
  fs::remove_all(dir);
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto base = make_kernel("FT", Scale::kSmall);
  const auto shallow = base->with_iterations(8);
  const auto deep = base->with_iterations(16);

  SweepOptions o;
  o.jobs = 1;
  o.checkpoints = true;
  o.cache_dir = dir;
  {
    SweepExecutor executor(spec_with(cfg, o));
    (void)executor.run({shallow.get(), {2}, {1000.0}});
  }
  int shallow_ckpts = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().find("_b8.ckpt") !=
        std::string::npos)
      ++shallow_ckpts;
  EXPECT_EQ(shallow_ckpts, 1);

  {  // A fresh executor ("second process") resumes from disk.
    SweepExecutor executor(spec_with(cfg, o));
    const MatrixResult warm = executor.run({deep.get(), {2}, {1000.0}});
    ASSERT_EQ(warm.records.size(), 1u);
    RunMatrix cold(cfg);
    const RunRecord want = cold.run_one(*deep, 2, 1000.0);
    EXPECT_EQ(RunCache::encode_record(warm.records[0]),
              RunCache::encode_record(want));
  }
  int deep_ckpts = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().find("_b16.ckpt") !=
        std::string::npos)
      ++deep_ckpts;
  EXPECT_EQ(deep_ckpts, 1);
}

}  // namespace
}  // namespace pas::analysis
