#include "pas/npb/ep.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "pas/analysis/sweep_executor.hpp"
#include "pas/mpi/runtime.hpp"
#include "pas/util/format.hpp"

namespace pas::npb {
namespace {

EpConfig small_ep() {
  EpConfig cfg;
  cfg.log2_pairs = 14;
  return cfg;
}

KernelResult run_ep(int nranks, double f_mhz, const EpConfig& cfg) {
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(16));
  KernelResult result;
  rt.run(nranks, f_mhz, [&](mpi::Comm& comm) {
    const KernelResult r = EpKernel(cfg).run(comm);
    if (comm.rank() == 0) result = r;
  });
  return result;
}

TEST(Ep, SequentialRunVerifies) {
  const KernelResult r = run_ep(1, 600, small_ep());
  EXPECT_TRUE(r.verified) << r.note;
  EXPECT_GT(r.value("accepted"), 0.0);
}

class EpRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, EpRanks, ::testing::Values(2, 3, 4, 8, 16));

TEST_P(EpRanks, ParallelMatchesSequentialReference) {
  const KernelResult r = run_ep(GetParam(), 1000, small_ep());
  EXPECT_TRUE(r.verified) << r.note;
}

// Concurrent columns ask the slice cache for the same chunks at the
// same moment, and each must get the chunk's one result. 2^22 pairs
// span four 2^20 chunks, and no other test uses this seed, so every
// chunk is cold when the four columns start together.
TEST(Ep, ConcurrentColumnsShareChunks) {
  EpConfig cfg;
  cfg.log2_pairs = 22;
  cfg.seed = 161803399ULL;
  const EpKernel kernel(cfg);
  const std::vector<int> nodes{1, 2, 4, 8};
  analysis::SweepSpec spec;
  spec.cluster = sim::ClusterConfig::paper_testbed(8);
  spec.options.jobs = 4;
  spec.options.use_cache = false;
  analysis::SweepExecutor executor(spec);
  const analysis::MatrixResult m = executor.run({&kernel, nodes, {600}});
  ASSERT_EQ(m.records.size(), nodes.size());
  for (const analysis::RunRecord& rec : m.records)
    EXPECT_TRUE(rec.verified) << "N=" << rec.nodes;

  // The N=1 sums are the sequential reference; every wider N reads the
  // same counts, and the same deviate sums up to reassociation.
  const KernelResult one = run_ep(1, 600, cfg);
  const EpKernel::Reference ref = EpKernel::reference(cfg);
  EXPECT_EQ(one.value("sx"), ref.sx);
  EXPECT_EQ(one.value("sy"), ref.sy);
  const double tol = 1e-8 * ref.accepted;
  for (const int n : nodes) {
    SCOPED_TRACE(n);
    const KernelResult r = run_ep(n, 600, cfg);
    EXPECT_TRUE(r.verified) << r.note;
    EXPECT_EQ(r.value("accepted"), one.value("accepted"));
    for (int i = 0; i < 10; ++i) {
      const std::string q = pas::util::strf("q%d", i);
      EXPECT_EQ(r.value(q), one.value(q)) << q;
    }
    EXPECT_NEAR(r.value("sx"), one.value("sx"), tol);
    EXPECT_NEAR(r.value("sy"), one.value("sy"), tol);
  }
}

TEST(Ep, AnnulusCountsSumToAccepted) {
  const KernelResult r = run_ep(4, 1400, small_ep());
  double q_total = 0.0;
  for (int i = 0; i < 10; ++i)
    q_total += r.value(pas::util::strf("q%d", i));
  EXPECT_DOUBLE_EQ(q_total, r.value("accepted"));
}

TEST(Ep, AcceptanceRateNearPiOver4) {
  const KernelResult r = run_ep(1, 600, small_ep());
  const double rate = r.value("accepted") / (1 << 14);
  EXPECT_NEAR(rate, 0.7854, 0.02);
}

TEST(Ep, ReferenceIsStable) {
  const auto a = EpKernel::reference(small_ep());
  const auto b = EpKernel::reference(small_ep());
  EXPECT_DOUBLE_EQ(a.sx, b.sx);
  EXPECT_DOUBLE_EQ(a.sy, b.sy);
  EXPECT_DOUBLE_EQ(a.accepted, b.accepted);
}

TEST(Ep, GaussianSumsSmallRelativeToCount) {
  // Sums of ~N(0,1) deviates should be O(sqrt(n)), not O(n).
  const auto ref = EpKernel::reference(small_ep());
  EXPECT_LT(std::abs(ref.sx), ref.accepted * 0.05);
  EXPECT_LT(std::abs(ref.sy), ref.accepted * 0.05);
}

TEST(Ep, WorkloadIsComputeBound) {
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(4));
  const mpi::RunResult run = rt.run(1, 600, [&](mpi::Comm& comm) {
    (void)EpKernel(small_ep()).run(comm);
  });
  const auto& rank = run.ranks[0];
  // ON-chip (register + L1) work dominates; OFF-chip is negligible.
  EXPECT_LT(rank.memory_seconds, 0.02 * rank.cpu_seconds);
}

TEST(Ep, TimeScalesLinearlyWithRanks) {
  // Needs enough work per rank that the final allreduce is negligible
  // (EP's defining property holds in the limit, not at toy sizes).
  EpConfig cfg;
  cfg.log2_pairs = 20;
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(16));
  auto time_at = [&](int n) {
    return rt.run(n, 600, [&](mpi::Comm& comm) {
      (void)EpKernel(cfg).run(comm);
    }).makespan;
  };
  const double t1 = time_at(1);
  const double t8 = time_at(8);
  EXPECT_NEAR(t1 / t8, 8.0, 0.5);
}

TEST(Ep, TimeScalesLinearlyWithFrequency) {
  EpConfig cfg;
  cfg.log2_pairs = 16;
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(4));
  auto time_at = [&](double f) {
    return rt.run(1, f, [&](mpi::Comm& comm) {
      (void)EpKernel(cfg).run(comm);
    }).makespan;
  };
  EXPECT_NEAR(time_at(600) / time_at(1200), 2.0, 0.05);
}

TEST(Ep, RemainderDistributionCoversAllPairs) {
  // 2^14 pairs over 3 ranks: exercise the uneven block split.
  const KernelResult r = run_ep(3, 800, small_ep());
  EXPECT_TRUE(r.verified) << r.note;
}

}  // namespace
}  // namespace pas::npb
