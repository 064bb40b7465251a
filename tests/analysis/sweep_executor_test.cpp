#include "pas/analysis/sweep_executor.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/run_matrix.hpp"
#include "pas/util/cli.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

// Bitwise equality across every RunRecord field — the executor's
// determinism guarantee (DESIGN.md §6) is exact, not approximate.
void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.frequency_mhz, b.frequency_mhz);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.mean_overhead_s, b.mean_overhead_s);
  EXPECT_EQ(a.mean_cpu_s, b.mean_cpu_s);
  EXPECT_EQ(a.mean_memory_s, b.mean_memory_s);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.energy.cpu_j, b.energy.cpu_j);
  EXPECT_EQ(a.energy.memory_j, b.energy.memory_j);
  EXPECT_EQ(a.energy.network_j, b.energy.network_j);
  EXPECT_EQ(a.energy.idle_j, b.energy.idle_j);
  EXPECT_EQ(a.messages_per_rank, b.messages_per_rank);
  EXPECT_EQ(a.doubles_per_message, b.doubles_per_message);
  EXPECT_EQ(a.executed_per_rank.reg_ops, b.executed_per_rank.reg_ops);
  EXPECT_EQ(a.executed_per_rank.l1_ops, b.executed_per_rank.l1_ops);
  EXPECT_EQ(a.executed_per_rank.l2_ops, b.executed_per_rank.l2_ops);
  EXPECT_EQ(a.executed_per_rank.mem_ops, b.executed_per_rank.mem_ops);
}

SweepOptions jobs(int n) {
  SweepOptions o;
  o.jobs = n;
  return o;
}

SweepSpec make_spec(sim::ClusterConfig cluster, SweepOptions opts) {
  SweepSpec spec;
  spec.cluster = std::move(cluster);
  spec.options = std::move(opts);
  return spec;
}

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

/// setenv/unsetenv scoped to one test, restoring the prior value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(SweepExecutor, ParallelSweepMatchesSerialBitForBit) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::vector<int> nodes{1, 2, 4};
  const std::vector<double> freqs{600, 1000, 1400};

  RunMatrix serial(cfg);
  const MatrixResult want = serial.sweep(*kernel, nodes, freqs);

  SweepExecutor executor(make_spec(cfg, jobs(4)));
  const MatrixResult got = executor.run({kernel.get(), nodes, freqs});

  ASSERT_EQ(got.records.size(), want.records.size());
  // Same grid order (nodes-major, frequency-minor), same bits.
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
  for (int n : nodes)
    for (double f : freqs) EXPECT_EQ(got.times.at(n, f), want.times.at(n, f));
}

// The batched replay engine at full concurrency: jobs-8 sweeps over
// fast-path kernels must match the serial RunMatrix bit for bit, with
// and without communication-phase DVFS. This suite runs under TSan in
// the tier-1 replay stage (scripts/tier1.sh).
TEST(BatchedSweep, JobsEightMatchesSerialBitForBit) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const std::vector<int> nodes{1, 2, 4};
  const std::vector<double> freqs{600, 800, 1000, 1200, 1400};
  for (const char* name : {"FT", "CG"}) {
    SCOPED_TRACE(name);
    const auto kernel = make_kernel(name, Scale::kSmall);
    RunMatrix serial(cfg);
    const MatrixResult want = serial.sweep(*kernel, nodes, freqs);
    SweepExecutor executor(make_spec(cfg, jobs(8)));
    const MatrixResult got = executor.run({kernel.get(), nodes, freqs});
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < want.records.size(); ++i)
      expect_identical(got.records[i], want.records[i]);
  }
}

TEST(BatchedSweep, CommDvfsColumnsMatchSerialAtJobsEight) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::vector<int> nodes{2, 4};
  const std::vector<double> freqs{600, 800, 1000, 1400};
  RunMatrix serial(cfg);
  const MatrixResult want = serial.sweep(*kernel, nodes, freqs, 600);
  SweepExecutor executor(make_spec(cfg, jobs(8)));
  const MatrixResult got = executor.run({kernel.get(), nodes, freqs, 600});
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
}

// run_all drains every request's tasks as one batch; each result must
// equal a run() of its request alone, byte for byte, at any --jobs — on
// the column-task path (clean, and with faults armed) and the
// point-task path (sampled estimation turns the fast path off). Sweep
// ids follow request order.
TEST(SweepExecutor, RunAllMatchesPerRequestRuns) {
  const std::vector<int> nodes{1, 2, 4};
  const std::vector<double> freqs{600, 1000, 1400};
  std::vector<std::unique_ptr<npb::Kernel>> kernels;
  for (const char* name : {"EP", "FT", "LU"})
    kernels.push_back(make_kernel(name, Scale::kSmall));
  const auto encode = [](const MatrixResult& m) {
    std::string bytes;
    for (const RunRecord& rec : m.records)
      bytes += RunCache::encode_record(rec);
    return bytes;
  };
  for (const char* leg : {"clean", "faults armed", "sampled"}) {
    SCOPED_TRACE(leg);
    const std::string name = leg;
    auto cfg = sim::ClusterConfig::paper_testbed(4);
    if (name == "faults armed") cfg.fault = fault::FaultConfig::scaled(0.05, 3);
    const auto options = [&](int n) {
      SweepOptions o = jobs(n);
      if (name == "sampled") {
        o.sampling = true;
        o.sample_period = 2;
        o.warmup_iters = 0;
      }
      return o;
    };
    std::vector<SweepRequest> requests;
    std::vector<std::string> want;
    SweepExecutor single(make_spec(cfg, options(1)));
    for (const auto& kernel : kernels) {
      requests.push_back({kernel.get(), nodes, freqs});
      want.push_back(encode(single.run(requests.back())));
    }
    for (const int n : {1, 4}) {
      SCOPED_TRACE(n);
      SweepSpec spec = make_spec(cfg, options(n));
      spec.observer = std::make_shared<obs::Observer>(obs::ObsOptions{});
      SweepExecutor batch(spec);
      const std::vector<MatrixResult> got = batch.run_all(requests);
      ASSERT_EQ(got.size(), requests.size());
      for (std::size_t r = 0; r < requests.size(); ++r)
        EXPECT_EQ(encode(got[r]), want[r]) << requests[r].kernel->name();
      const std::vector<obs::Observer::SweepScope> sweeps =
          spec.observer->sweeps();
      ASSERT_EQ(sweeps.size(), requests.size());
      for (std::size_t r = 0; r < requests.size(); ++r) {
        EXPECT_EQ(sweeps[r].kernel, requests[r].kernel->name());
        for (const obs::Observer::PointSlot& slot : sweeps[r].slots)
          EXPECT_TRUE(slot.have_point);
      }
    }
  }
}

TEST(SweepExecutor, CommDvfsSweepMatchesSerial) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  RunMatrix serial(cfg);
  const RunRecord want = serial.run_one(*kernel, 4, 1400, 600);
  SweepExecutor executor(make_spec(cfg, jobs(2)));
  expect_identical(executor.run_one(*kernel, 4, 1400, 600), want);
}

TEST(SweepExecutor, RunPointsMatchesInputOrder) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  SweepExecutor executor(make_spec(cfg, jobs(3)));
  const std::vector<SweepExecutor::Point> points{
      {4, 1400}, {1, 600}, {2, 1000}};
  const std::vector<RunRecord> records = executor.run_points(*kernel, points);
  ASSERT_EQ(records.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(records[i].nodes, points[i].nodes);
    EXPECT_EQ(records[i].frequency_mhz, points[i].frequency_mhz);
  }
}

TEST(SweepExecutor, CacheHitReturnsIdenticalRecord) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  SweepExecutor executor(make_spec(cfg, jobs(1)));
  const RunRecord fresh = executor.run_one(*kernel, 2, 1000);
  EXPECT_EQ(executor.cache().hits(), 0u);
  const RunRecord hit = executor.run_one(*kernel, 2, 1000);
  EXPECT_EQ(executor.cache().hits(), 1u);
  expect_identical(hit, fresh);
}

TEST(SweepExecutor, DiskCacheRoundTripsRecordsExactly) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::string dir =
      pas::test::scratch_path("pasim_sweep_cache_test");
  std::filesystem::remove_all(dir);  // stale entries from earlier runs

  SweepOptions warm = jobs(1);
  warm.cache_dir = dir;
  SweepExecutor writer(make_spec(cfg, warm));
  const MatrixResult want = writer.run({kernel.get(), {1, 2}, {600, 1400}});
  EXPECT_EQ(writer.cache().stores(), 4u);

  // A new executor (fresh memory) must hit the disk entries and get the
  // same bits back through the hexfloat round trip.
  SweepExecutor reader(make_spec(cfg, warm));
  const MatrixResult got = reader.run({kernel.get(), {1, 2}, {600, 1400}});
  EXPECT_EQ(reader.cache().hits(), 4u);
  EXPECT_EQ(reader.cache().misses(), 0u);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
}

TEST(SweepExecutor, CorruptDiskEntryIsQuarantinedAndResimulated) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::string dir = pas::test::scratch_path("pasim_quarantine_test");
  std::filesystem::remove_all(dir);

  SweepOptions opts = jobs(1);
  opts.cache_dir = dir;
  SweepExecutor writer(make_spec(cfg, opts));
  const RunRecord want = writer.run_one(*kernel, 2, 1000);
  ASSERT_EQ(writer.cache().stores(), 1u);

  // Truncate the single on-disk entry to garbage.
  std::filesystem::path entry;
  for (const auto& f : std::filesystem::directory_iterator(dir))
    if (f.path().extension() == ".run") entry = f.path();
  ASSERT_FALSE(entry.empty());
  {
    std::FILE* f = std::fopen(entry.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("pasim-run-cache v1\ntruncated mid-write", f);
    std::fclose(f);
  }

  // A fresh executor treats the corrupt entry as a miss, re-simulates
  // bit-identically, and moves the garbage aside so it can never
  // satisfy a later lookup.
  SweepExecutor reader(make_spec(cfg, opts));
  const RunRecord got = reader.run_one(*kernel, 2, 1000);
  EXPECT_EQ(reader.cache().hits(), 0u);
  EXPECT_EQ(reader.cache().misses(), 1u);
  expect_identical(got, want);
  EXPECT_TRUE(std::filesystem::exists(entry.string() + ".bad"));
}

TEST(SweepExecutor, FilenameCollisionMissesWithoutQuarantine) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::string dir = pas::test::scratch_path("pasim_collision_test");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SweepOptions opts = jobs(1);
  opts.cache_dir = dir;
  SweepExecutor executor(make_spec(cfg, opts));
  const RunRecord fresh = executor.run_one(*kernel, 2, 1000);
  // Rewrite the entry as a *valid* current-version file holding a
  // different key: an fnv1a filename collision, not corruption. It must
  // stay untouched (the other key's owner still needs it) and miss.
  std::filesystem::path entry;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".run") entry = e.path();
  ASSERT_FALSE(entry.empty());
  {
    std::FILE* out = std::fopen(entry.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fputs(
        "pasim-run-cache v5\nkey v5|someone-elses-point\n"
        "sum 0000000000000000\n",
        out);
    std::fclose(out);
  }
  SweepExecutor again(make_spec(cfg, opts));
  const RunRecord resim = again.run_one(*kernel, 2, 1000);
  EXPECT_EQ(again.cache().hits(), 0u);
  expect_identical(resim, fresh);
  EXPECT_FALSE(std::filesystem::exists(entry.string() + ".bad"));
}

TEST(SweepExecutor, NoCacheOptionAlwaysSimulates) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  SweepOptions opts = jobs(1);
  opts.use_cache = false;
  SweepExecutor executor(make_spec(cfg, opts));
  const RunRecord a = executor.run_one(*kernel, 1, 600);
  const RunRecord b = executor.run_one(*kernel, 1, 600);
  EXPECT_EQ(executor.cache().hits(), 0u);
  EXPECT_EQ(executor.cache().stores(), 0u);
  expect_identical(a, b);  // determinism holds without memoization too
}

TEST(SweepExecutor, CacheKeySeparatesKernelsAndPoints) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const power::PowerModel power;
  const auto ep = make_kernel("EP", Scale::kSmall);
  const auto ft = make_kernel("FT", Scale::kSmall);
  const std::string base = RunCache::key(*ep, cfg, power, 2, 1000, 0);
  EXPECT_NE(base, RunCache::key(*ft, cfg, power, 2, 1000, 0));
  EXPECT_NE(base, RunCache::key(*ep, cfg, power, 4, 1000, 0));
  EXPECT_NE(base, RunCache::key(*ep, cfg, power, 2, 600, 0));
  EXPECT_NE(base, RunCache::key(*ep, cfg, power, 2, 1000, 600));
  EXPECT_EQ(base, RunCache::key(*ep, cfg, power, 2, 1000, 0));
}

TEST(SweepExecutor, BadPointExceptionPropagates) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  SweepExecutor executor(make_spec(cfg, jobs(2)));
  // 725 MHz is not an operating point of the paper testbed.
  EXPECT_THROW(
      executor.run_points(*kernel, {{1, 600}, {1, 725}, {2, 600}}),
      std::out_of_range);
}

TEST(MatrixResult, IndexFollowsDirectAppends) {
  RunMatrix matrix(sim::ClusterConfig::paper_testbed(2));
  const auto kernel = make_kernel("EP", Scale::kSmall);
  MatrixResult result = matrix.sweep(*kernel, {1}, {600});
  EXPECT_EQ(result.at(1, 600).nodes, 1);
  // Appending to `records` directly (bypassing add) must still be
  // visible through at(): the index is rebuilt lazily.
  RunRecord extra = matrix.run_one(*kernel, 2, 1400);
  result.records.push_back(extra);
  EXPECT_EQ(result.at(2, 1400).nodes, 2);
  EXPECT_THROW(result.at(2, 600), std::out_of_range);
}

// $PASIM_JOBS stands in for --jobs only when the flag is absent, and
// is held to the flag's rules — garbage must fail loudly, not fall
// back to a default (ISSUE 3 bugfix).
TEST(SweepOptions, EnvJobsMustBeAPositiveInteger) {
  const util::Cli empty = make_cli({});
  for (const char* bad : {"three", "", "0", "-2", "4x"}) {
    ScopedEnv env("PASIM_JOBS", bad);
    EXPECT_THROW(SweepOptions::from_cli(empty), std::invalid_argument)
        << "PASIM_JOBS=\"" << bad << "\" should be rejected";
  }
  ScopedEnv env("PASIM_JOBS", "6");
  EXPECT_EQ(SweepOptions::from_cli(empty).jobs, 6);
}

TEST(SweepOptions, JobsFlagWinsOverEnvironment) {
  // With --jobs given, the environment is not even consulted, so a
  // broken value there cannot sabotage an explicit flag.
  ScopedEnv env("PASIM_JOBS", "garbage");
  EXPECT_EQ(SweepOptions::from_cli(make_cli({"--jobs", "2"})).jobs, 2);
}

TEST(SweepOptions, EnvCacheDirMustNotBeEmpty) {
  const util::Cli empty = make_cli({});
  {
    ScopedEnv env("PASIM_CACHE_DIR", "");
    EXPECT_THROW(SweepOptions::from_cli(empty), std::invalid_argument);
  }
  ScopedEnv env("PASIM_CACHE_DIR", "/tmp/pasim_env_cache_test");
  EXPECT_EQ(SweepOptions::from_cli(empty).cache_dir,
            "/tmp/pasim_env_cache_test");
  // --no-cache still disables everything, environment included.
  const SweepOptions off = SweepOptions::from_cli(make_cli({"--no-cache"}));
  EXPECT_FALSE(off.use_cache);
  EXPECT_TRUE(off.cache_dir.empty());
}

TEST(SweepExecutor, SpecFaultOverridesClusterFault) {
  auto cfg = sim::ClusterConfig::paper_testbed(2);
  cfg.fault = fault::FaultConfig::scaled(0.5, 7);
  SweepSpec spec;
  spec.cluster = cfg;
  spec.fault = fault::FaultConfig{};  // sweep a clean override
  spec.options = jobs(1);
  const SweepExecutor exec(spec);
  EXPECT_FALSE(exec.cluster().fault.enabled());
}

TEST(SweepExecutor, RunRejectsNullKernel) {
  SweepSpec spec;
  spec.cluster = sim::ClusterConfig::paper_testbed(2);
  spec.options = jobs(1);
  SweepExecutor exec(spec);
  EXPECT_THROW(exec.run(SweepRequest{}), std::invalid_argument);
}

TEST(SweepExecutor, ExecutorBackedParameterizationMatchesSerial) {
  ExperimentEnv env = ExperimentEnv::small();
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const core::SimplifiedParameterization serial =
      parameterize_simplified(*kernel, env);
  SweepExecutor executor(make_spec(env.cluster, jobs(2)));
  const core::SimplifiedParameterization parallel =
      parameterize_simplified(*kernel, env, executor);
  for (int n : env.nodes)
    for (double f : env.freqs_mhz)
      EXPECT_EQ(parallel.predict_time(n, f), serial.predict_time(n, f));
}

}  // namespace
}  // namespace pas::analysis
