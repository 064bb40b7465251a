// End-to-end crash-safety torture tests (ISSUE 7, DESIGN.md §12):
// SIGKILL a parallel sweep mid-flight and prove --resume reconverges
// to bit-identical records; corrupt the disk cache and prove entries
// quarantine instead of crashing; share one cache directory between
// processes; run the --isolate supervisor against kernels that crash,
// hang, and recover. Forks on purpose — this binary is excluded from
// TSan (fork and TSan don't mix) and runs under ASan in tier1.sh.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/fault/fault.hpp"
#include "pas/npb/kernel.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/obs/observer.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/subprocess.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = pas::test::scratch_path("pasim_crash_resume/" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

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
  EXPECT_EQ(a.status, b.status);
}

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

// --- torture kernels for the --isolate supervisor ---------------------

/// Dies by SIGKILL inside every run — the segfault/OOM stand-in.
class CrashyKernel : public npb::Kernel {
 public:
  std::string name() const override { return "CRASHY"; }
  std::string signature() const override { return "CRASHY|v1"; }
  npb::KernelResult run(mpi::Comm&) const override {
    ::raise(SIGKILL);
    return {};
  }
};

/// Crashes until `marker` exists (creating it first), then succeeds —
/// the transient environmental failure a supervisor retry must absorb.
class CrashOnceKernel : public npb::Kernel {
 public:
  explicit CrashOnceKernel(std::string marker) : marker_(std::move(marker)) {}
  std::string name() const override { return "CRASHONCE"; }
  std::string signature() const override { return "CRASHONCE|" + marker_; }
  npb::KernelResult run(mpi::Comm&) const override {
    if (!std::filesystem::exists(marker_)) {
      pas::util::atomic_write_file(marker_, "crashed here\n");
      ::raise(SIGKILL);
    }
    npb::KernelResult r;
    r.name = name();
    r.verified = true;
    return r;
  }

 private:
  std::string marker_;
};

/// Never finishes — the runaway loop the wall-clock deadline exists for.
class SleepyKernel : public npb::Kernel {
 public:
  std::string name() const override { return "SLEEPY"; }
  std::string signature() const override { return "SLEEPY|v1"; }
  npb::KernelResult run(mpi::Comm&) const override {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
};

// ---------------------------------------------------------------------

// The tentpole guarantee: a --jobs 8 sweep SIGKILLed mid-flight, then
// resumed, produces records bit-identical to an uninterrupted --jobs 1
// run.
TEST(CrashResume, KilledParallelSweepResumesBitIdentical) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::vector<int> nodes{1, 2};
  const std::vector<double> freqs{600, 1000, 1400};
  const std::string journal = temp_dir("resume") + "/sweep.journal";

  SweepSpec ref_spec;
  ref_spec.cluster = env.cluster;
  ref_spec.options.jobs = 1;
  ref_spec.options.use_cache = false;
  SweepExecutor reference(ref_spec);
  const MatrixResult want = reference.run({kernel.get(), nodes, freqs});

  // Child: same sweep at --jobs 4 with a fresh journal, armed to die
  // right after the 3rd completed point hits the disk.
  const npb::Kernel* k = kernel.get();
  const util::Subprocess::Result crashed = util::Subprocess::call(
      [&env, &journal, k, &nodes, &freqs]() -> int {
        SweepJournal::set_crash_after_appends(3);
        SweepSpec spec;
        spec.cluster = env.cluster;
        spec.options.jobs = 4;
        spec.options.use_cache = false;
        spec.options.journal_path = journal;
        SweepExecutor exec(spec);
        exec.run({k, nodes, freqs});
        return 0;  // unreachable: the sweep has 6 points
      },
      /*timeout_s=*/90.0);
  ASSERT_TRUE(crashed.signaled) << crashed.describe();
  ASSERT_EQ(crashed.term_signal, SIGKILL);

  // Exactly three points survived the kill.
  {
    SweepJournal peek(journal, /*resume=*/true);
    EXPECT_EQ(peek.entries(), 3u);
  }

  const std::uint64_t resumed_before = counter_value("sweep.points_resumed");
  SweepSpec resume_spec;
  resume_spec.cluster = env.cluster;
  resume_spec.options.jobs = 8;
  resume_spec.options.use_cache = false;
  resume_spec.options.journal_path = journal;
  resume_spec.options.resume = true;
  SweepExecutor resumer(resume_spec);
  const MatrixResult got = resumer.run({kernel.get(), nodes, freqs});

  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
  EXPECT_EQ(counter_value("sweep.points_resumed") - resumed_before, 3u);
}

TEST(CrashResume, CorruptCacheEntriesQuarantineAndResimulate) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::string dir = temp_dir("corrupt_cache");

  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 1;
  spec.options.cache_dir = dir;
  SweepExecutor warm(spec);
  const MatrixResult want = warm.run({kernel.get(), {1, 2}, {600, 1400}});

  // Bit-flip every record entry and truncate every ledger — the two
  // disk corruptions a yanked power cord (or actual bit rot) leaves
  // behind. Corrupting all of them forces every point to miss and every
  // column to consult (and quarantine) its broken ledger.
  std::vector<std::filesystem::path> run_entries, ledger_entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".run") run_entries.push_back(e.path());
    if (e.path().extension() == ".ledger") ledger_entries.push_back(e.path());
  }
  ASSERT_EQ(run_entries.size(), 4u);
  ASSERT_EQ(ledger_entries.size(), 2u);
  for (const auto& run_entry : run_entries) {
    auto bytes = pas::util::read_file(run_entry.string());
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[bytes->size() - 2] ^= 0x20;
    ASSERT_EQ(pas::util::atomic_write_file(run_entry.string(), *bytes), 0);
  }
  for (const auto& ledger_entry : ledger_entries)
    std::filesystem::resize_file(ledger_entry, 40);

  const std::uint64_t quarantined_before =
      counter_value("runcache.quarantined");
  SweepExecutor reader(spec);
  const MatrixResult got = reader.run({kernel.get(), {1, 2}, {600, 1400}});
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
  EXPECT_GE(counter_value("runcache.quarantined") - quarantined_before, 6u);
  for (const auto& run_entry : run_entries)
    EXPECT_TRUE(std::filesystem::exists(run_entry.string() + ".bad"))
        << run_entry;
  for (const auto& ledger_entry : ledger_entries)
    EXPECT_TRUE(std::filesystem::exists(ledger_entry.string() + ".bad"))
        << ledger_entry;
}

// `.ckpt` files are checkpoint entries older builds wrote. Nothing
// reads them any more, but a capped cache still counts them, and as the
// least recently used entries they age out first.
TEST(CrashResume, CapAgesOutStaleCheckpointFiles) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::string dir = temp_dir("stale_ckpt");
  const std::filesystem::path stale =
      std::filesystem::path(dir) / "00000000deadbeef_b8.ckpt";
  ASSERT_EQ(pas::util::atomic_write_file(stale.string(),
                                         std::string(64 * 1024, 'x')),
            0);
  std::filesystem::last_write_time(
      stale, std::filesystem::last_write_time(stale) - std::chrono::hours(1));

  RunMatrix matrix(env.cluster);
  const RunRecord rec = matrix.run_one(*kernel, 2, 600.0);
  const std::string key = RunCache::key(*kernel, env.cluster,
                                        power::PowerModel(), 2, 600.0, 0.0);
  // 64 KB of stale checkpoint plus the record is over the 32 KB cap.
  RunCache(dir, 32 * 1024).store(key, rec);
  EXPECT_FALSE(std::filesystem::exists(stale));
  const std::optional<RunRecord> hit = RunCache(dir).lookup(key);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, rec);
}

TEST(CrashResume, SimulatedEnospcDegradesWithoutCorruptingResults) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::string dir = temp_dir("enospc");

  SweepSpec ref_spec;
  ref_spec.cluster = env.cluster;
  ref_spec.options.jobs = 1;
  ref_spec.options.use_cache = false;
  SweepExecutor reference(ref_spec);
  const MatrixResult want = reference.run({kernel.get(), {1, 2}, {600, 1400}});

  struct DisarmOnExit {
    ~DisarmOnExit() { pas::util::set_write_fault_after(-1); }
  } disarm;
  pas::util::set_write_fault_after(2);  // disk "fills up" almost at once
  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 2;
  spec.options.cache_dir = dir + "/cache";
  spec.options.journal_path = dir + "/sweep.journal";
  SweepExecutor exec(spec);
  const MatrixResult got = exec.run({kernel.get(), {1, 2}, {600, 1400}});
  pas::util::set_write_fault_after(-1);

  // Every durable writer failed fail-soft: the records are still
  // complete and bit-identical to the healthy run.
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
}

TEST(CrashResume, ConcurrentProcessesShareOneCacheDirSafely) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::string dir = temp_dir("shared_cache");
  const npb::Kernel* k = kernel.get();

  const auto worker = [&env, &dir, k]() -> int {
    SweepSpec spec;
    spec.cluster = env.cluster;
    spec.options.jobs = 2;
    spec.options.cache_dir = dir;
    SweepExecutor exec(spec);
    const MatrixResult m = exec.run({k, {1, 2}, {600, 1400}});
    return m.records.size() == 4 ? 0 : 1;
  };
  util::Subprocess::Handle a = util::Subprocess::spawn(worker);
  util::Subprocess::Handle b = util::Subprocess::spawn(worker);
  const util::Subprocess::Result ra = a.wait(90.0);
  const util::Subprocess::Result rb = b.wait(90.0);
  ASSERT_TRUE(ra.ok()) << ra.describe();
  ASSERT_TRUE(rb.ok()) << rb.describe();

  // Nothing was quarantined, and a fresh reader hits every entry with
  // bits identical to a clean serial run.
  for (const auto& e : std::filesystem::directory_iterator(dir))
    EXPECT_NE(e.path().extension(), ".bad") << e.path();
  SweepSpec ref_spec;
  ref_spec.cluster = env.cluster;
  ref_spec.options.jobs = 1;
  ref_spec.options.use_cache = false;
  SweepExecutor reference(ref_spec);
  const MatrixResult want = reference.run({kernel.get(), {1, 2}, {600, 1400}});
  SweepSpec read_spec;
  read_spec.cluster = env.cluster;
  read_spec.options.jobs = 1;
  read_spec.options.cache_dir = dir;
  SweepExecutor reader(read_spec);
  const MatrixResult got = reader.run({kernel.get(), {1, 2}, {600, 1400}});
  EXPECT_EQ(reader.cache().hits(), 4u);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
}

TEST(IsolateSupervisor, HealthySweepMatchesInProcessRun) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::string dir = temp_dir("isolate_healthy");

  SweepSpec ref_spec;
  ref_spec.cluster = env.cluster;
  ref_spec.options.jobs = 1;
  ref_spec.options.use_cache = false;
  SweepExecutor reference(ref_spec);
  const MatrixResult want = reference.run({kernel.get(), {1, 2}, {600, 1400}});

  const std::uint64_t columns_before = counter_value("sweep.isolated_columns");
  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 1;
  spec.options.use_cache = false;
  spec.options.journal_path = dir + "/sweep.journal";
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 120.0;
  SweepExecutor exec(spec);
  const MatrixResult got = exec.run({kernel.get(), {1, 2}, {600, 1400}});
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
  // Two node counts = two (N, comm-DVFS) columns = two workers forked.
  EXPECT_EQ(counter_value("sweep.isolated_columns") - columns_before, 2u);

  // Resuming the finished isolated sweep resolves every point in the
  // pre-pass: identical records, zero new workers.
  const std::uint64_t resumed_before = counter_value("sweep.points_resumed");
  SweepSpec again = spec;
  again.options.resume = true;
  SweepExecutor resumer(std::move(again));
  const MatrixResult re = resumer.run({kernel.get(), {1, 2}, {600, 1400}});
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(re.records[i], want.records[i]);
  EXPECT_EQ(counter_value("sweep.isolated_columns") - columns_before, 2u);
  EXPECT_EQ(counter_value("sweep.points_resumed") - resumed_before, 4u);
}

// A batch with a fault-armed request: each isolated column's child
// executor runs under its sweep's fault config, so the journaled
// records (status and failure text included) equal the in-process
// batch's byte for byte.
TEST(IsolateSupervisor, FaultRequestInBatchMatchesInProcessBatch) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  SweepRequest clean{kernel.get(), {1, 2}, {600, 1400}};
  SweepRequest faulty = clean;
  faulty.fault = fault::FaultConfig::scaled(0.05, 2);
  const auto bytes = [](const RunRecord& rec) {
    return RunCache::encode_record(rec) + run_status_name(rec.status) + "|" +
           rec.error;
  };

  SweepSpec ref_spec;
  ref_spec.cluster = env.cluster;
  ref_spec.options.jobs = 2;
  ref_spec.options.use_cache = false;
  SweepExecutor reference(ref_spec);
  const std::vector<MatrixResult> want = reference.run_all({clean, faulty});

  SweepSpec spec = ref_spec;
  spec.options.journal_path = temp_dir("isolate_fault") + "/sweep.journal";
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 120.0;
  SweepExecutor exec(spec);
  const std::vector<MatrixResult> got = exec.run_all({clean, faulty});
  ASSERT_EQ(got.size(), 2u);
  bool fault_shows = false;
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].records.size(), want[r].records.size());
    for (std::size_t i = 0; i < want[r].records.size(); ++i) {
      EXPECT_EQ(bytes(got[r].records[i]), bytes(want[r].records[i]));
      fault_shows = fault_shows || bytes(want[1].records[i]) !=
                                       bytes(want[0].records[i]);
    }
  }
  EXPECT_TRUE(fault_shows);
}

TEST(IsolateSupervisor, CrashedColumnBecomesFailSoftRecords) {
  const auto env = ExperimentEnv::small();
  const CrashyKernel kernel;
  const std::string dir = temp_dir("isolate_crash");

  const std::uint64_t crashes_before = counter_value("sweep.worker_crashes");
  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 1;
  spec.options.use_cache = false;
  spec.options.journal_path = dir + "/sweep.journal";
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 60.0;
  spec.options.isolate_retries = 0;
  SweepExecutor exec(spec);
  const MatrixResult got = exec.run({&kernel, {1}, {600, 1000}});

  ASSERT_EQ(got.records.size(), 2u);
  for (const RunRecord& rec : got.records) {
    EXPECT_EQ(rec.status, RunStatus::kCrashed);
    EXPECT_TRUE(rec.failed());
    EXPECT_NE(rec.error.find("signal 9"), std::string::npos) << rec.error;
  }
  EXPECT_GE(counter_value("sweep.worker_crashes") - crashes_before, 1u);
  // A crash is environmental, not a result: nothing was journaled, so
  // a --resume retries the column for real.
  SweepJournal peek(dir + "/sweep.journal", /*resume=*/true);
  EXPECT_EQ(peek.entries(), 0u);
}

TEST(IsolateSupervisor, RetryRecoversFromTransientCrash) {
  const auto env = ExperimentEnv::small();
  const std::string dir = temp_dir("isolate_retry");
  const CrashOnceKernel kernel(dir + "/crashed.marker");

  const std::uint64_t retries_before = counter_value("sweep.worker_retries");
  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 1;
  spec.options.use_cache = false;
  spec.options.journal_path = dir + "/sweep.journal";
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 60.0;
  spec.options.isolate_retries = 2;
  SweepExecutor exec(spec);
  const MatrixResult got = exec.run({&kernel, {1}, {600}});

  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].status, RunStatus::kOk);
  EXPECT_TRUE(got.records[0].verified);
  EXPECT_GE(counter_value("sweep.worker_retries") - retries_before, 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/crashed.marker"));
}

TEST(IsolateSupervisor, HungColumnIsKilledAtTheDeadline) {
  const auto env = ExperimentEnv::small();
  const SleepyKernel kernel;
  const std::string dir = temp_dir("isolate_hang");

  const std::uint64_t timeouts_before = counter_value("sweep.worker_timeouts");
  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 1;
  spec.options.use_cache = false;
  spec.options.journal_path = dir + "/sweep.journal";
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 0.3;
  spec.options.isolate_retries = 0;
  SweepExecutor exec(spec);
  const MatrixResult got = exec.run({&kernel, {1}, {600}});

  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0].status, RunStatus::kTimeout);
  EXPECT_NE(got.records[0].error.find("timed out"), std::string::npos)
      << got.records[0].error;
  EXPECT_GE(counter_value("sweep.worker_timeouts") - timeouts_before, 1u);
}

TEST(IsolateSupervisor, UnwritableJournalIsRejectedBeforeAnyFork) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("EP", Scale::kSmall);
  // The journal's directory does not exist, so it cannot be created —
  // and isolated workers report through nothing else.
  const std::string journal =
      temp_dir("isolate_unwritable") + "/missing/sweep.journal";

  const std::uint64_t columns_before = counter_value("sweep.isolated_columns");
  SweepSpec spec;
  spec.cluster = env.cluster;
  spec.options.jobs = 1;
  spec.options.use_cache = false;
  spec.options.journal_path = journal;
  spec.options.isolate = true;
  spec.options.isolate_timeout_s = 60.0;
  try {
    SweepExecutor exec(spec);
    exec.run({kernel.get(), {1, 2}, {600, 1400}});
    FAIL() << "an isolated sweep ran on a journal it could not create";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(journal), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
  }
  EXPECT_EQ(counter_value("sweep.isolated_columns"), columns_before);
}

// --- option plumbing --------------------------------------------------

TEST(SweepOptions, ResumeAndIsolateImplyTheDefaultJournal) {
  const SweepOptions resume = SweepOptions::from_cli(make_cli({"--resume"}));
  EXPECT_TRUE(resume.resume);
  EXPECT_EQ(resume.journal_path, "pasim_sweep.journal");

  const SweepOptions isolate = SweepOptions::from_cli(make_cli({"--isolate"}));
  EXPECT_TRUE(isolate.isolate);
  EXPECT_EQ(isolate.journal_path, "pasim_sweep.journal");

  const SweepOptions custom = SweepOptions::from_cli(
      make_cli({"--resume", "--journal", "my.journal"}));
  EXPECT_EQ(custom.journal_path, "my.journal");
}

TEST(SweepOptions, IsolateAndCapFlagsAreValidated) {
  EXPECT_THROW(SweepOptions::from_cli(make_cli({"--isolate-timeout", "0"})),
               std::invalid_argument);
  EXPECT_THROW(SweepOptions::from_cli(make_cli({"--isolate-retries", "-1"})),
               std::invalid_argument);
  // A size cap without a disk cache caps nothing: reject it loudly.
  EXPECT_THROW(SweepOptions::from_cli(make_cli({"--cache-cap", "64"})),
               std::invalid_argument);
  const SweepOptions capped = SweepOptions::from_cli(
      make_cli({"--cache", "some_dir", "--cache-cap", "64"}));
  EXPECT_EQ(capped.cache_cap_bytes, 64ull * 1024 * 1024);
}

TEST(SweepExecutor, IsolateRequiresAJournalAndForbidsTracing) {
  const auto env = ExperimentEnv::small();
  {
    SweepSpec spec;
    spec.cluster = env.cluster;
    spec.options.isolate = true;  // but no journal_path
    EXPECT_THROW(SweepExecutor{spec}, std::invalid_argument);
  }
  {
    SweepSpec spec;
    spec.cluster = env.cluster;
    spec.options.isolate = true;
    spec.options.journal_path =
        temp_dir("isolate_tracing") + "/sweep.journal";
    spec.observer = obs::Observer::from_cli(make_cli({"--trace"}));
    EXPECT_THROW(SweepExecutor{spec}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace pas::analysis
