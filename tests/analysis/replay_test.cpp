// Replay (DESIGN.md §10–11): one BatchRepricer pass over a charged-work
// ledger must be EXPECT_EQ-identical — every RunRecord field and every
// trace event, bitwise — to a traced full simulation at each lane's
// frequency, for every kernel, size, rank count and frequency; the
// executor must take the fast path only when the exactness gate allows
// it; and ledgers must survive the disk round trip without perturbing a
// single bit. Suites are named BatchRepricer / BatchedSweep /
// ReplayFastPath / LedgerCache so tier1.sh can run exactly this surface
// under TSan (BatchedSweep lives in sweep_executor_test).
#include "pas/analysis/batch_repricer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "pas/analysis/experiment.hpp"
#include "pas/analysis/replay_detail.hpp"
#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/run_matrix.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/fault/fault.hpp"
#include "pas/mpi/runtime.hpp"
#include "pas/npb/cg.hpp"
#include "pas/npb/ep.hpp"
#include "pas/npb/ft.hpp"
#include "pas/npb/lu.hpp"
#include "pas/npb/mg.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/obs/observer.hpp"
#include "pas/sim/trace.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/fs.hpp"
#include "test_scratch.hpp"

namespace pas::analysis {
namespace {

// Bitwise equality across every RunRecord field — "bit-identical to a
// full run" is the fast path's contract, not an approximation.
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
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.send_retries, b.send_retries);
}

// Simulation fills its tracer from rank threads, so events compare as
// multisets: both sides are sorted on every field first
// (sim::sort_events leaves ties between events that differ only in
// activity or instant).
std::vector<sim::TraceEvent> sorted(std::vector<sim::TraceEvent> events) {
  const auto fields = [](const sim::TraceEvent& e) {
    return std::tie(e.node, e.start_s, e.duration_s, e.activity, e.category,
                    e.label, e.instant);
  };
  std::sort(events.begin(), events.end(),
            [&](const sim::TraceEvent& a, const sim::TraceEvent& b) {
              return fields(a) < fields(b);
            });
  return events;
}

void expect_identical_events(const std::vector<sim::TraceEvent>& got,
                             const std::vector<sim::TraceEvent>& want) {
  const std::vector<sim::TraceEvent> a = sorted(got);
  const std::vector<sim::TraceEvent> b = sorted(want);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].duration_s, b[i].duration_s);
    EXPECT_EQ(a[i].activity, b[i].activity);
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].instant, b[i].instant);
  }
}

SweepOptions jobs(int n) {
  SweepOptions o;
  o.jobs = n;
  return o;
}

util::Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

// Cheap per-kernel configurations (same scheme as npb/golden_test):
// variant 0 is small and symmetric, variant 1 larger or asymmetric, so
// the replay sees different message schedules and decompositions.
std::unique_ptr<npb::Kernel> make_variant(const std::string& name,
                                          int variant) {
  if (name == "EP") {
    npb::EpConfig cfg;
    cfg.log2_pairs = variant == 0 ? 12 : 14;
    return std::make_unique<npb::EpKernel>(cfg);
  }
  if (name == "FT") {
    npb::FtConfig cfg;
    if (variant == 0) {
      cfg.nx = cfg.ny = cfg.nz = 16;
      cfg.niter = 2;
    } else {
      cfg.nx = 32;
      cfg.ny = 16;
      cfg.nz = 16;
      cfg.niter = 1;
    }
    return std::make_unique<npb::FtKernel>(cfg);
  }
  if (name == "LU") {
    npb::LuConfig cfg;
    cfg.n = variant == 0 ? 16 : 24;
    cfg.iterations = variant == 0 ? 3 : 2;
    return std::make_unique<npb::LuKernel>(cfg);
  }
  if (name == "CG") {
    npb::CgConfig cfg;
    cfg.n = variant == 0 ? 12 : 16;
    cfg.iterations = variant == 0 ? 8 : 10;
    return std::make_unique<npb::CgKernel>(cfg);
  }
  npb::MgConfig cfg;
  if (variant == 0) {
    cfg.n = 16;
    cfg.levels = 3;
    cfg.cycles = 2;
  } else {
    cfg.n = 32;
    cfg.levels = 4;
    cfg.cycles = 1;
  }
  return std::make_unique<npb::MgKernel>(cfg);
}

// Records one run's ledger through RunMatrix, the same way the
// executor's fast path does (verified is frequency-invariant and lives
// on the record, so the recorder's caller copies it over). Under armed
// faults an attempt may abort; like the executor's retries, the next
// attempt records the same ops (faults never change the op stream).
sim::WorkLedger record_ledger(RunMatrix& matrix, const npb::Kernel& kernel,
                              int nodes, double frequency_mhz,
                              double comm_dvfs_mhz = 0.0) {
  for (int attempt = 0;; ++attempt) {
    matrix.ledger_recorder().begin(nodes, comm_dvfs_mhz);
    try {
      const RunRecord rec = matrix.run_one(kernel, nodes, frequency_mhz,
                                           comm_dvfs_mhz, attempt);
      sim::WorkLedger ledger = matrix.ledger_recorder().take();
      ledger.verified = rec.verified;
      return ledger;
    } catch (const fault::FaultError&) {
      matrix.ledger_recorder().abort();
      if (attempt == 8) throw;
    }
  }
}

// The simulation oracle of one point at fault attempt 0, traced into
// the matrix's tracer: its record, or the status and message of the
// fault that aborts it.
RunRecord simulate_traced(RunMatrix& matrix, const npb::Kernel& kernel,
                          int nodes, double frequency_mhz,
                          double comm_dvfs_mhz) {
  sim::Tracer& simulated = matrix.tracer();
  simulated.clear();
  simulated.enable();
  RunRecord rec;
  try {
    rec = matrix.run_one(kernel, nodes, frequency_mhz, comm_dvfs_mhz);
  } catch (const fault::NodeFailedError& e) {
    rec.status = RunStatus::kNodeFailure;
    rec.error = e.what();
  } catch (const fault::MessageLossError& e) {
    rec.status = RunStatus::kMessageLoss;
    rec.error = e.what();
  }
  simulated.disable();
  return rec;
}

// The oracle: prices `freqs` in one traced BatchRepricer pass, then
// checks every lane — record and events — against a traced full
// simulation of the same point. A lane whose simulation aborts on an
// injected fault must come back unpriced with that abort's status and
// message; `aborted`, when given, counts those lanes.
void expect_lanes_match_simulation(RunMatrix& matrix,
                                   const npb::Kernel& kernel, int nodes,
                                   const sim::WorkLedger& ledger,
                                   const std::vector<double>& freqs,
                                   double comm_dvfs_mhz = 0.0,
                                   std::size_t* aborted = nullptr) {
  std::vector<sim::Tracer> sinks(freqs.size());
  std::vector<sim::Tracer*> tracers;
  for (auto& t : sinks) {
    t.enable();
    tracers.push_back(&t);
  }
  const std::vector<RunRecord> got =
      BatchRepricer(matrix.cluster(), matrix.power())
          .reprice(ledger, freqs, tracers);
  ASSERT_EQ(got.size(), freqs.size());
  sim::Tracer& simulated = matrix.tracer();
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    SCOPED_TRACE("f=" + std::to_string(freqs[i]));
    const RunRecord want =
        simulate_traced(matrix, kernel, nodes, freqs[i], comm_dvfs_mhz);
    if (want.failed()) {
      EXPECT_EQ(got[i].status, want.status);
      EXPECT_EQ(got[i].error, want.error);
      EXPECT_EQ(got[i].attempts, 1);
      EXPECT_EQ(got[i].seconds, 0.0);
      if (aborted != nullptr) ++*aborted;
      continue;
    }
    expect_identical(got[i], want);
    expect_identical_events(sinks[i].events(), simulated.events());
  }
  simulated.clear();
}

// Sweep-layer counters only tick for observed sweeps, so the fast-path
// tests attach a collect-only Observer (no --trace/--metrics export).
SweepExecutor make_observed_executor(const sim::ClusterConfig& cfg,
                                     SweepOptions opts) {
  SweepSpec spec;
  spec.cluster = cfg;
  spec.options = opts;
  spec.observer = std::make_shared<obs::Observer>(obs::ObsOptions{});
  return SweepExecutor(std::move(spec));
}

std::uint64_t repriced_count() {
  return obs::registry()
      .counter("sweep.points_repriced", obs::Stability::kStable)
      .value();
}

std::uint64_t verified_count() {
  return obs::registry().counter("sweep.points_verified").value();
}

std::uint64_t mpi_runs() { return obs::registry().counter("mpi.runs").value(); }

// A record as the sweep reports it: the cache encoding plus the
// failure fields the cache never stores.
std::string record_bytes(const RunRecord& rec) {
  return RunCache::encode_record(rec) + run_status_name(rec.status) + "|" +
         rec.error;
}

// The fault block of specs/ft_fault_split_small.json: on FT small at
// 1400, 1000 and 600 MHz the fast heads survive and slow tail lanes
// lose their node, so some lanes fall back to full simulation.
fault::FaultConfig split_faults() {
  fault::FaultConfig split;
  split.seed = 42;
  split.node_failure_prob = 0.5;
  split.node_failure_window_s = 0.02;
  return split;
}

std::size_t ledger_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir))
    if (f.path().extension() == ".ledger") ++n;
  return n;
}

// The acceptance grid: all five kernels x two problem sizes x two rank
// counts x the full paper frequency axis, without and with comm-phase
// DVFS, records AND trace events. One ledger per (kernel, size, N,
// comm-DVFS) column, recorded at the lowest frequency; every lane —
// including the recorded one — must match.
TEST(BatchRepricer, GridIdenticalToFullSimulationForEveryKernel) {
  const std::vector<double> freqs{600, 800, 1000, 1200, 1400};
  RunMatrix matrix(sim::ClusterConfig::paper_testbed(4));

  for (const char* name : {"EP", "FT", "LU", "CG", "MG"}) {
    for (int variant : {0, 1}) {
      const auto kernel = make_variant(name, variant);
      for (int n : {2, 4}) {
        for (double comm : {0.0, 600.0}) {
          SCOPED_TRACE(std::string(name) + " variant " +
                       std::to_string(variant) + " N=" + std::to_string(n) +
                       " comm=" + std::to_string(comm));
          const sim::WorkLedger ledger =
              record_ledger(matrix, *kernel, n, freqs.front(), comm);
          ASSERT_TRUE(ledger.replayable);
          expect_lanes_match_simulation(matrix, *kernel, n, ledger, freqs,
                                        comm);
        }
      }
    }
  }
}

// Comm-phase DVFS: lanes whose fkey equals the comm point never switch
// (no transition spend, single activity slice) while the others do —
// the per-lane conditional inside the shared phase machine. 600 MHz is
// in the lane set on purpose to pin the no-switch lane.
TEST(BatchRepricer, CommDvfsColumnIdenticalToFullSimulationPerLane) {
  RunMatrix matrix(sim::ClusterConfig::paper_testbed(4));
  const auto kernel = make_variant("FT", 0);
  const sim::WorkLedger ledger = record_ledger(matrix, *kernel, 4, 800, 600);
  ASSERT_TRUE(ledger.replayable);
  ASSERT_EQ(ledger.comm_dvfs_mhz, 600);
  expect_lanes_match_simulation(matrix, *kernel, 4, ledger,
                                {600, 800, 1000, 1400}, 600);
}

// Faults change priced seconds and aborts, never the op stream: a
// fault-armed ledger replays, each lane re-drawing its own fault
// streams, over the same grid as the clean test. Two scaled presets
// plus one with heavy drop, delay and straggler rates — enough message
// loss that some lanes abort (MessageLossError) and must come back
// with the simulation's own status and message. Each column replays
// the clean run's ledger (under heavy loss a recording rarely
// survives); wherever the armed recording does survive, it must be
// that same ledger, op for op.
TEST(BatchRepricer, FaultGridIdenticalToFullSimulation) {
  const std::vector<double> freqs{600, 800, 1000, 1200, 1400};
  fault::FaultConfig heavy;
  heavy.seed = 11;
  heavy.straggler_fraction = 0.5;
  heavy.dvfs_jitter_s = 200e-6;
  heavy.message_delay_prob = 0.5;
  heavy.message_drop_prob = 0.3;
  const std::vector<fault::FaultConfig> configs{
      fault::FaultConfig::scaled(0.05, 2), fault::FaultConfig::scaled(0.05, 7),
      heavy};
  RunMatrix clean(sim::ClusterConfig::paper_testbed(4));
  std::size_t aborted = 0;
  std::size_t recorded_armed = 0;
  double retries = 0.0;
  for (const fault::FaultConfig& fc : configs) {
    sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(4);
    cfg.fault = fc;
    RunMatrix matrix(cfg);
    for (const char* name : {"EP", "FT", "LU", "CG", "MG"}) {
      for (int variant : {0, 1}) {
        const auto kernel = make_variant(name, variant);
        for (int n : {2, 4}) {
          for (double comm : {0.0, 600.0}) {
            SCOPED_TRACE(fc.signature() + " " + name + " variant " +
                         std::to_string(variant) + " N=" + std::to_string(n) +
                         " comm=" + std::to_string(comm));
            const sim::WorkLedger ledger =
                record_ledger(clean, *kernel, n, freqs.back(), comm);
            ASSERT_TRUE(ledger.replayable);
            matrix.ledger_recorder().begin(n, comm);
            try {
              const RunRecord rec =
                  matrix.run_one(*kernel, n, freqs.back(), comm);
              sim::WorkLedger armed = matrix.ledger_recorder().take();
              armed.verified = rec.verified;
              EXPECT_EQ(RunCache::encode_ledger(armed),
                        RunCache::encode_ledger(ledger));
              ++recorded_armed;
            } catch (const fault::FaultError&) {
              matrix.ledger_recorder().abort();
            }
            expect_lanes_match_simulation(matrix, *kernel, n, ledger, freqs,
                                          comm, &aborted);
            for (const RunRecord& rec :
                 BatchRepricer(cfg).reprice(ledger, freqs))
              retries += rec.send_retries;
          }
        }
      }
    }
  }
  // The grid exercises both halves of the contract.
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(retries, 0.0);
  EXPECT_GT(recorded_armed, 0u);
}

// Whole-node failure is the one time-dependent fault: a node that dies
// at t=d kills every lane still running at d and spares every lane
// that finishes first. With every node failing and the window scaled
// so the first death falls between the fast and slow makespans, the
// slow lanes come back kNodeFailure and the fast lanes price exactly.
TEST(BatchRepricer, LaneThatOutlivesItsNodeIsHandedBack) {
  const std::vector<double> freqs{600, 800, 1000, 1200, 1400};
  const auto kernel = make_variant("EP", 1);
  sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(2);
  RunMatrix clean(cfg);
  const double slow = clean.run_one(*kernel, 2, freqs.front()).seconds;
  const double fast = clean.run_one(*kernel, 2, freqs.back()).seconds;
  cfg.fault.seed = 3;
  cfg.fault.node_failure_prob = 1.0;
  cfg.fault.node_failure_window_s = 1.0;
  // Failure times scale linearly with the window.
  const fault::FaultPlan unit(cfg.fault, 2);
  const double first = std::min(unit.fail_time_s(0), unit.fail_time_s(1));
  cfg.fault.node_failure_window_s = 0.5 * (slow + fast) / first;

  RunMatrix matrix(cfg);
  const sim::WorkLedger ledger =
      record_ledger(matrix, *kernel, 2, freqs.back());
  const std::vector<RunRecord> got =
      BatchRepricer(cfg).reprice(ledger, freqs);
  EXPECT_EQ(got.front().status, RunStatus::kNodeFailure);
  EXPECT_EQ(got.back().status, RunStatus::kOk);
  std::size_t aborted = 0;
  expect_lanes_match_simulation(matrix, *kernel, 2, ledger, freqs, 0.0,
                                &aborted);
  EXPECT_GT(aborted, 0u);
  EXPECT_LT(aborted, freqs.size());
}

// DVFS jitter is drawn only where a lane actually switches operating
// points, so the 600 MHz lane of a comm-DVFS-600 column draws none
// while the others do — and every later drop/delay draw of that rank
// shifts with it. Each lane must re-draw its own stream.
TEST(BatchRepricer, CommDvfsJitterDrawsPerLane) {
  sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(4);
  cfg.fault.seed = 5;
  cfg.fault.dvfs_jitter_s = 100e-6;
  cfg.fault.message_delay_prob = 0.2;
  cfg.fault.message_drop_prob = 0.1;
  RunMatrix matrix(cfg);
  const auto kernel = make_variant("FT", 0);
  const sim::WorkLedger ledger = record_ledger(matrix, *kernel, 4, 800, 600);
  ASSERT_TRUE(ledger.replayable);
  std::size_t aborted = 0;
  expect_lanes_match_simulation(matrix, *kernel, 4, ledger,
                                {600, 800, 1000, 1400}, 600, &aborted);
  EXPECT_EQ(aborted, 0u);
}

// A single-lane batch is the degenerate case — still the batched code
// path, still bit-identical (this is what the executor runs when a
// column has one cache miss).
TEST(BatchRepricer, SingleLaneMatchesFullSimulation) {
  RunMatrix matrix(sim::ClusterConfig::paper_testbed(2));
  const auto kernel = make_variant("CG", 0);
  const sim::WorkLedger ledger = record_ledger(matrix, *kernel, 2, 600);
  expect_lanes_match_simulation(matrix, *kernel, 2, ledger, {1400.0});
}

TEST(BatchRepricer, RejectsBadInputs) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_variant("EP", 0);
  RunMatrix matrix(cfg);
  sim::WorkLedger ledger = record_ledger(matrix, *kernel, 2, 600);
  const BatchRepricer batch(cfg);

  EXPECT_TRUE(batch.reprice(ledger, {}).empty());
  // 725 MHz is not an operating point of the paper testbed.
  EXPECT_THROW(batch.reprice(ledger, {600.0, 725.0}), std::out_of_range);
  // Tracers, when provided, must be index-aligned with the lane set.
  sim::Tracer one;
  EXPECT_THROW(batch.reprice(ledger, {600.0, 800.0}, {&one}),
               std::invalid_argument);
  ledger.replayable = false;
  EXPECT_THROW(batch.reprice(ledger, {600.0}), std::logic_error);
}

// Channel keys mask all three fields symmetrically, so a src with set
// high bits cannot alias another (src, dst) pair, and rank counts
// beyond the 16-bit key space are rejected up front instead of
// silently colliding.
TEST(BatchRepricer, ChannelKeyMasksAllFieldsAndGuardsRankCount) {
  using detail::channel_key;
  EXPECT_NE(channel_key(1, 2, 3), channel_key(2, 1, 3));
  EXPECT_NE(channel_key(1, 2, 3), channel_key(1, 2, 4));
  // High bits above the 16-bit field must not leak into neighbours:
  // 0x10001 truncates to 1 in its own field and nowhere else.
  EXPECT_EQ(channel_key(0x10001, 2, 3), channel_key(1, 2, 3));
  EXPECT_EQ(channel_key(1, 0x10002, 3), channel_key(1, 2, 3));
  EXPECT_NO_THROW(detail::check_replay_rank_count(0xffff));
  EXPECT_THROW(detail::check_replay_rank_count(0x10000), std::logic_error);
}

// The executor's fast path: one simulation per column, the rest of the
// DVFS axis repriced — and still bit-identical to the serial RunMatrix.
TEST(ReplayFastPath, ExecutorSweepRepricesColumnTailsBitForBit) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto kernel = make_kernel("LU", Scale::kSmall);
  const std::vector<int> nodes{1, 2, 4};
  const std::vector<double> freqs{600, 1000, 1400};

  RunMatrix serial(cfg);
  const MatrixResult want = serial.sweep(*kernel, nodes, freqs);

  const std::uint64_t before = repriced_count();
  SweepExecutor executor = make_observed_executor(cfg, jobs(4));
  const MatrixResult got = executor.run({kernel.get(), nodes, freqs});
  // 3 columns x (3 frequencies - 1 recorded) = 6 repriced points.
  EXPECT_EQ(repriced_count() - before, 6u);

  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i)
    expect_identical(got.records[i], want.records[i]);
}

// Armed fault injection keeps the fast path: the column head
// simulates, its tail replays with per-lane fault streams, and every
// record's cache encoding equals a per-point run (a one-point column
// never replays, so each of those simulates in full).
TEST(ReplayFastPath, FaultArmedSweepRepricesBitForBit) {
  sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(4);
  cfg.fault = fault::FaultConfig::scaled(0.05, 42);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::vector<int> nodes{1, 2, 4};
  const std::vector<double> freqs{600, 1000, 1400};
  const std::uint64_t before = repriced_count();
  SweepExecutor executor = make_observed_executor(cfg, jobs(2));
  const MatrixResult result = executor.run({kernel.get(), nodes, freqs});
  EXPECT_EQ(repriced_count() - before, 6u);
  ASSERT_EQ(result.records.size(), 9u);

  SweepExecutor per_point = make_observed_executor(cfg, jobs(1));
  std::size_t i = 0;
  for (int n : nodes) {
    for (double f : freqs) {
      SCOPED_TRACE("N=" + std::to_string(n) + " f=" + std::to_string(f));
      EXPECT_EQ(RunCache::encode_record(result.records[i++]),
                RunCache::encode_record(per_point.run_one(*kernel, n, f)));
    }
  }
}

// A tail lane whose first attempt would abort (its node dies before
// the lane finishes) falls back to full simulation with the sweep's
// retries: status, error and attempt count equal a per-point run, and
// only the lanes that priced count as repriced. The head is the fast
// 1400 MHz point, which survives; every node fails, with the window
// scaled so the first death falls between the fast and slow makespans.
TEST(ReplayFastPath, AbortingLaneFallsBackToFullSimulation) {
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::vector<double> freqs{1400, 1200, 1000, 800, 600};
  sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(4);
  RunMatrix clean(cfg);
  const double fast = clean.run_one(*kernel, 2, freqs.front()).seconds;
  const double slow = clean.run_one(*kernel, 2, freqs.back()).seconds;
  cfg.fault.seed = 3;
  cfg.fault.node_failure_prob = 1.0;
  const fault::FaultPlan unit(cfg.fault, 2);
  const double first = std::min(unit.fail_time_s(0), unit.fail_time_s(1));
  cfg.fault.node_failure_window_s = 0.5 * (slow + fast) / first;

  const std::uint64_t before = repriced_count();
  SweepExecutor executor = make_observed_executor(cfg, jobs(2));
  const MatrixResult result = executor.run({kernel.get(), {2}, freqs});
  ASSERT_EQ(result.records.size(), freqs.size());

  SweepExecutor per_point = make_observed_executor(cfg, jobs(1));
  std::uint64_t priced = 0;
  std::size_t fell_back = 0;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    SCOPED_TRACE("f=" + std::to_string(freqs[i]));
    const RunRecord want = per_point.run_one(*kernel, 2, freqs[i]);
    const RunRecord& got = result.records[i];
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(RunCache::encode_record(got), RunCache::encode_record(want));
    if (i == 0) continue;  // the head
    if (want.failed() || want.attempts > 1)
      ++fell_back;
    else
      ++priced;
  }
  EXPECT_GT(fell_back, 0u);
  EXPECT_GT(priced, 0u);
  EXPECT_EQ(repriced_count() - before, priced);
}

// A priced lane stands for one simulation: the volatile fault counters
// tick for its drops and delays, so on a sweep without failed attempts
// fault.message_drops still equals sweep.send_retries, while mpi.runs
// counts only the column heads that really simulated.
TEST(ReplayFastPath, FaultCountersTickPerPricedLane) {
  sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(4);
  cfg.fault = fault::FaultConfig::scaled(0.05, 2);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  obs::Registry& reg = obs::registry();
  const auto value = [&](const char* name, obs::Stability s) {
    return reg.counter(name, s).value();
  };
  constexpr obs::Stability kV = obs::Stability::kVolatile;
  constexpr obs::Stability kS = obs::Stability::kStable;
  const std::uint64_t drops0 = value("fault.message_drops", kV);
  const std::uint64_t delays0 = value("fault.message_delays", kV);
  const std::uint64_t runs0 = value("mpi.runs", kV);
  const std::uint64_t retries0 = value("sweep.send_retries", kS);
  const std::uint64_t run_retries0 = value("sweep.run_retries", kS);
  const std::uint64_t failed0 = value("sweep.points_failed", kS);
  const std::uint64_t repriced0 = repriced_count();

  SweepExecutor executor = make_observed_executor(cfg, jobs(2));
  const MatrixResult result =
      executor.run({kernel.get(), {2, 4}, {600, 1000, 1400}});
  ASSERT_EQ(result.records.size(), 6u);
  ASSERT_EQ(value("sweep.run_retries", kS), run_retries0);
  ASSERT_EQ(value("sweep.points_failed", kS), failed0);
  EXPECT_EQ(repriced_count() - repriced0, 4u);
  EXPECT_EQ(value("mpi.runs", kV) - runs0, 2u);
  const std::uint64_t retries = value("sweep.send_retries", kS) - retries0;
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(value("fault.message_drops", kV) - drops0, retries);
  EXPECT_GT(value("fault.message_delays", kV) - delays0, 0u);
}

// One executor runs EP, FT and LU small, each clean, under
// scaled(0.05, 2) and under a heavy drop/delay/straggler config, as one
// batch. The ledger key ignores faults, so each (kernel, N) column
// records once — the clean request's head — and its fault-armed twins
// price every lane by replay, heads included. Records equal per-request
// runs on executors configured with each fault, at --jobs 1 and 4.
TEST(SweepExecutor, FaultRequestsShareOneRecording) {
  const auto env = ExperimentEnv::small();
  fault::FaultConfig heavy;
  heavy.seed = 11;
  heavy.straggler_fraction = 0.5;
  heavy.message_delay_prob = 0.5;
  heavy.message_drop_prob = 0.3;
  heavy.max_send_attempts = 12;
  const std::vector<std::optional<fault::FaultConfig>> faults{
      std::nullopt, fault::FaultConfig::scaled(0.05, 2), heavy};
  std::vector<std::unique_ptr<npb::Kernel>> kernels;
  std::vector<SweepRequest> requests;
  for (const char* name : {"EP", "FT", "LU"}) {
    kernels.push_back(make_kernel(name, Scale::kSmall));
    for (const std::optional<fault::FaultConfig>& f : faults) {
      requests.push_back({kernels.back().get(), env.nodes, env.freqs_mhz});
      requests.back().fault = f;
    }
  }

  // The per-config path: one executor per fault config, its request
  // carrying no fault of its own.
  std::vector<std::string> want;
  for (const SweepRequest& request : requests) {
    sim::ClusterConfig cfg = env.cluster;
    if (request.fault) cfg.fault = *request.fault;
    SweepExecutor per_config = make_observed_executor(cfg, jobs(1));
    SweepRequest plain = request;
    plain.fault.reset();
    for (const RunRecord& rec : per_config.run(plain).records) {
      // No lane falls back here, so every simulation is a column head.
      ASSERT_FALSE(rec.failed());
      ASSERT_EQ(rec.attempts, 1);
      want.push_back(record_bytes(rec));
    }
  }

  for (int j : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(j));
    SweepExecutor exec = make_observed_executor(env.cluster, jobs(j));
    const std::uint64_t runs0 = mpi_runs();
    const std::vector<MatrixResult> got = exec.run_all(requests);
    EXPECT_EQ(mpi_runs() - runs0, kernels.size() * env.nodes.size());
    ASSERT_EQ(got.size(), requests.size());
    std::size_t k = 0;
    for (const MatrixResult& m : got) {
      for (const RunRecord& rec : m.records) {
        ASSERT_LT(k, want.size());
        EXPECT_EQ(record_bytes(rec), want[k++]);
      }
    }
    EXPECT_EQ(k, want.size());
  }
}

// --verify-replay re-simulates every repriced point and compares the
// two records through the cache encoding; on a clean grid it must pass
// and count one verification per repriced point.
TEST(ReplayFastPath, VerifyReplayPassesOnCleanGrid) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto kernel = make_kernel("CG", Scale::kSmall);
  SweepOptions opts = jobs(2);
  opts.verify_replay = true;
  const std::uint64_t repriced0 = repriced_count();
  const std::uint64_t verified0 = verified_count();
  SweepExecutor executor = make_observed_executor(cfg, opts);
  const MatrixResult result =
      executor.run({kernel.get(), {2, 4}, {600, 1000, 1400}});
  EXPECT_EQ(result.records.size(), 6u);
  const std::uint64_t repriced = repriced_count() - repriced0;
  EXPECT_EQ(repriced, 4u);  // 2 columns x 2 column-tail frequencies
  EXPECT_EQ(verified_count() - verified0, repriced);
}

// A column whose head fails every attempt still prices its tail: the
// next miss records the ledger. With retries off, the slow heads lose
// their node (the first death falls between the fast and slow
// makespans), the first surviving frequency records, and the faster
// ones after it are priced.
TEST(ReplayFastPath, FailedHeadLeavesTheRecordingToTheNextMiss) {
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::vector<double> freqs{600, 800, 1000, 1200, 1400};
  sim::ClusterConfig cfg = sim::ClusterConfig::paper_testbed(4);
  RunMatrix clean(cfg);
  const double fast = clean.run_one(*kernel, 2, freqs.back()).seconds;
  const double slow = clean.run_one(*kernel, 2, freqs.front()).seconds;
  cfg.fault.seed = 3;
  cfg.fault.node_failure_prob = 1.0;
  const fault::FaultPlan unit(cfg.fault, 2);
  const double first = std::min(unit.fail_time_s(0), unit.fail_time_s(1));
  cfg.fault.node_failure_window_s = 0.5 * (slow + fast) / first;
  SweepOptions opts = jobs(1);
  opts.run_retries = 0;

  const std::uint64_t before = repriced_count();
  SweepExecutor executor = make_observed_executor(cfg, opts);
  const MatrixResult result = executor.run({kernel.get(), {2}, freqs});
  ASSERT_EQ(result.records.size(), freqs.size());
  EXPECT_TRUE(result.records.front().failed());

  SweepExecutor per_point = make_observed_executor(cfg, opts);
  std::uint64_t priced = 0;
  bool recorded = false;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    SCOPED_TRACE("f=" + std::to_string(freqs[i]));
    const RunRecord want = per_point.run_one(*kernel, 2, freqs[i]);
    EXPECT_EQ(record_bytes(result.records[i]), record_bytes(want));
    if (want.failed()) continue;
    if (recorded)
      ++priced;
    else
      recorded = true;
  }
  EXPECT_GT(priced, 0u);
  EXPECT_EQ(repriced_count() - before, priced);
}

// The fault-split block next to a clean request of the same grid, in
// one batch: the fault-armed columns price from the clean columns'
// recordings, heads included, and lanes that would abort fall back to
// full simulation with the sweep's retries. Status, error and attempts
// equal per-point runs under each request's config.
TEST(ReplayFastPath, AbortingLanesFallBackInAMixedBatch) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::vector<double> freqs{1400, 1000, 600};
  SweepRequest clean{kernel.get(), env.nodes, freqs};
  SweepRequest faulty = clean;
  faulty.fault = split_faults();
  SweepExecutor exec = make_observed_executor(env.cluster, jobs(2));
  const std::vector<MatrixResult> got = exec.run_all({clean, faulty});
  ASSERT_EQ(got.size(), 2u);

  sim::ClusterConfig split_cfg = env.cluster;
  split_cfg.fault = *faulty.fault;
  std::size_t fell_back = 0;
  for (std::size_t r = 0; r < got.size(); ++r) {
    SweepExecutor per_point =
        make_observed_executor(r == 0 ? env.cluster : split_cfg, jobs(1));
    std::size_t i = 0;
    for (int n : env.nodes) {
      for (double f : freqs) {
        SCOPED_TRACE("request " + std::to_string(r) + " N=" +
                     std::to_string(n) + " f=" + std::to_string(f));
        const RunRecord want = per_point.run_one(*kernel, n, f);
        const RunRecord& rec = got[r].records[i++];
        EXPECT_EQ(rec.status, want.status);
        EXPECT_EQ(rec.error, want.error);
        EXPECT_EQ(rec.attempts, want.attempts);
        EXPECT_EQ(RunCache::encode_record(rec), RunCache::encode_record(want));
        if (want.failed() || want.attempts > 1) ++fell_back;
      }
    }
  }
  EXPECT_GT(fell_back, 0u);
}

TEST(ReplayFastPath, FromCliRejectsVerifyReplayWithNoCache) {
  EXPECT_THROW(
      SweepOptions::from_cli(make_cli({"--verify-replay", "--no-cache"})),
      std::invalid_argument);
  EXPECT_TRUE(SweepOptions::from_cli(make_cli({"--verify-replay"}))
                  .verify_replay);
  EXPECT_FALSE(SweepOptions::from_cli(make_cli({})).verify_replay);
}

// Ledger keys are the frequency-independent slice of the run identity:
// same key across the DVFS axis, distinct keys across everything else.
TEST(LedgerCache, KeyCollapsesFrequencyOnly) {
  const auto cfg = sim::ClusterConfig::paper_testbed(4);
  const auto ep = make_kernel("EP", Scale::kSmall);
  const auto ft = make_kernel("FT", Scale::kSmall);
  const std::string base = RunCache::ledger_key(*ep, cfg, 2, 0);
  EXPECT_EQ(base, RunCache::ledger_key(*ep, cfg, 2, 0));
  EXPECT_NE(base, RunCache::ledger_key(*ft, cfg, 2, 0));
  EXPECT_NE(base, RunCache::ledger_key(*ep, cfg, 4, 0));
  EXPECT_NE(base, RunCache::ledger_key(*ep, cfg, 2, 600));
  EXPECT_NE(base, RunCache::ledger_key(
                      *ep, sim::ClusterConfig::paper_testbed(2), 2, 0));
}

// Faults never change the op stream, so a fault-armed cluster keys its
// ledger like its clean twin, and the clean key keeps the full cluster
// signature it always had (warm caches stay warm). Kernel, N,
// comm-DVFS and node count still separate keys under faults.
TEST(LedgerCache, KeyIgnoresFaultConfig) {
  const auto clean = sim::ClusterConfig::paper_testbed(4);
  sim::ClusterConfig armed = clean;
  armed.fault = fault::FaultConfig::scaled(0.05, 2);
  sim::ClusterConfig heavy = clean;
  heavy.fault.seed = 11;
  heavy.fault.straggler_fraction = 0.5;
  heavy.fault.message_drop_prob = 0.3;
  heavy.fault.node_failure_prob = 0.5;
  const auto ep = make_kernel("EP", Scale::kSmall);
  const auto ft = make_kernel("FT", Scale::kSmall);
  const std::string base = RunCache::ledger_key(*ep, clean, 2, 0);
  EXPECT_EQ(base.rfind("ledger-v5|" + ep->signature() + "|" +
                           cluster_signature(clean) + "|N=2|",
                       0),
            0u);
  EXPECT_EQ(base, RunCache::ledger_key(*ep, armed, 2, 0));
  EXPECT_EQ(base, RunCache::ledger_key(*ep, heavy, 2, 0));
  const std::string key = RunCache::ledger_key(*ep, armed, 2, 0);
  EXPECT_NE(key, RunCache::ledger_key(*ft, armed, 2, 0));
  EXPECT_NE(key, RunCache::ledger_key(*ep, armed, 4, 0));
  EXPECT_NE(key, RunCache::ledger_key(*ep, armed, 2, 600));
  sim::ClusterConfig two = sim::ClusterConfig::paper_testbed(2);
  two.fault = armed.fault;
  EXPECT_NE(key, RunCache::ledger_key(*ep, two, 2, 0));
  // Record keys still separate fault configs.
  const power::PowerModel power;
  EXPECT_NE(RunCache::key(*ep, clean, power, 2, 600, 0),
            RunCache::key(*ep, armed, power, 2, 600, 0));
}

// A clean sweep leaves one ledger per column on disk; a fault-armed
// sweep of the same grid over that cache prices from them — it stores
// no ledger of its own and simulates only the lanes that fall back
// (each fallback runs as many attempts as its per-point run).
TEST(LedgerCache, FaultArmedSweepPricesFromCleanLedgersOnDisk) {
  const auto env = ExperimentEnv::small();
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::vector<double> freqs{1400, 1000, 600};
  const std::string dir = pas::test::scratch_path("pasim_ledger_fault_share");
  std::filesystem::remove_all(dir);
  SweepOptions opts = jobs(2);
  opts.cache_dir = dir;
  {
    SweepExecutor clean = make_observed_executor(env.cluster, opts);
    clean.run({kernel.get(), env.nodes, freqs});
  }
  ASSERT_EQ(ledger_files(dir), env.nodes.size());

  sim::ClusterConfig cfg = env.cluster;
  cfg.fault = split_faults();
  SweepExecutor faulty = make_observed_executor(cfg, opts);
  const std::uint64_t runs0 = mpi_runs();
  const MatrixResult got = faulty.run({kernel.get(), env.nodes, freqs});
  const std::uint64_t runs = mpi_runs() - runs0;
  EXPECT_EQ(ledger_files(dir), env.nodes.size());

  SweepOptions plain = jobs(1);
  plain.use_cache = false;
  SweepExecutor per_point = make_observed_executor(cfg, plain);
  std::uint64_t fallback_runs = 0;
  std::size_t i = 0;
  for (int n : env.nodes) {
    for (double f : freqs) {
      SCOPED_TRACE("N=" + std::to_string(n) + " f=" + std::to_string(f));
      const RunRecord want = per_point.run_one(*kernel, n, f);
      EXPECT_EQ(record_bytes(got.records[i++]), record_bytes(want));
      if (want.failed() || want.attempts > 1)
        fallback_runs += static_cast<std::uint64_t>(want.attempts);
    }
  }
  EXPECT_GT(fallback_runs, 0u);
  EXPECT_EQ(runs, fallback_runs);
}

TEST(LedgerCache, DiskRoundTripReplaysIdentically) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::string dir = pas::test::scratch_path("pasim_ledger_roundtrip");
  std::filesystem::remove_all(dir);

  RunMatrix matrix(cfg);
  const sim::WorkLedger fresh = record_ledger(matrix, *kernel, 2, 600);
  const std::string key = RunCache::ledger_key(*kernel, cfg, 2, 0);
  {
    RunCache writer(dir);
    ASSERT_NE(writer.store_ledger(key, fresh), nullptr);
  }
  // A fresh cache (empty memory) must reload the ledger from disk and
  // re-price to the exact bits of the in-memory original.
  RunCache reader(dir);
  const std::shared_ptr<const sim::WorkLedger> loaded =
      reader.lookup_ledger(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->nranks, fresh.nranks);
  EXPECT_EQ(loaded->total_ops(), fresh.total_ops());
  EXPECT_EQ(loaded->verified, fresh.verified);
  const BatchRepricer repricer(cfg);
  const std::vector<double> freqs{600.0, 1400.0};
  const std::vector<RunRecord> from_disk = repricer.reprice(*loaded, freqs);
  const std::vector<RunRecord> in_memory = repricer.reprice(fresh, freqs);
  ASSERT_EQ(from_disk.size(), freqs.size());
  ASSERT_EQ(in_memory.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    SCOPED_TRACE(freqs[i]);
    expect_identical(from_disk[i], in_memory[i]);
  }
}

TEST(LedgerCache, CorruptLedgerIsQuarantinedAndMisses) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  const std::string dir = pas::test::scratch_path("pasim_ledger_quarantine");
  std::filesystem::remove_all(dir);
  const std::string key = RunCache::ledger_key(*kernel, cfg, 2, 0);

  RunMatrix matrix(cfg);
  {
    RunCache writer(dir);
    ASSERT_NE(
        writer.store_ledger(key, record_ledger(matrix, *kernel, 2, 600)),
        nullptr);
  }
  std::filesystem::path entry;
  for (const auto& f : std::filesystem::directory_iterator(dir))
    if (f.path().extension() == ".ledger") entry = f.path();
  ASSERT_FALSE(entry.empty());
  {
    std::FILE* f = std::fopen(entry.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("pasim-run-ledger v3\ntruncated mid-write", f);
    std::fclose(f);
  }
  RunCache reader(dir);
  EXPECT_EQ(reader.lookup_ledger(key), nullptr);
  EXPECT_TRUE(std::filesystem::exists(entry.string() + ".bad"));
}

// A write cut off inside the op arena (crash, full disk) must read as
// a miss and be quarantined, never as a short ledger: the v3 decoder
// checks every rank span's op count against what the arena delivers.
TEST(LedgerCache, TruncatedArenaIsQuarantined) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("FT", Scale::kSmall);
  const std::string dir = pas::test::scratch_path("pasim_ledger_truncated");
  std::filesystem::remove_all(dir);
  const std::string key = RunCache::ledger_key(*kernel, cfg, 2, 0);

  RunMatrix matrix(cfg);
  {
    RunCache writer(dir);
    ASSERT_NE(
        writer.store_ledger(key, record_ledger(matrix, *kernel, 2, 600)),
        nullptr);
  }
  std::filesystem::path entry;
  for (const auto& f : std::filesystem::directory_iterator(dir))
    if (f.path().extension() == ".ledger") entry = f.path();
  ASSERT_FALSE(entry.empty());
  // Cut the file mid-arena: the header and rank spans parse, but the
  // arena runs out of ops before the declared counts are satisfied.
  const auto full = std::filesystem::file_size(entry);
  ASSERT_GT(full, 256u);
  std::filesystem::resize_file(entry, full / 2);

  RunCache reader(dir);
  EXPECT_EQ(reader.lookup_ledger(key), nullptr);
  EXPECT_TRUE(std::filesystem::exists(entry.string() + ".bad"));
}

// LU's charges, message sizes and tags are pinned across builds: the
// ledger of LU n=20 on 4 ranks encodes to the bytes recorded from the
// k-fastest layout and its plain i/j sweep loops.
TEST(LedgerCache, LuLedgerBytesPinned) {
  npb::LuConfig cfg;
  cfg.n = 20;
  cfg.iterations = 2;
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(16));
  rt.ledger_recorder().begin(4, 0.0);
  bool verified = false;
  rt.run(4, 1000, [&](mpi::Comm& comm) {
    const npb::KernelResult r = npb::LuKernel(cfg).run(comm);
    if (comm.rank() == 0) verified = r.verified;
  });
  sim::WorkLedger ledger = rt.ledger_recorder().take();
  ledger.verified = verified;
  EXPECT_EQ(util::fnv1a(RunCache::encode_ledger(ledger)),
            0x0fdecc3fd467a543ULL);
}

TEST(LedgerCache, NonReplayableLedgerIsNeverStored) {
  const auto cfg = sim::ClusterConfig::paper_testbed(2);
  const auto kernel = make_kernel("EP", Scale::kSmall);
  RunMatrix matrix(cfg);
  sim::WorkLedger ledger = record_ledger(matrix, *kernel, 2, 600);
  ledger.replayable = false;
  ledger.decline_reason = "synthetic decline";
  RunCache cache;
  const std::string key = RunCache::ledger_key(*kernel, cfg, 2, 0);
  EXPECT_EQ(cache.store_ledger(key, std::move(ledger)), nullptr);
  EXPECT_EQ(cache.lookup_ledger(key), nullptr);
}

}  // namespace
}  // namespace pas::analysis
