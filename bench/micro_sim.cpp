// M1 — google-benchmark microbenchmarks of the substrate: cache-sim
// throughput, CPU-model pricing, network booking, message matching,
// collectives, FFT plans, and a whole small kernel run. The simulator
// hot paths (FFT butterflies, mailbox match, payload transport) have
// dedicated benchmarks so scripts/bench_record.sh can track them.
#include <benchmark/benchmark.h>

#include <thread>
#include <utility>
#include <vector>

#include "pas/analysis/batch_repricer.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/mpi/mailbox.hpp"
#include "pas/npb/fft.hpp"
#include "pas/sim/cache_sim.hpp"

namespace {

using namespace pas;

void BM_CacheSimAccess(benchmark::State& state) {
  sim::CacheHierarchySim caches(sim::MemoryHierarchyConfig::pentium_m());
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(caches.access(addr));
    addr += 64;
    addr &= (8u << 20) - 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimAccess);

void BM_CpuModelPricing(benchmark::State& state) {
  const sim::CpuModel cpu = sim::CpuModel::pentium_m();
  const sim::InstructionMix mix{
      .reg_ops = 1e3, .l1_ops = 2e3, .l2_ops = 50, .mem_ops = 10};
  for (auto _ : state) benchmark::DoNotOptimize(cpu.time_for(mix));
}
BENCHMARK(BM_CpuModelPricing);

void BM_Classify(benchmark::State& state) {
  const sim::MemoryHierarchyConfig cfg = sim::MemoryHierarchyConfig::pentium_m();
  const sim::AccessPattern pat{.working_set_bytes = 4u << 20,
                               .stride_bytes = 16,
                               .temporal_reuse = 2.0};
  for (auto _ : state) benchmark::DoNotOptimize(sim::classify(cfg, pat));
}
BENCHMARK(BM_Classify);

void BM_FabricTransfer(benchmark::State& state) {
  sim::NetworkFabric fabric(16, sim::NetworkConfig::fast_ethernet());
  int src = 0;
  double t = 0.0;
  for (auto _ : state) {
    const auto tr = fabric.transfer(src, (src + 1) % 16, 1024, t);
    benchmark::DoNotOptimize(tr);
    t = tr.tx_end;
    src = (src + 1) % 16;
  }
}
BENCHMARK(BM_FabricTransfer);

void BM_RuntimeBarrier(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(16));
  for (auto _ : state) {
    rt.run(nranks, 1000, [](mpi::Comm& comm) {
      for (int i = 0; i < 10; ++i) comm.barrier();
    });
  }
}
BENCHMARK(BM_RuntimeBarrier)->Arg(2)->Arg(8)->Arg(16);

void BM_EpSmallRun(benchmark::State& state) {
  const auto ep = analysis::make_kernel("EP", analysis::Scale::kSmall);
  analysis::RunMatrix matrix(sim::ClusterConfig::paper_testbed(4));
  for (auto _ : state)
    benchmark::DoNotOptimize(matrix.run_one(*ep, 4, 1400).seconds);
}
BENCHMARK(BM_EpSmallRun);

void BM_FftPlanRoundtrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const npb::FftPlan plan(n);
  std::vector<npb::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = npb::Complex(static_cast<double>(i % 17) * 0.25,
                           static_cast<double>(i % 5) - 2.0);
  for (auto _ : state) {
    plan.forward(data);
    plan.inverse(data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_FftPlanRoundtrip)->Arg(64)->Arg(256)->Arg(1024);

void BM_FftPlanBatchRoundtrip(benchmark::State& state) {
  // The tiled path fft_y uses: 16 interleaved columns per transform.
  constexpr std::size_t kWidth = 16;
  const auto n = static_cast<std::size_t>(state.range(0));
  const npb::FftPlan plan(n);
  std::vector<npb::Complex> data(n * kWidth);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = npb::Complex(static_cast<double>(i % 17) * 0.25,
                           static_cast<double>(i % 5) - 2.0);
  for (auto _ : state) {
    plan.forward_batch(data.data(), kWidth);
    plan.inverse_batch(data.data(), kWidth);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * kWidth) * 2);
}
BENCHMARK(BM_FftPlanBatchRoundtrip)->Arg(64)->Arg(256);

/// Match cost with `depth` messages queued on other channels: O(1)
/// bucketed matching should be flat in depth (the old single-deque
/// scan was linear).
void BM_MailboxMatchDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  mpi::Mailbox mb;
  for (int i = 0; i < depth; ++i) {
    mpi::Message m;
    m.src = i;
    m.tag = 7;
    mb.deliver(std::move(m));
  }
  for (auto _ : state) {
    mpi::Message m;
    m.src = 1 << 20;
    m.tag = 1;
    mb.deliver(std::move(m));
    benchmark::DoNotOptimize(mb.receive(1 << 20, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxMatchDepth)->Arg(0)->Arg(64)->Arg(1024);

/// Concurrent senders on interleaved tags against one receiver —
/// exercises delivery notification and cross-thread handoff.
void BM_MailboxContention(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  constexpr int kTags = 4;
  constexpr int kPerChannel = 64;
  for (auto _ : state) {
    mpi::Mailbox mb;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(senders));
    for (int s = 0; s < senders; ++s) {
      threads.emplace_back([&mb, s] {
        for (int i = 0; i < kTags * kPerChannel; ++i) {
          mpi::Message m;
          m.src = s;
          m.tag = i % kTags;
          m.data.assign(16, static_cast<double>(i));
          mb.deliver(std::move(m));
        }
      });
    }
    for (int s = 0; s < senders; ++s)
      for (int t = 0; t < kTags; ++t)
        for (int i = 0; i < kPerChannel; ++i)
          benchmark::DoNotOptimize(mb.receive(s, t));
    for (std::thread& th : threads) th.join();
  }
  state.SetItemsProcessed(state.iterations() * senders * kTags * kPerChannel);
}
BENCHMARK(BM_MailboxContention)->Arg(2)->Arg(8);

/// Whole-collective cost including payload transport: the zero-copy
/// alltoall moves each 1024-double block instead of copying it.
void BM_AlltoallPayloads(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  mpi::Runtime rt(sim::ClusterConfig::paper_testbed(16));
  for (auto _ : state) {
    rt.run(nranks, 1000, [](mpi::Comm& comm) {
      std::vector<mpi::Payload> blocks(
          static_cast<std::size_t>(comm.size()), mpi::Payload(1024, 1.0));
      for (int round = 0; round < 4; ++round)
        blocks = comm.alltoall(std::move(blocks));
      benchmark::DoNotOptimize(blocks.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * nranks * 4);
}
BENCHMARK(BM_AlltoallPayloads)->Arg(4)->Arg(8);

/// One recorded column ledger for BM_BatchReprice (FT small at N=4: a
/// communication-heavy op stream, the repricer's worst case).
const sim::WorkLedger& bench_ledger() {
  static const sim::WorkLedger ledger = [] {
    const auto ft = analysis::make_kernel("FT", analysis::Scale::kSmall);
    analysis::RunMatrix matrix(sim::ClusterConfig::paper_testbed(4));
    matrix.ledger_recorder().begin(4, 0.0);
    const analysis::RunRecord rec = matrix.run_one(*ft, 4, 600);
    sim::WorkLedger led = matrix.ledger_recorder().take();
    led.verified = rec.verified;
    return led;
  }();
  return ledger;
}

std::vector<double> lane_freqs(int lanes) {
  constexpr double kGrid[5] = {600, 800, 1000, 1200, 1400};
  std::vector<double> freqs;
  freqs.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) freqs.push_back(kGrid[i % 5]);
  return freqs;
}

/// Replay: one forward pass prices every lane (DESIGN.md §11). Items =
/// lanes, so items/s compares across lane counts.
void BM_BatchReprice(benchmark::State& state) {
  const sim::WorkLedger& ledger = bench_ledger();
  const analysis::BatchRepricer repricer(sim::ClusterConfig::paper_testbed(4));
  const std::vector<double> freqs =
      lane_freqs(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(repricer.reprice(ledger, freqs).size());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchReprice)->Arg(1)->Arg(4)->Arg(12);

void BM_SpPrediction(benchmark::State& state) {
  core::SimplifiedParameterization sp(600);
  for (double f : {600.0, 800.0, 1000.0, 1200.0, 1400.0})
    sp.add_sequential(f, 6000.0 / f);
  for (int n : {2, 4, 8, 16}) sp.add_parallel_base(n, 10.0 / n + 0.2 * n);
  for (auto _ : state) benchmark::DoNotOptimize(sp.predict_time(8, 1200));
}
BENCHMARK(BM_SpPrediction);

}  // namespace

BENCHMARK_MAIN();
