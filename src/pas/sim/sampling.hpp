// SMARTS-style systematic-sampling support (DESIGN.md §14).
//
// A sampled run executes only a deterministic subset of a kernel's
// top-level iterations in detail — a warming window of `warmup_iters`
// iterations followed by every `sample_period`-th iteration — and
// skips the rest entirely (no charges, no messages; every rank shares
// the same plan, so communication stays matched). The SampleProbe
// collects a per-rank state snapshot at every detailed iteration
// boundary; analysis::SampledEstimator turns the deltas between
// consecutive snapshots into per-iteration costs, extrapolates the
// skipped iterations, and reports a confidence interval with the
// estimate. Skipped iterations advance no virtual time, so the delta
// between consecutive detailed boundaries is exactly the cost of one
// detailed iteration.
//
// The probe is write-only from the rank threads: each rank appends to
// its own pre-sized lane (the pool join publishes the data), mirroring
// the WorkLedgerRecorder pattern.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "pas/sim/cluster.hpp"

namespace pas::sim {

/// Per-rank state snapshot at one iteration boundary. All fields are
/// cumulative since run start (deltas are taken by the estimator).
struct RankSample {
  int iter = 0;  ///< 1-based iteration just completed (0 = start baseline)
  double now = 0.0;
  std::array<double, kNumActivities> by_activity{};
  InstructionMix executed;
  std::map<long, ActivitySeconds> activity_by_fkey;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t collective_calls = 0;
  std::uint64_t sends_retried = 0;
};

/// Boundary-snapshot sink of one sampled run. begin() before the rank
/// bodies start; each rank records only into its own lane.
class SampleProbe {
 public:
  void begin(int nranks) {
    lanes_.assign(static_cast<std::size_t>(nranks), {});
  }

  /// Appends `s` to `rank`'s lane. Called by mpi::Comm::sample_boundary
  /// from the rank's own thread; boundaries arrive in iteration order.
  void record(int rank, RankSample s) {
    lanes_[static_cast<std::size_t>(rank)].push_back(std::move(s));
  }

  int nranks() const { return static_cast<int>(lanes_.size()); }
  const std::vector<RankSample>& lane(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)];
  }

 private:
  std::vector<std::vector<RankSample>> lanes_;
};

}  // namespace pas::sim
