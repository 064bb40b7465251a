// BatchRepricer — analytic replay of a charged-work ledger: one
// forward pass prices every requested DVFS operating point
// simultaneously (DESIGN.md §10–11).
//
// The paper's decomposition (Eq 14/18) says a workload's cost at any
// frequency is determined by its ON-chip work, OFF-chip work and
// parallel overhead — quantities one simulated run of the same
// (kernel, size, N) column already measured. Replay re-executes the
// recorded sim::WorkLedger on one thread: per-channel FIFO queues stand
// in for mailboxes (exact (src, tag) matching means the n-th receive on
// a channel matches the n-th send), and a round-robin scheduler
// advances each rank until it blocks on an empty channel. Both facts
// are independent of frequency, so every lane (operating point) follows
// the *same* op schedule and only the priced seconds differ. State that
// varies per lane (clocks, port busy-until times, per-operating-point
// activity buckets) lives in structure-of-arrays vectors indexed
// [rank * lanes + lane], making the per-op inner loop over lanes
// branch-uniform; state that is frequency-invariant (channel queues,
// message counts, executed instruction mixes, the comm-phase flag) is
// kept once and shared.
//
// Exactness contract: each lane runs the identical arithmetic the full
// simulator runs (CpuModel::time_split, NetworkFabric::transfer, the
// Comm phase machine), in the identical order — frequency-invariant
// terms (ON-chip cycle counts, wire serialization seconds) are hoisted
// and computed once per op, but the per-lane operations consuming them
// are the same divisions and multiplications, never reassociated or
// inverted, and recorded seconds are never scaled. reprice() therefore
// returns RunRecords bit-identical to a full simulation at each
// frequency, which the replay suites (BatchRepricer.*) and
// --verify-replay check against RunMatrix::run_one.
//
// Faults (DESIGN.md §7) change priced seconds and whether a run aborts,
// never the op stream, so a fault-armed ledger replays too. Each lane
// expands the cluster's fault::FaultPlan at attempt 0 — the attempt a
// full simulation of that point starts with — and re-draws every
// rank's RankFaults stream in that rank's program order: straggler
// speed scales the rank's clock rates, sends run Comm's drop → retry →
// backoff loop and draw their switch delay, phase transitions draw
// DVFS jitter, and the node-failure check follows every clock advance
// Comm checks after. A lane in which a rank would throw
// NodeFailedError or MessageLossError is not priced: it comes back
// with the status and error the simulation would report, for the
// caller to simulate in full (where sweep-level retries apply).
#pragma once

#include <vector>

#include "pas/analysis/run_matrix.hpp"
#include "pas/power/energy_meter.hpp"
#include "pas/sim/cluster.hpp"
#include "pas/sim/trace.hpp"
#include "pas/sim/work_ledger.hpp"

namespace pas::analysis {

class BatchRepricer {
 public:
  explicit BatchRepricer(sim::ClusterConfig cluster,
                         power::PowerModel power = power::PowerModel());

  const sim::ClusterConfig& cluster() const { return cluster_; }

  /// Replays `ledger` once and returns one RunRecord per entry of
  /// `freqs_mhz` (index-aligned), each bit-identical to a full
  /// simulation at freqs_mhz[i] (fault attempt 0). A lane whose
  /// simulation would abort on an injected fault instead carries that
  /// run's status and error, attempts 1 and nothing priced. `tracers`,
  /// when non-empty, must have one slot per frequency; lane i's replay
  /// events (the set a traced full run records, in a different order)
  /// are emitted into tracers[i] when that slot is non-null — partial
  /// for an aborted lane, whose events a caller discards.
  ///
  /// Throws std::logic_error when the ledger is not replayable, its op
  /// streams are inconsistent, or it has more ranks than the channel
  /// keys can address; std::out_of_range for a frequency with no
  /// operating point; std::invalid_argument when `tracers` is
  /// non-empty but not index-aligned with `freqs_mhz`.
  std::vector<RunRecord> reprice(
      const sim::WorkLedger& ledger, const std::vector<double>& freqs_mhz,
      const std::vector<sim::Tracer*>& tracers = {}) const;

 private:
  sim::ClusterConfig cluster_;
  power::EnergyMeter meter_;
};

}  // namespace pas::analysis
