// pas::fault — seeded, deterministic fault injection for the simulated
// cluster.
//
// A FaultPlan expands (FaultConfig, nranks, attempt) into per-node
// decisions (straggler skew, whole-node failure times) drawn once at
// plan creation, plus one private RankFaults stream per rank for the
// per-event draws (message drop/delay, DVFS-transition jitter). Every
// draw a rank makes happens in its own program order from its own
// stream, so a faulty run is still a pure function of the run inputs:
// the same seed produces bit-identical results at any --jobs and any
// thread interleaving (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "pas/util/rng.hpp"

namespace pas::util {
class Cli;
}

namespace pas::fault {

/// The repo's one exponential-backoff policy: base * 2^retry (retry is
/// 0-based, clamped to [0, 62]). Used by message-send retries here and
/// by analysis::ColumnSupervisor's crashed-worker retries (--isolate and
/// pasim_serve) so both layers back off identically.
double backoff_s(double base_s, int retry);

/// Trace-marker labels of injected message faults, shared by Comm and
/// the batch repricer so a replayed lane emits the simulator's bytes.
std::string drop_label(int dst, int tag, int tries);
std::string delay_label(int dst, int tag, double delay_s);

/// Base of every fault-induced abort. SweepExecutor treats these (and
/// the runtime's DeadlockError/TimeoutError) as fail-soft: the run is
/// recorded as failed and the sweep continues.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A node reached its planned whole-node failure time.
class NodeFailedError : public FaultError {
 public:
  NodeFailedError(int node, double fail_time_s);
  int node() const { return node_; }
  double fail_time_s() const { return fail_time_s_; }

 private:
  int node_;
  double fail_time_s_;
};

/// A message was dropped on every allowed send attempt.
class MessageLossError : public FaultError {
 public:
  MessageLossError(int src, int dst, int tag, int attempts);
};

/// Knobs of the fault model. All probabilities are per-event; all rates
/// default to 0 so a default-constructed config is a perfect cluster.
struct FaultConfig {
  /// Master seed; everything below is a deterministic function of it.
  std::uint64_t seed = 0;

  // Stragglers: a fraction of nodes runs its CPU/bus slower by
  // `straggler_slowdown` (per-node decision, drawn at plan creation).
  double straggler_fraction = 0.0;
  double straggler_slowdown = 0.25;  ///< 0.25 => straggler at 75 % speed

  /// Extra per-transition latency when a per-phase DVFS schedule
  /// switches operating points, uniform in [0, dvfs_jitter_s).
  double dvfs_jitter_s = 0.0;

  // Message faults (per send attempt / per delivered message).
  double message_delay_prob = 0.0;
  double message_delay_s = 500e-6;  ///< mean extra switch delay
  double message_drop_prob = 0.0;
  int max_send_attempts = 4;        ///< total tries before MessageLossError
  double retry_backoff_s = 200e-6;  ///< first backoff; doubles per retry

  // Whole-node failure: with `node_failure_prob`, a node dies at a
  // uniform virtual time in [0, node_failure_window_s).
  double node_failure_prob = 0.0;
  double node_failure_window_s = 1.0;

  bool enabled() const;
  bool message_faults() const {
    return message_delay_prob > 0.0 || message_drop_prob > 0.0;
  }

  /// Canonical spelling of every knob (cache keys; see RunCache).
  std::string signature() const;

  /// A single-knob preset: every probability scaled from one rate, as
  /// swept by bench/resilience_sweep.
  static FaultConfig scaled(double rate, std::uint64_t seed = 1);

  /// `--faults <rate>` (the scaled() preset) and `--fault-seed <n>`.
  static FaultConfig from_cli(const util::Cli& cli);
};

/// Per-rank fault stream, handed to each Comm at run start. The
/// default-constructed instance is inactive: draws nothing, never
/// throws — the zero-overhead path for fault-free runs.
class RankFaults {
 public:
  RankFaults() = default;
  RankFaults(const FaultConfig& cfg, std::uint64_t stream_seed, int rank,
             double fail_time_s);

  bool active() const { return active_; }
  bool message_faults() const { return active_ && cfg_.message_faults(); }

  /// False once the rank's virtual clock has reached its planned
  /// failure time — the one alive predicate, shared by check_alive and
  /// the batch repricer's per-lane fault replay.
  bool alive_at(double now) const { return !active_ || now < fail_time_s_; }
  /// Throws NodeFailedError when !alive_at(now).
  void check_alive(double now) const;
  /// Planned failure time (+inf if the rank survives).
  double fail_time_s() const { return fail_time_s_; }

  /// One send attempt: true if the attempt is lost.
  bool draw_drop();
  /// Extra switch-to-receiver delay for a delivered message (0 when
  /// the message is not delayed).
  double draw_delay();
  /// Extra DVFS-transition latency, uniform in [0, dvfs_jitter_s).
  double draw_dvfs_jitter();

  int max_send_attempts() const { return cfg_.max_send_attempts; }
  /// Backoff before retry number `retry` (0-based): base * 2^retry.
  double backoff_s(int retry) const;

 private:
  FaultConfig cfg_;
  bool active_ = false;
  int rank_ = 0;
  double fail_time_s_ = std::numeric_limits<double>::infinity();
  util::Xoshiro256 rng_{0};
};

/// The expanded fault schedule of one run attempt. Construction draws
/// all per-node decisions; rank_faults() derives the per-rank streams.
class FaultPlan {
 public:
  /// Inactive plan (perfect cluster).
  FaultPlan() = default;
  /// `attempt` salts the seed so a sweep-level retry of a transient
  /// fault replays a *different* (but still deterministic) schedule.
  FaultPlan(const FaultConfig& cfg, int nranks, int attempt = 0);

  bool active() const { return active_; }
  int attempt() const { return attempt_; }

  /// CPU/bus speed multiplier of `node` (1.0, or 1-slowdown for a
  /// straggler).
  double speed_factor(int node) const;
  /// Virtual time at which `node` dies (+inf if it survives).
  double fail_time_s(int node) const;

  RankFaults rank_faults(int rank) const;

 private:
  FaultConfig cfg_;
  bool active_ = false;
  int attempt_ = 0;
  std::uint64_t salt_ = 0;
  std::vector<double> speed_;
  std::vector<double> fail_at_;
};

}  // namespace pas::fault
