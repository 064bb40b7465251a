// Per-rank virtual time with activity accounting.
//
// Every simulated rank owns a VirtualClock. Computation and
// communication advance it; the per-activity breakdown feeds the power
// model (busy CPU burns dynamic power, memory stalls and network waits
// burn less) and the analysis layer (ON-chip vs OFF-chip vs overhead
// time, the decomposition at the heart of the paper).
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace pas::sim {

/// What a node is doing while virtual time passes.
enum class Activity : std::size_t {
  kCpu = 0,      ///< ON-chip computation (scales with f_ON)
  kMemory = 1,   ///< OFF-chip access stalls (scale with f_OFF)
  kNetwork = 2,  ///< communication overhead / transfer / wait
  kIdle = 3,     ///< waiting with nothing to do (e.g. barrier slack)
};
inline constexpr std::size_t kNumActivities = 4;

const char* activity_name(Activity a);

class VirtualClock {
 public:
  double now() const { return now_; }

  /// Advances by `dt >= 0` seconds spent in `activity`.
  void advance(double dt, Activity activity);

  /// Jumps forward to absolute time `t` (no-op if `t <= now`),
  /// attributing the gap to `activity` (default: idle wait).
  void advance_to(double t, Activity activity = Activity::kIdle);

  /// Total seconds attributed to `activity` so far.
  double seconds_in(Activity activity) const;

  /// CPU + memory time (the node was executing the application).
  double busy_seconds() const;

  void reset();

  /// Per-activity totals, for sampled-run boundary probes.
  const std::array<double, kNumActivities>& by_activity() const {
    return by_activity_;
  }

  std::string to_string() const;

 private:
  double now_ = 0.0;
  std::array<double, kNumActivities> by_activity_{};
};

}  // namespace pas::sim
