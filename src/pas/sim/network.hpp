// Switched-cluster network model (the paper's 100 Mb Cisco Catalyst
// 2950 fabric).
//
// Cost model per message, LogGP-flavoured with explicit port occupancy:
//
//   sender CPU  : o_s(f) = (per_message_cycles + bytes*cycles_per_byte)/f
//   sender link : serialization T_ser = bytes / bandwidth
//   switch      : store-and-forward latency L
//   receiver link: T_ser again (store-and-forward), subject to rx-port
//                  availability (incast contention)
//   receiver CPU: o_r(f), same form as o_s
//
// The CPU overheads scale with the DVFS frequency — this is the
// mechanism behind the paper's Table 6 observation that large-message
// communication slows slightly at the lowest CPU clock while wire time
// dominates and is frequency-independent (the basis of Assumption 2,
// w_PO^ON ≈ 0).
//
// Determinism: the sender link's "busy until" state is only ever
// touched by the owning rank's thread (sends are initiated locally), so
// tx booking is deterministic. Receiver-port serialization is NOT
// booked here — the fabric returns the switch-forwarding time and the
// serialization length, and the *receiver* books its own rx port in its
// program order when it matches the message (Comm::complete_recv).
// This keeps incast contention modeled while making results a pure
// function of the program, independent of thread scheduling (DESIGN.md
// decision 1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace pas::sim {

struct NetworkConfig {
  double bandwidth_bps = 100e6 * 0.9;  ///< effective wire bandwidth
  double switch_latency_s = 30e-6;     ///< store-and-forward + wire
  double per_message_cpu_cycles = 2000.0;  ///< each side, per message
  double cpu_cycles_per_byte = 4.0;        ///< each side (stack + copy)
  bool model_port_contention = true;

  /// The paper's testbed fabric: 100 Mb Fast Ethernet, MPICH over TCP.
  static NetworkConfig fast_ethernet() { return NetworkConfig{}; }

  /// Wire serialization time of a message (bandwidth is in bits/s).
  double serialization_s(std::size_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  }

  /// CPU overhead seconds on one side at CPU frequency `f_hz`.
  double cpu_overhead_s(std::size_t bytes, double f_hz) const {
    return (per_message_cpu_cycles +
            cpu_cycles_per_byte * static_cast<double>(bytes)) /
           f_hz;
  }

  /// Uncontended end-to-end NIC-to-NIC time (excludes CPU overheads).
  double wire_time_s(std::size_t bytes) const {
    return 2.0 * serialization_s(bytes) + switch_latency_s;
  }

  std::string to_string() const;
};

/// The booked schedule of one message.
struct NetworkTransfer {
  double tx_start = 0.0;   ///< sender NIC begins serializing
  double tx_end = 0.0;     ///< sender link free again
  double at_switch = 0.0;  ///< switch begins forwarding (store&forward)
  double rx_ser_s = 0.0;   ///< receiver-port serialization length
  /// Arrival assuming an idle receiver port; the receiver applies its
  /// own port occupancy on top (Comm::complete_recv).
  double nominal_arrival() const { return at_switch + rx_ser_s; }
};

/// The booking arithmetic of one transfer, shared verbatim between the
/// live fabric (NetworkFabric::transfer) and the replay engines: the
/// repricers must run the *identical* operations to stay bit-identical,
/// and the batch engine prices `ser` — the frequency-invariant wire
/// term — once per op, then books each lane against its own
/// `tx_busy_src` port state. `ser` must be cfg.serialization_s(bytes);
/// it is a parameter purely so that hoisting is possible.
inline NetworkTransfer book_transfer(const NetworkConfig& cfg, int src,
                                     int dst, double ser, double tx_ready,
                                     double& tx_busy_src) {
  NetworkTransfer t;
  if (src == dst) {
    // Local loopback: a memcpy-scale cost, no link occupancy.
    t.tx_start = tx_ready;
    t.tx_end = tx_ready;
    t.at_switch = tx_ready + 1e-6;
    t.rx_ser_s = 0.0;
    return t;
  }

  t.rx_ser_s = ser;

  if (!cfg.model_port_contention) {
    t.tx_start = tx_ready;
    t.tx_end = tx_ready + ser;
    t.at_switch = t.tx_end + cfg.switch_latency_s;
    return t;
  }

  t.tx_start = std::max(tx_ready, tx_busy_src);
  t.tx_end = t.tx_start + ser;
  tx_busy_src = t.tx_end;

  // Store-and-forward: the switch begins forwarding once the message is
  // fully received; the receiver port serializes it again — booked by
  // the receiver itself (see header comment).
  t.at_switch = t.tx_end + cfg.switch_latency_s;
  return t;
}

/// Port-occupancy state for an n-node star (one full-duplex link per
/// node into a non-blocking switch). Thread-safe.
class NetworkFabric {
 public:
  NetworkFabric(int num_nodes, NetworkConfig cfg);

  const NetworkConfig& config() const { return cfg_; }
  int num_nodes() const { return static_cast<int>(tx_busy_.size()); }

  using Transfer = NetworkTransfer;

  /// Books a `bytes`-sized message from `src` to `dst`, whose sender
  /// NIC is ready at virtual time `tx_ready`. Returns the booked
  /// schedule. `src == dst` models a local (shared-memory) copy with
  /// no link usage and a small fixed cost.
  Transfer transfer(int src, int dst, std::size_t bytes, double tx_ready);

  /// Total bytes ever sent through the fabric (diagnostics).
  std::size_t total_bytes() const;
  std::size_t total_messages() const;

  void reset();

 private:
  NetworkConfig cfg_;
  mutable std::mutex mutex_;
  std::vector<double> tx_busy_;
  std::size_t total_bytes_ = 0;
  std::size_t total_messages_ = 0;
};

}  // namespace pas::sim
