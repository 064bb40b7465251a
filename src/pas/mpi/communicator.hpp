// Comm — the per-rank handle of the simulated message-passing layer
// (simmpi). Provides the MPI-flavoured programming model the NPB
// kernels are written against: explicit compute blocks, point-to-point
// messages, and the collectives the paper's workloads rely on
// (Barrier, Bcast, Reduce, Allreduce, Alltoall, Gather/Scatter).
//
// Time semantics: each rank owns a virtual clock. compute() advances it
// by the CPU model's time for the instruction mix. send() charges the
// sender-side CPU overhead and books link time on the shared fabric;
// recv() completes at max(local time, message arrival) plus the
// receiver-side CPU overhead — a rendezvous in virtual time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pas/fault/fault.hpp"
#include "pas/mpi/mailbox.hpp"
#include "pas/mpi/message.hpp"
#include "pas/sim/cluster.hpp"
#include "pas/sim/sampling.hpp"

namespace pas::mpi {

/// Per-rank communication statistics (feeds the paper's communication
/// profiling step: number of messages and doubles per message, §5.2).
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t collective_calls = 0;
  /// Fault-injected send attempts that were dropped and re-sent.
  std::uint64_t sends_retried = 0;

  double avg_doubles_per_message() const {
    if (messages_sent == 0) return 0.0;
    const double payload =
        static_cast<double>(bytes_sent) -
        static_cast<double>(messages_sent) * static_cast<double>(kHeaderBytes);
    return payload > 0.0 ? payload / 8.0 / static_cast<double>(messages_sent)
                         : 0.0;
  }
};

class Runtime;

class Comm {
 public:
  Comm(Runtime& runtime, int rank, int size,
       fault::RankFaults faults = fault::RankFaults{});

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }
  bool is_root() const { return rank_ == 0; }

  /// Virtual time on this rank.
  double now() const;
  sim::VirtualClock& clock();
  sim::CpuModel& cpu();
  sim::NodeState& node();

  // ---- computation ---------------------------------------------------
  /// Executes `mix` on this node: advances the clock by the CPU model's
  /// ON-chip and OFF-chip times and records the work for the counters.
  void compute(const sim::InstructionMix& mix);

  /// Advances the clock by raw seconds of the given activity (used by
  /// probes and tests).
  void compute_seconds(double s, sim::Activity act = sim::Activity::kCpu);

  // ---- per-phase DVFS ---------------------------------------------------
  /// Communication-phase DVFS (the scheduling idea of the paper's §1
  /// and its refs [14, 15]): while set to a valid operating point, the
  /// CPU drops to that point when a communication region begins (first
  /// send/receive) and returns to the application point lazily when the
  /// next compute block starts. The hysteresis keeps transition costs
  /// (ClusterConfig::dvfs_transition_s per actual switch) off the
  /// per-message path — switching per message would wreck codes with
  /// small frequent messages (see bench/dvfs_comm_savings). Pass 0 to
  /// disable.
  void set_comm_dvfs_mhz(double mhz);
  double comm_dvfs_mhz() const { return comm_dvfs_mhz_; }

  // ---- point-to-point -------------------------------------------------
  /// Buffered (eager) send of a payload of doubles.
  void send(int dst, int tag, Payload data);

  /// Timing-only message of `bytes` wire bytes (no payload).
  void send_bytes(int dst, int tag, std::size_t bytes);

  /// Blocking receive matching exactly (src, tag). A positive
  /// `timeout_s` bounds the wait in *virtual* time: if the receive
  /// completes more than timeout_s after it started, TimeoutError is
  /// thrown (a genuine hang is caught by the deadlock watchdog instead;
  /// see watchdog.hpp).
  Payload recv(int src, int tag, double timeout_s = 0.0);

  /// Blocking receive of a timing-only message; returns its wire size.
  std::size_t recv_bytes(int src, int tag, double timeout_s = 0.0);

  /// Simultaneous exchange: sends `data` to `dst`, receives from `src`.
  /// Deadlock-free because sends are buffered.
  Payload sendrecv(int dst, int src, int tag, Payload data);

  // ---- nonblocking point-to-point --------------------------------------
  /// Handle for an outstanding isend/irecv; complete with wait().
  class Request {
   public:
    Request() = default;
    bool valid() const { return kind_ != Kind::kNone; }

   private:
    friend class Comm;
    enum class Kind { kNone, kSend, kRecv };
    Kind kind_ = Kind::kNone;
    int peer_ = -1;
    int tag_ = 0;
    double tx_end_ = 0.0;  ///< send: link free / message fully injected
    /// Per-rank isend sequence number, pairing this request's wait()
    /// with its posting in the charged-work ledger.
    int ledger_ordinal_ = -1;
  };

  /// Nonblocking send: pays the CPU overhead now, lets the NIC
  /// serialize in the background (the link stays booked), and returns.
  /// wait() blocks the virtual clock only if the link is still busy —
  /// this is the communication/computation overlap MPI_Isend buys.
  Request isend(int dst, int tag, Payload data);

  /// Nonblocking receive. Matching happens at wait(); since sends are
  /// eager, this is primarily a convenience for symmetric code.
  Request irecv(int src, int tag);

  /// Completes a request. For a receive returns its payload; for a
  /// send returns an empty payload. The request becomes invalid.
  Payload wait(Request& request);

  /// Completes all requests in order.
  void waitall(std::vector<Request>& requests);

  // ---- collectives ----------------------------------------------------
  // All ranks of the communicator must call collectives in the same
  // order (MPI semantics). Algorithms are documented in collectives.cpp.
  void barrier();
  void bcast(Payload& data, int root = 0);
  double reduce_sum(double x, int root = 0);
  double allreduce_sum(double x);
  std::vector<double> allreduce_sum(std::vector<double> xs);
  double allreduce_max(double x);
  double allreduce_min(double x);
  /// Personalized all-to-all: send_blocks[i] goes to rank i; returns
  /// blocks received, indexed by source rank. Taken by value so
  /// callers can std::move the blocks straight onto the wire.
  std::vector<Payload> alltoall(std::vector<Payload> send_blocks);
  /// Gathers each rank's payload at `root` (indexed by rank); other
  /// ranks receive an empty vector.
  std::vector<Payload> gather(Payload local, int root = 0);
  /// Root distributes blocks[i] to rank i; returns this rank's block.
  /// By value, same zero-copy convention as alltoall.
  Payload scatter(std::vector<Payload> blocks, int root = 0);
  /// Every rank receives every rank's payload (indexed by rank).
  /// Ring algorithm: N-1 neighbour exchanges, bandwidth-optimal.
  std::vector<Payload> allgather(Payload local);
  /// Inclusive prefix sum: rank r receives sum over ranks 0..r.
  /// Linear chain (the latency-bound classic).
  double scan_sum(double x);

  // ---- introspection --------------------------------------------------
  const CommStats& stats() const { return stats_; }
  std::string describe() const;

  /// Snapshots this rank's cumulative state (clock, activity split,
  /// executed work, comm stats) into `probe` as the boundary of
  /// iteration `iter`. Called by sampled kernel runs at detailed
  /// iteration boundaries; advances no virtual time (DESIGN.md §14).
  void sample_boundary(sim::SampleProbe& probe, int iter) const;

 private:
  /// Sender-side cost + fabric booking + delivery. When `blocking` the
  /// sender's clock advances to the end of the link serialization;
  /// otherwise the serialization end time is returned for wait().
  double post(int dst, int tag, std::size_t payload_bytes, Payload data,
              bool blocking = true);
  /// Receiver-side completion bookkeeping for a matched message.
  void complete_recv(const Message& msg);
  /// Shared body of recv/recv_bytes: monitored mailbox wait +
  /// completion + virtual-time timeout check.
  Message matched_recv(int src, int tag, double timeout_s);
  /// Tag for the next collective phase (lockstep across ranks).
  int next_collective_tag();

  /// Drops the CPU to the comm-DVFS point at the start of a
  /// communication region (no-op when disabled or already down).
  void enter_comm_phase();
  /// Restores the application point at the start of a compute block.
  void exit_comm_phase();

  Runtime& runtime_;
  int rank_;
  int size_;
  /// This rank's fault stream for the current run (inactive when fault
  /// injection is off).
  fault::RankFaults faults_;
  int collective_seq_ = 0;
  int isend_seq_ = 0;
  /// Receiver-port "busy until" in virtual time; owned by this rank's
  /// thread, booked in message-match order (see complete_recv).
  double rx_busy_ = 0.0;
  /// Communication-phase operating point (0 = disabled).
  double comm_dvfs_mhz_ = 0.0;
  bool in_comm_phase_ = false;
  double app_mhz_ = 0.0;  ///< point to restore on phase exit
  CommStats stats_;
};

}  // namespace pas::mpi
