// Charged-work ledger: the frequency-independent record of everything
// one run charged to its virtual clocks.
//
// The paper's central claim (Eq 14/18) is that a workload decomposes
// into ON-chip work (scales with f), OFF-chip work (pinned to the bus
// clock) and parallel overhead — so once one run has been simulated,
// every other DVFS point of the same (kernel, size, N) column is a
// re-pricing, not a re-execution. The ledger captures the inputs of
// that re-pricing: per rank, in program order, every compute block's
// InstructionMix, every raw-seconds charge, and every communication
// event (peer, tag, wire bytes, blocking-ness). Deliberately *no*
// charged seconds are stored for frequency-dependent work — the
// replayer (analysis::BatchRepricer) re-runs the identical arithmetic
// through the same CpuModel/NetworkConfig code at the new operating
// point, which is what makes replayed records bit-identical to full
// simulation rather than merely close (DESIGN.md §10).
//
// Storage is a single contiguous arena of WorkOps grouped by rank,
// addressed through per-rank spans: replay scans it cache-linearly,
// and the repricer's per-op inner loop never chases an outer
// vector-of-vectors indirection (DESIGN.md §11). The recorder appends
// into fixed-size per-rank chunks so the rank threads pay no geometric
// reallocation copies; take() splices the chunks into the arena once,
// after the pool join.
//
// A ledger is only valid for kernels whose control flow is independent
// of virtual time (npb::Kernel::frequency_invariant_control_flow());
// the recorder additionally declines when it observes a virtual-time
// receive timeout, the one Comm feature whose outcome is
// timing-dependent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pas/sim/cpu_model.hpp"
#include "pas/sim/virtual_clock.hpp"

namespace pas::sim {

/// One charged operation of one rank, at Comm-call granularity.
struct WorkOp {
  enum class Kind : std::uint8_t {
    kCompute,     ///< Comm::compute(mix)
    kRawSeconds,  ///< Comm::compute_seconds(seconds, activity)
    kSend,        ///< blocking send or isend posting (peer = dst)
    kSendWait,    ///< wait() on an isend (ordinal = isend sequence no.)
    kRecv,        ///< matched receive (peer = src)
    kCommDvfs,    ///< set_comm_dvfs_mhz(mhz)
  };

  InstructionMix mix;               ///< kCompute
  double seconds = 0.0;             ///< kRawSeconds
  double mhz = 0.0;                 ///< kCommDvfs
  std::size_t bytes = 0;            ///< kSend: wire bytes (payload + header)
  int peer = -1;                    ///< kSend dst / kRecv src
  int tag = 0;                      ///< kSend / kRecv
  int ordinal = -1;                 ///< kSendWait: per-rank isend ordinal
  Kind kind = Kind::kCompute;
  Activity activity = Activity::kCpu;  ///< kRawSeconds
  bool blocking = true;             ///< kSend

  static WorkOp compute(const InstructionMix& m) {
    WorkOp op;
    op.kind = Kind::kCompute;
    op.mix = m;
    return op;
  }
  static WorkOp raw_seconds(double s, Activity act) {
    WorkOp op;
    op.kind = Kind::kRawSeconds;
    op.seconds = s;
    op.activity = act;
    return op;
  }
  static WorkOp send(int dst, int tag, std::size_t wire_bytes, bool blocking) {
    WorkOp op;
    op.kind = Kind::kSend;
    op.peer = dst;
    op.tag = tag;
    op.bytes = wire_bytes;
    op.blocking = blocking;
    return op;
  }
  static WorkOp send_wait(int ordinal) {
    WorkOp op;
    op.kind = Kind::kSendWait;
    op.ordinal = ordinal;
    return op;
  }
  static WorkOp recv(int src, int tag) {
    WorkOp op;
    op.kind = Kind::kRecv;
    op.peer = src;
    op.tag = tag;
    return op;
  }
  static WorkOp comm_dvfs(double mhz) {
    WorkOp op;
    op.kind = Kind::kCommDvfs;
    op.mhz = mhz;
    return op;
  }
};

/// The op streams of one recorded run: one flat arena, grouped by rank.
struct WorkLedger {
  /// Position of one rank's stream inside the arena.
  struct Span {
    std::size_t offset = 0;
    std::size_t count = 0;
  };

  int nranks = 0;
  /// Communication-phase DVFS point the run was configured with
  /// (0 = disabled); kept for cache-consistency checks — the ops
  /// themselves re-drive the phase state machine at replay.
  double comm_dvfs_mhz = 0.0;
  /// Kernel verification verdict of the recorded run (frequency-
  /// invariant, so replayed records reuse it verbatim).
  bool verified = false;
  /// False when recording observed a timing-dependent construct; a
  /// non-replayable ledger must never be priced.
  bool replayable = true;
  std::string decline_reason;
  /// Every rank's ops, contiguous and rank-grouped; rank_spans[r]
  /// addresses rank r's stream in that rank's program order.
  std::vector<WorkOp> arena;
  std::vector<Span> rank_spans;

  const WorkOp* rank_ops(int rank) const {
    return arena.data() + rank_spans[static_cast<std::size_t>(rank)].offset;
  }
  std::size_t rank_size(int rank) const {
    return rank_spans[static_cast<std::size_t>(rank)].count;
  }

  std::size_t total_ops() const { return arena.size(); }
  /// Arena footprint (the batch engine's repricer.ledger_bytes metric).
  std::size_t arena_bytes() const { return arena.size() * sizeof(WorkOp); }
};

/// Recording sink owned by mpi::Runtime, mirroring the Tracer pattern:
/// begin() before the rank threads start, take()/abort() after they
/// join. Each rank appends only to its own chunk list and decline slot,
/// so recording needs no locking (the pool join provides the
/// synchronization edges).
class WorkLedgerRecorder {
 public:
  /// Arms recording for a run of `nranks` ranks.
  void begin(int nranks, double comm_dvfs_mhz);

  bool enabled() const { return enabled_; }

  /// Appends `op` to `rank`'s stream. Caller must check enabled().
  void record(int rank, WorkOp op) {
    RankStream& s = streams_[static_cast<std::size_t>(rank)];
    if (s.chunks.empty() || s.chunks.back().size() == kChunkOps) {
      s.chunks.emplace_back();
      s.chunks.back().reserve(kChunkOps);
    }
    s.chunks.back().push_back(op);
  }

  /// Marks the run as non-replayable (e.g. a virtual-time recv
  /// timeout was used). Safe from any rank thread: each rank writes
  /// only its own slot.
  void decline(int rank, std::string reason) {
    decline_reasons_[static_cast<std::size_t>(rank)] = std::move(reason);
  }

  /// Disarms, splices the per-rank chunks into the flat arena and
  /// returns the finished ledger. Per-rank declines are merged
  /// deterministically (lowest rank wins).
  WorkLedger take();

  /// Disarms and discards (failed or abandoned run).
  void abort();

 private:
  /// Chunk capacity: big enough that splicing is a handful of bulk
  /// copies, small enough that an idle rank wastes little.
  static constexpr std::size_t kChunkOps = 4096;
  struct RankStream {
    std::vector<std::vector<WorkOp>> chunks;
  };

  bool enabled_ = false;
  WorkLedger ledger_;
  std::vector<RankStream> streams_;
  std::vector<std::string> decline_reasons_;
};

}  // namespace pas::sim
