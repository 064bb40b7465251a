#include "pas/analysis/batch_repricer.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "pas/analysis/replay_detail.hpp"
#include "pas/fault/fault.hpp"
#include "pas/mpi/communicator.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/sim/network.hpp"
#include "pas/util/format.hpp"

namespace pas::analysis {
namespace {

using detail::channel_key;

constexpr std::size_t kActs = sim::kNumActivities;

/// flight_at_switch of a message its sender never posted in that lane
/// (the sender had already stopped): a receive that matches it blocks
/// forever, as the simulator's mailbox would.
constexpr double kLost = std::numeric_limits<double>::infinity();

/// Per-lane (operating-point) constants, resolved once per reprice.
/// The clock rates every rank of the lane runs at live per (rank, lane)
/// in reprice(), because a straggler rank scales them.
struct LaneConst {
  double in_mhz = 0.0;   ///< the caller's frequency, echoed into records
  double app_mhz = 0.0;  ///< nominal table frequency (current().frequency_mhz())
  long fkey_app = 0;
  double nominal_hz = 0.0;  ///< the operating point's own frequency_hz
};

/// One lane's fault outcome: the run's abort as Runtime::pick_error
/// reports it (the lowest rank that threw) and the injected faults a
/// priced lane reports.
struct LaneFaults {
  RunStatus status = RunStatus::kOk;
  int fail_rank = 0;
  std::string error;
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
};

/// Frequency-invariant per-rank replay state, shared by all lanes: the
/// op cursor, message statistics, executed instruction mixes and the
/// comm-phase machine's control state. That these are lane-invariant is
/// the core batching fact — a receive blocks on an empty channel at
/// every frequency or at none, so one schedule drives all lanes.
struct RankShared {
  std::size_t next = 0;
  sim::InstructionMix executed;
  mpi::CommStats stats;
  bool in_phase = false;
  double comm_raw_mhz = 0.0;  ///< last kCommDvfs value (0 = disabled)
  /// Comm operating point of the active phase (valid while any lane is
  /// switched): nominal frequency, its fkey, this rank's clock rate
  /// there (straggler scale applied) and activity slot. Lane-invariant
  /// because the comm point is a property of the run, not of the lane.
  double comm_nominal_mhz = 0.0;
  long comm_fkey = 0;
  double comm_f_hz = 0.0;
  int comm_slot = 0;
  /// tx_end per nonblocking send, [ordinal * lanes + lane].
  std::vector<double> nb_tx_end;
};

}  // namespace

BatchRepricer::BatchRepricer(sim::ClusterConfig cluster,
                             power::PowerModel power)
    : cluster_(std::move(cluster)), meter_(std::move(power)) {}

std::vector<RunRecord> BatchRepricer::reprice(
    const sim::WorkLedger& ledger, const std::vector<double>& freqs_mhz,
    const std::vector<sim::Tracer*>& tracers) const {
  if (!ledger.replayable)
    throw std::logic_error(pas::util::strf(
        "BatchRepricer: ledger is not replayable (%s)",
        ledger.decline_reason.empty() ? "no reason recorded"
                                      : ledger.decline_reason.c_str()));
  const int n = ledger.nranks;
  if (n < 1 || ledger.rank_spans.size() != static_cast<std::size_t>(n))
    throw std::logic_error("BatchRepricer: malformed ledger");
  detail::check_replay_rank_count(n);
  const std::size_t F = freqs_mhz.size();
  if (F == 0) return {};
  if (!tracers.empty() && tracers.size() != F)
    throw std::invalid_argument(
        "BatchRepricer: tracers must be index-aligned with freqs_mhz");

  const sim::NetworkConfig& net = cluster_.network;
  const sim::CpuModel cpu(cluster_.cpu, cluster_.memory,
                          cluster_.operating_points);
  // The plan every lane's full simulation would draw at its first
  // attempt: per-rank straggler speed and failure time, and one fault
  // stream per rank that each lane re-draws on its own (below).
  const fault::FaultPlan plan(cluster_.fault, n, /*attempt=*/0);
  const bool faulty = plan.active();

  std::vector<LaneConst> lane(F);
  for (std::size_t l = 0; l < F; ++l) {
    // at_mhz throws out_of_range for an unknown point, exactly like the
    // simulator's set_frequency_mhz.
    const sim::OperatingPoint& op =
        cluster_.operating_points.at_mhz(freqs_mhz[l]);
    lane[l].in_mhz = freqs_mhz[l];
    lane[l].app_mhz = op.frequency_mhz();
    lane[l].fkey_app = sim::NodeState::fkey(lane[l].app_mhz);
    lane[l].nominal_hz = op.frequency_hz;
  }

  // Activity slots: slot 0 is the lane's own (app) operating point;
  // comm-phase points claim further slots as phases resolve them. The
  // pre-scan bounds the slot count so the SoA buckets are allocated
  // once. (slot_fkey[0] is per-lane — lane[l].fkey_app — the shared
  // entries start at 1.)
  std::size_t max_slots = 1;
  {
    std::vector<double> raw_seen;
    for (const sim::WorkOp& op : ledger.arena) {
      if (op.kind != sim::WorkOp::Kind::kCommDvfs || op.mhz <= 0.0) continue;
      if (std::find(raw_seen.begin(), raw_seen.end(), op.mhz) ==
          raw_seen.end())
        raw_seen.push_back(op.mhz);
    }
    max_slots += raw_seen.size();
  }
  const std::size_t S = max_slots;
  std::vector<long> slot_fkey(S, 0);
  std::size_t slots_in_use = 1;
  std::unordered_map<long, int> slot_of_fkey;

  // SoA lane state, [rank * F + lane]. Buckets mirror NodeState: `now`
  // and `tot` are the VirtualClock (now_ / by_activity_), the per-slot
  // buckets are activity_by_fkey — both updated on every spend, in the
  // same order, so the running sums are bit-identical.
  const std::size_t NL = static_cast<std::size_t>(n) * F;
  std::vector<double> now(NL, 0.0);
  std::vector<double> tot(NL * kActs, 0.0);
  std::vector<double> slot_act(NL * S * kActs, 0.0);
  std::vector<unsigned char> slot_used(NL * S, 0);
  std::vector<double> rx_busy(NL, 0.0);
  std::vector<double> tx_busy(NL, 0.0);
  std::vector<double> cur_fhz(NL, 0.0);
  std::vector<int> cur_slot(NL, 0);
  std::vector<unsigned char> switched(NL, 0);
  // App-point clock rate and seconds per OFF-chip op of each rank in
  // each lane: CpuModel::frequency_hz() and seconds_per_mem_op() under
  // the rank's straggler scale (1.0 on a healthy rank, where the * and
  // / are bit-exact identities).
  std::vector<double> app_fhz(NL, 0.0);
  std::vector<double> app_spm(NL, 0.0);
  for (int r = 0; r < n; ++r) {
    const double speed = plan.speed_factor(r);
    for (std::size_t l = 0; l < F; ++l) {
      const std::size_t idx = static_cast<std::size_t>(r) * F + l;
      app_fhz[idx] = lane[l].nominal_hz * speed;
      app_spm[idx] = cluster_.memory.dram_latency(app_fhz[idx]) / speed;
      cur_fhz[idx] = app_fhz[idx];
    }
  }

  // Fault state, per (rank, lane), sized only with faults armed. Each
  // lane re-draws its rank's stream from the seed in that rank's
  // program order, exactly as the lane's own simulation would — streams
  // diverge across lanes because jitter draws only where a lane
  // switches operating points. A stopped rank threw (or blocks forever
  // on a message its stopped sender never posted) and does nothing more
  // in that lane.
  std::vector<fault::RankFaults> faults;
  std::vector<std::uint64_t> retried(faulty ? NL : 0, 0);
  std::vector<unsigned char> stopped(faulty ? NL : 0, 0);
  std::vector<LaneFaults> lane_faults(faulty ? F : 0);
  if (faulty) {
    faults.reserve(NL);
    for (int r = 0; r < n; ++r)
      for (std::size_t l = 0; l < F; ++l) faults.push_back(plan.rank_faults(r));
  }
  const auto stop = [&](int r, std::size_t l, RunStatus status,
                        const char* error) {
    stopped[static_cast<std::size_t>(r) * F + l] = 1;
    LaneFaults& lf = lane_faults[l];
    if (lf.status != RunStatus::kOk && r >= lf.fail_rank) return;
    lf.status = status;
    lf.fail_rank = r;
    lf.error = error;
  };
  /// Comm's faults_.check_alive after a clock advance.
  const auto check_alive = [&](int r, std::size_t l, std::size_t idx) {
    const fault::RankFaults& f = faults[idx];
    if (f.alive_at(now[idx])) return;
    stop(r, l, RunStatus::kNodeFailure,
         fault::NodeFailedError(r, f.fail_time_s()).what());
  };

  std::vector<RankShared> rank(static_cast<std::size_t>(n));

  // In-flight messages: matching (the queue discipline) is shared, the
  // booked switch-forwarding time is per lane.
  std::vector<std::size_t> flight_bytes;
  std::vector<double> flight_rx_ser;
  std::vector<double> flight_at_switch;  // [msg_id * F + lane]
  std::unordered_map<std::uint64_t, std::deque<std::uint32_t>> channels;

  const auto tracer_of = [&](std::size_t l) -> sim::Tracer* {
    return tracers.empty() ? nullptr : tracers[l];
  };

  /// NodeState::spend, against lane-local buckets.
  const auto spend = [&](std::size_t idx, int slot, double dt,
                         sim::Activity act) {
    if (dt <= 0.0) return;
    const auto a = static_cast<std::size_t>(act);
    now[idx] += dt;
    tot[idx * kActs + a] += dt;
    slot_act[(idx * S + static_cast<std::size_t>(slot)) * kActs + a] += dt;
    slot_used[idx * S + static_cast<std::size_t>(slot)] = 1;
  };
  const auto spend_until = [&](std::size_t idx, int slot, double t,
                               sim::Activity act) {
    spend(idx, slot, t - now[idx], act);
  };

  /// DVFS-transition latency plus the lane's jitter draw, as Comm
  /// charges it (the draw is 0 with faults disarmed).
  const auto transition_s = [&](std::size_t idx) {
    return cluster_.dvfs_transition_s +
           (faulty ? faults[idx].draw_dvfs_jitter() : 0.0);
  };

  /// Mirrors Comm::enter_comm_phase. The phase flag flips once
  /// (shared); whether a lane switches points — and therefore pays the
  /// transition and draws its jitter — depends on its own fkey.
  const auto enter_comm_phase = [&](int r) {
    RankShared& rs = rank[static_cast<std::size_t>(r)];
    if (rs.comm_raw_mhz <= 0.0 || rs.in_phase) return;
    rs.in_phase = true;
    const long fkey_raw = sim::NodeState::fkey(rs.comm_raw_mhz);
    bool resolved = false;
    for (std::size_t l = 0; l < F; ++l) {
      if (lane[l].fkey_app == fkey_raw) continue;  // already at the point
      const std::size_t idx = static_cast<std::size_t>(r) * F + l;
      if (faulty && stopped[idx]) continue;
      if (!resolved) {
        // Resolved lazily — only a switching lane consults the table,
        // exactly when the simulator's set_frequency_mhz would.
        const sim::OperatingPoint& cop =
            cluster_.operating_points.at_mhz(rs.comm_raw_mhz);
        rs.comm_nominal_mhz = cop.frequency_mhz();
        rs.comm_fkey = sim::NodeState::fkey(rs.comm_nominal_mhz);
        rs.comm_f_hz = cop.frequency_hz * plan.speed_factor(r);
        const auto [it, inserted] =
            slot_of_fkey.emplace(rs.comm_fkey, slots_in_use);
        if (inserted) {
          slot_fkey[slots_in_use] = rs.comm_fkey;
          ++slots_in_use;
        }
        rs.comm_slot = it->second;
        resolved = true;
      }
      // Transition charged before the switch: attributed at the app
      // point, like Comm::enter_comm_phase.
      spend(idx, 0, transition_s(idx), sim::Activity::kCpu);
      cur_fhz[idx] = rs.comm_f_hz;
      cur_slot[idx] = rs.comm_slot;
      switched[idx] = 1;
      if (sim::Tracer* t = tracer_of(l))
        t->record_marker(r, now[idx], "dvfs",
                         pas::util::strf("dvfs %.0f->%.0f MHz",
                                         lane[l].app_mhz, rs.comm_raw_mhz));
    }
  };

  const auto exit_comm_phase = [&](int r) {
    RankShared& rs = rank[static_cast<std::size_t>(r)];
    if (!rs.in_phase) return;
    rs.in_phase = false;
    for (std::size_t l = 0; l < F; ++l) {
      const std::size_t idx = static_cast<std::size_t>(r) * F + l;
      if (!switched[idx] || (faulty && stopped[idx])) continue;
      const double from_mhz = rs.comm_nominal_mhz;
      // Switch back first, then charge: the transition is attributed at
      // the app point, like Comm::exit_comm_phase.
      cur_fhz[idx] = app_fhz[idx];
      cur_slot[idx] = 0;
      switched[idx] = 0;
      spend(idx, 0, transition_s(idx), sim::Activity::kCpu);
      if (sim::Tracer* t = tracer_of(l))
        t->record_marker(r, now[idx], "dvfs",
                         pas::util::strf("dvfs %.0f->%.0f MHz", from_mhz,
                                         lane[l].app_mhz));
    }
  };

  // Executes the op at rs.next for every lane; returns false when it is
  // a receive blocked on an empty channel (at every frequency alike).
  const auto step = [&](int r, RankShared& rs) -> bool {
    const sim::WorkOp& op = ledger.rank_ops(r)[rs.next];
    const std::size_t base = static_cast<std::size_t>(r) * F;
    switch (op.kind) {
      case sim::WorkOp::Kind::kCompute: {
        exit_comm_phase(r);
        // The ON-chip cycle count is frequency-invariant: priced once,
        // divided per lane (the same division time_split performs).
        const double cycles = cpu.on_chip_cycles(op.mix);
        for (std::size_t l = 0; l < F; ++l) {
          const std::size_t idx = base + l;
          if (faulty && stopped[idx]) continue;
          const double t0 = now[idx];
          const sim::CpuModel::TimeSplit split = sim::CpuModel::split_at(
              cycles, op.mix.mem_ops, app_fhz[idx], app_spm[idx]);
          spend(idx, 0, split.on_chip_s, sim::Activity::kCpu);
          spend(idx, 0, split.off_chip_s, sim::Activity::kMemory);
          if (faulty) {
            check_alive(r, l, idx);
            if (stopped[idx]) continue;
          }
          if (sim::Tracer* t = tracer_of(l)) {
            t->record(r, t0, split.on_chip_s, sim::Activity::kCpu, "compute");
            if (split.off_chip_s > 0.0)
              t->record(r, t0 + split.on_chip_s, split.off_chip_s,
                        sim::Activity::kMemory, "compute mem");
          }
        }
        rs.executed += op.mix;
        break;
      }
      case sim::WorkOp::Kind::kRawSeconds: {
        exit_comm_phase(r);
        for (std::size_t l = 0; l < F; ++l) {
          const std::size_t idx = base + l;
          if (faulty && stopped[idx]) continue;
          spend(idx, 0, op.seconds, op.activity);
          if (faulty) check_alive(r, l, idx);
        }
        break;
      }
      case sim::WorkOp::Kind::kCommDvfs: {
        if (op.mhz == 0.0) exit_comm_phase(r);
        rs.comm_raw_mhz = op.mhz;
        break;
      }
      case sim::WorkOp::Kind::kSend: {
        if (op.peer < 0 || op.peer >= n)
          throw std::logic_error(pas::util::strf(
              "BatchRepricer: rank %d sends to out-of-range peer %d", r,
              op.peer));
        // Trace start precedes the phase transition, like Comm's send
        // span — capture per lane before entering.
        std::vector<double> t0s;
        if (!tracers.empty()) {
          t0s.resize(F);
          for (std::size_t l = 0; l < F; ++l) t0s[l] = now[base + l];
        }
        enter_comm_phase(r);
        // Wire serialization and the CPU-overhead numerator are
        // frequency-invariant: once per op, not once per lane.
        const double ser = net.serialization_s(op.bytes);
        const double o_num =
            net.per_message_cpu_cycles +
            net.cpu_cycles_per_byte * static_cast<double>(op.bytes);
        const std::size_t msg_id = flight_bytes.size();
        flight_bytes.push_back(op.bytes);
        flight_rx_ser.push_back(op.peer == r ? 0.0 : ser);
        flight_at_switch.resize((msg_id + 1) * F, kLost);
        if (!op.blocking)
          rs.nb_tx_end.resize(rs.nb_tx_end.size() + F);
        const std::size_t nb_base = rs.nb_tx_end.size() - F;
        for (std::size_t l = 0; l < F; ++l) {
          const std::size_t idx = base + l;
          if (faulty && stopped[idx]) continue;
          // Comm::post's attempt loop: every attempt re-pays the CPU
          // overhead and the wire; a dropped one backs off and retries
          // until the attempt budget runs out.
          sim::NetworkTransfer t;
          for (int tries = 1;; ++tries) {
            const double o_send = o_num / cur_fhz[idx];
            spend(idx, cur_slot[idx], o_send, sim::Activity::kNetwork);
            t = sim::book_transfer(net, r, op.peer, ser, now[idx],
                                   tx_busy[idx]);
            if (op.blocking)
              spend_until(idx, cur_slot[idx], t.tx_end,
                          sim::Activity::kNetwork);
            if (!faulty) break;
            fault::RankFaults& f = faults[idx];
            if (!f.message_faults() || !f.draw_drop()) break;
            ++lane_faults[l].drops;
            if (sim::Tracer* tr = tracer_of(l))
              tr->record_marker(r, now[idx], "fault",
                                fault::drop_label(op.peer, op.tag, tries));
            if (tries >= f.max_send_attempts()) {
              stop(r, l, RunStatus::kMessageLoss,
                   fault::MessageLossError(r, op.peer, op.tag, tries).what());
              break;
            }
            ++retried[idx];
            spend(idx, cur_slot[idx], f.backoff_s(tries - 1),
                  sim::Activity::kNetwork);
          }
          double injected_delay = 0.0;
          if (faulty) {
            if (!stopped[idx]) check_alive(r, l, idx);
            if (stopped[idx]) continue;  // never posted: stays kLost
            injected_delay = faults[idx].draw_delay();
            if (injected_delay > 0.0) {
              ++lane_faults[l].delays;
              if (sim::Tracer* tr = tracer_of(l))
                tr->record_marker(
                    r, now[idx], "fault",
                    fault::delay_label(op.peer, op.tag, injected_delay));
            }
          }
          if (!op.blocking) rs.nb_tx_end[nb_base + l] = t.tx_end;
          flight_at_switch[msg_id * F + l] = t.at_switch + injected_delay;
          if (sim::Tracer* tr = tracer_of(l))
            tr->record(r, t0s[l], now[idx] - t0s[l], sim::Activity::kNetwork,
                       pas::util::strf("send->%d tag %d (%zuB)", op.peer,
                                       op.tag, op.bytes));
        }
        channels[channel_key(r, op.peer, op.tag)].push_back(
            static_cast<std::uint32_t>(msg_id));
        ++rs.stats.messages_sent;
        rs.stats.bytes_sent += op.bytes;
        break;
      }
      case sim::WorkOp::Kind::kSendWait: {
        const std::size_t n_isends = rs.nb_tx_end.size() / F;
        if (op.ordinal < 0 || static_cast<std::size_t>(op.ordinal) >= n_isends)
          throw std::logic_error(pas::util::strf(
              "BatchRepricer: rank %d waits on unknown isend ordinal %d", r,
              op.ordinal));
        const std::size_t nb_base =
            static_cast<std::size_t>(op.ordinal) * F;
        for (std::size_t l = 0; l < F; ++l) {
          const std::size_t idx = base + l;
          if (faulty && stopped[idx]) continue;
          spend_until(idx, cur_slot[idx], rs.nb_tx_end[nb_base + l],
                      sim::Activity::kNetwork);
        }
        break;
      }
      case sim::WorkOp::Kind::kRecv: {
        auto it = channels.find(channel_key(op.peer, r, op.tag));
        if (it == channels.end() || it->second.empty()) return false;
        const std::size_t msg_id = it->second.front();
        it->second.pop_front();
        // A lane whose sender stopped before posting the message blocks
        // in the mailbox, before any completion work.
        if (faulty)
          for (std::size_t l = 0; l < F; ++l)
            if (flight_at_switch[msg_id * F + l] == kLost)
              stopped[base + l] = 1;
        enter_comm_phase(r);
        const std::size_t msg_bytes = flight_bytes[msg_id];
        const double rx_ser = flight_rx_ser[msg_id];
        const double o_num =
            net.per_message_cpu_cycles +
            net.cpu_cycles_per_byte * static_cast<double>(msg_bytes);
        const bool contend = net.model_port_contention && op.peer != r;
        for (std::size_t l = 0; l < F; ++l) {
          const std::size_t idx = base + l;
          if (faulty && stopped[idx]) continue;
          const double at_sw = flight_at_switch[msg_id * F + l];
          double arrival = at_sw + rx_ser;
          if (contend) {
            const double rx_begin = std::max(at_sw, rx_busy[idx]);
            arrival = rx_begin + rx_ser;
            rx_busy[idx] = arrival;
          }
          const double trace_t0 = now[idx];
          spend_until(idx, cur_slot[idx], arrival, sim::Activity::kNetwork);
          const double o_recv = o_num / cur_fhz[idx];
          spend(idx, cur_slot[idx], o_recv, sim::Activity::kNetwork);
          if (sim::Tracer* tr = tracer_of(l))
            tr->record(r, trace_t0, now[idx] - trace_t0,
                       sim::Activity::kNetwork,
                       pas::util::strf("recv<-%d tag %d (%zuB)", op.peer,
                                       op.tag, msg_bytes));
          if (faulty) check_alive(r, l, idx);
        }
        ++rs.stats.messages_received;
        rs.stats.bytes_received += msg_bytes;
        break;
      }
    }
    ++rs.next;
    return true;
  };

  // Round-robin: advance each rank until it blocks; a full pass with no
  // progress while work remains means the op streams are inconsistent.
  // Blocking is frequency-invariant, so one schedule serves every lane.
  bool all_done = false;
  while (!all_done) {
    bool progress = false;
    all_done = true;
    for (int r = 0; r < n; ++r) {
      RankShared& rs = rank[static_cast<std::size_t>(r)];
      const std::size_t count = ledger.rank_size(r);
      while (rs.next < count && step(r, rs)) progress = true;
      if (rs.next < count) all_done = false;
    }
    if (!all_done && !progress) {
      for (int r = 0; r < n; ++r) {
        const RankShared& rs = rank[static_cast<std::size_t>(r)];
        if (rs.next >= ledger.rank_size(r)) continue;
        const sim::WorkOp& op = ledger.rank_ops(r)[rs.next];
        throw std::logic_error(pas::util::strf(
            "BatchRepricer: replay stalled — rank %d blocked on recv<-%d "
            "tag %d with no matching send in the ledger",
            r, op.peer, op.tag));
      }
    }
  }
  for (const auto& [key, queue] : channels) {
    (void)key;
    if (!queue.empty())
      throw std::logic_error(
          "BatchRepricer: ledger left undelivered messages after replay");
  }

  // Record assembly: mirrors RunMatrix::run_one field by field and in
  // the same summation order (Runtime::run reports ranks in rank order),
  // per lane.
  std::vector<RunRecord> records(F);
  const double nranks = static_cast<double>(n);
  for (std::size_t l = 0; l < F; ++l) {
    RunRecord& rec = records[l];
    rec.nodes = n;
    rec.frequency_mhz = lane[l].in_mhz;
    if (faulty && lane_faults[l].status != RunStatus::kOk) {
      // The lane's first attempt aborts: handed back unpriced, like the
      // failure record of a run that used up its attempts.
      rec.status = lane_faults[l].status;
      rec.error = std::move(lane_faults[l].error);
      continue;
    }
    for (int r = 0; r < n; ++r)
      rec.seconds = std::max(rec.seconds, now[static_cast<std::size_t>(r) * F + l]);
    rec.verified = ledger.verified;
    double total_network = 0.0;
    double total_cpu = 0.0;
    double total_memory = 0.0;
    for (int r = 0; r < n; ++r) {
      const std::size_t idx = static_cast<std::size_t>(r) * F + l;
      total_cpu += tot[idx * kActs + static_cast<std::size_t>(sim::Activity::kCpu)];
      total_memory +=
          tot[idx * kActs + static_cast<std::size_t>(sim::Activity::kMemory)];
      total_network +=
          tot[idx * kActs + static_cast<std::size_t>(sim::Activity::kNetwork)];
    }
    rec.mean_overhead_s = total_network / nranks;
    rec.mean_cpu_s = total_cpu / nranks;
    rec.mean_memory_s = total_memory / nranks;

    for (int r = 0; r < n; ++r) {
      const std::size_t idx = static_cast<std::size_t>(r) * F + l;
      // The simulator's activity_by_fkey map iterates fkey-ascending;
      // gather the used slots and emit them in the same order.
      struct SlotRef {
        long fkey;
        std::size_t slot;
      };
      SlotRef used[8];
      std::size_t n_used = 0;
      for (std::size_t s = 0; s < S && n_used < 8; ++s) {
        if (!slot_used[idx * S + s]) continue;
        used[n_used++] = SlotRef{s == 0 ? lane[l].fkey_app : slot_fkey[s], s};
      }
      std::sort(used, used + n_used,
                [](const SlotRef& a, const SlotRef& b) { return a.fkey < b.fkey; });
      std::vector<power::FrequencySlice> slices;
      slices.reserve(n_used);
      for (std::size_t u = 0; u < n_used; ++u) {
        const double* acts = &slot_act[(idx * S + used[u].slot) * kActs];
        power::FrequencySlice slice;
        slice.frequency_mhz = static_cast<double>(used[u].fkey) / 10.0;
        slice.activity.cpu_s = acts[static_cast<std::size_t>(sim::Activity::kCpu)];
        slice.activity.memory_s =
            acts[static_cast<std::size_t>(sim::Activity::kMemory)];
        slice.activity.network_s =
            acts[static_cast<std::size_t>(sim::Activity::kNetwork)];
        slice.activity.idle_s =
            acts[static_cast<std::size_t>(sim::Activity::kIdle)];
        slices.push_back(slice);
      }
      rec.energy += meter_.measure_node_slices(
          slices, cluster_.operating_points, rec.seconds, rec.frequency_mhz);
    }

    double messages = 0.0;
    double doubles = 0.0;
    for (int r = 0; r < n; ++r) {
      const mpi::CommStats& stats = rank[static_cast<std::size_t>(r)].stats;
      messages += static_cast<double>(stats.messages_sent);
      doubles += stats.avg_doubles_per_message();
      if (faulty)
        rec.send_retries +=
            static_cast<double>(retried[static_cast<std::size_t>(r) * F + l]);
    }
    rec.messages_per_rank = messages / nranks;
    rec.doubles_per_message = doubles / nranks;

    for (int r = 0; r < n; ++r)
      rec.executed_per_rank += rank[static_cast<std::size_t>(r)].executed;
    rec.executed_per_rank = rec.executed_per_rank * (1.0 / nranks);

    if (sim::Tracer* t = tracer_of(l)) {
      for (int r = 0; r < n; ++r)
        t->record_span(r, 0.0, now[static_cast<std::size_t>(r) * F + l],
                       "rank",
                       pas::util::strf("rank %zu", static_cast<std::size_t>(r)));
    }
    // The simulator ticks these per injected fault; a priced lane
    // stands for one simulation, so it ticks them for its own faults.
    if (faulty && lane_faults[l].drops > 0) {
      static obs::Counter& c = obs::registry().counter("fault.message_drops");
      c.add(lane_faults[l].drops);
    }
    if (faulty && lane_faults[l].delays > 0) {
      static obs::Counter& c = obs::registry().counter("fault.message_delays");
      c.add(lane_faults[l].delays);
    }
  }
  return records;
}

}  // namespace pas::analysis
