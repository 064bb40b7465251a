#include "pas/mpi/communicator.hpp"

#include <stdexcept>
#include <utility>

#include "pas/mpi/runtime.hpp"
#include "pas/mpi/watchdog.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/util/format.hpp"

namespace pas::mpi {

Comm::Comm(Runtime& runtime, int rank, int size, fault::RankFaults faults)
    : runtime_(runtime), rank_(rank), size_(size), faults_(std::move(faults)) {}

double Comm::now() const { return runtime_.cluster().node(rank_).clock.now(); }

sim::VirtualClock& Comm::clock() { return runtime_.cluster().node(rank_).clock; }

sim::CpuModel& Comm::cpu() { return runtime_.cluster().node(rank_).cpu; }

sim::NodeState& Comm::node() { return runtime_.cluster().node(rank_); }

void Comm::compute(const sim::InstructionMix& mix) {
  exit_comm_phase();
  sim::NodeState& n = node();
  const double t0 = n.clock.now();
  const sim::CpuModel::TimeSplit split = n.cpu.time_split(mix);
  n.spend(split.on_chip_s, sim::Activity::kCpu);
  n.spend(split.off_chip_s, sim::Activity::kMemory);
  n.executed += mix;
  faults_.check_alive(n.clock.now());
  sim::Tracer& tracer = runtime_.tracer();
  if (tracer.enabled()) {
    // The ON/OFF-chip split is the paper's central quantity: trace the
    // two parts as separate activities so the power timeline bills the
    // memory-stall time at memory power, not CPU power.
    tracer.record(rank_, t0, split.on_chip_s, sim::Activity::kCpu, "compute");
    if (split.off_chip_s > 0.0)
      tracer.record(rank_, t0 + split.on_chip_s, split.off_chip_s,
                    sim::Activity::kMemory, "compute mem");
  }
  sim::WorkLedgerRecorder& ledger = runtime_.ledger_recorder();
  if (ledger.enabled()) ledger.record(rank_, sim::WorkOp::compute(mix));
}

void Comm::compute_seconds(double s, sim::Activity act) {
  exit_comm_phase();
  node().spend(s, act);
  faults_.check_alive(node().clock.now());
  sim::WorkLedgerRecorder& ledger = runtime_.ledger_recorder();
  if (ledger.enabled()) ledger.record(rank_, sim::WorkOp::raw_seconds(s, act));
}

void Comm::set_comm_dvfs_mhz(double mhz) {
  if (mhz != 0.0 && !cpu().operating_points().has_mhz(mhz))
    throw std::out_of_range(
        pas::util::strf("no operating point at %.1f MHz", mhz));
  if (mhz == 0.0) exit_comm_phase();
  comm_dvfs_mhz_ = mhz;
  sim::WorkLedgerRecorder& ledger = runtime_.ledger_recorder();
  if (ledger.enabled()) ledger.record(rank_, sim::WorkOp::comm_dvfs(mhz));
}

void Comm::enter_comm_phase() {
  if (comm_dvfs_mhz_ <= 0.0 || in_comm_phase_) return;
  sim::NodeState& n = node();
  app_mhz_ = n.cpu.current().frequency_mhz();
  in_comm_phase_ = true;
  if (sim::NodeState::fkey(app_mhz_) == sim::NodeState::fkey(comm_dvfs_mhz_))
    return;  // already at the comm point: nothing to switch
  n.spend(runtime_.config().dvfs_transition_s + faults_.draw_dvfs_jitter(),
          sim::Activity::kCpu);
  n.cpu.set_frequency_mhz(comm_dvfs_mhz_);
  sim::Tracer& tracer = runtime_.tracer();
  if (tracer.enabled())
    tracer.record_marker(rank_, n.clock.now(), "dvfs",
                         pas::util::strf("dvfs %.0f->%.0f MHz", app_mhz_,
                                         comm_dvfs_mhz_));
}

void Comm::exit_comm_phase() {
  if (!in_comm_phase_) return;
  in_comm_phase_ = false;
  sim::NodeState& n = node();
  if (sim::NodeState::fkey(n.cpu.current().frequency_mhz()) ==
      sim::NodeState::fkey(app_mhz_))
    return;
  const double from_mhz = n.cpu.current().frequency_mhz();
  n.cpu.set_frequency_mhz(app_mhz_);
  n.spend(runtime_.config().dvfs_transition_s + faults_.draw_dvfs_jitter(),
          sim::Activity::kCpu);
  sim::Tracer& tracer = runtime_.tracer();
  if (tracer.enabled())
    tracer.record_marker(rank_, n.clock.now(), "dvfs",
                         pas::util::strf("dvfs %.0f->%.0f MHz", from_mhz,
                                         app_mhz_));
}

double Comm::post(int dst, int tag, std::size_t payload_bytes, Payload data,
                  bool blocking) {
  if (dst < 0 || dst >= size_)
    throw std::out_of_range(pas::util::strf("send to bad rank %d", dst));
  sim::NodeState& n = node();
  const std::size_t wire_bytes = payload_bytes + kHeaderBytes;
  const double trace_t0 = n.clock.now();

  // Communication region: a per-phase DVFS schedule drops the clock here.
  enter_comm_phase();

  sim::NetworkFabric::Transfer t;
  for (int tries = 1;; ++tries) {
    // Sender-side CPU cost (stack + copy), paced by this node's DVFS
    // frequency — the mechanism that makes large-message overhead
    // mildly frequency-sensitive (Table 6).
    const double o_send = runtime_.cluster().fabric().config().cpu_overhead_s(
        wire_bytes, n.cpu.frequency_hz());
    n.spend(o_send, sim::Activity::kNetwork);

    t = runtime_.cluster().fabric().transfer(rank_, dst, wire_bytes,
                                             n.clock.now());

    // Blocking-send semantics (MPICH over TCP on Fast Ethernet): the
    // sender stays in the stack while its NIC serializes the message, so
    // it pays the wire time inline. This is what makes "number of
    // messages x per-message time" (the paper's w_PO model, §5.2 step 2)
    // an accurate account of communication cost. Nonblocking sends skip
    // the inline wait and settle up in wait().
    if (blocking) n.spend_until(t.tx_end, sim::Activity::kNetwork);

    if (!faults_.message_faults() || !faults_.draw_drop()) break;
    static obs::Counter& drops =
        obs::registry().counter("fault.message_drops");
    drops.add();
    if (runtime_.tracer().enabled())
      runtime_.tracer().record_marker(rank_, n.clock.now(), "fault",
                                      fault::drop_label(dst, tag, tries));
    // Injected loss: the transport retries with exponential backoff,
    // re-paying the CPU overhead and wire time each attempt — the
    // energy cost of unreliability that resilience_sweep measures.
    if (tries >= faults_.max_send_attempts())
      throw fault::MessageLossError(rank_, dst, tag, tries);
    ++stats_.sends_retried;
    n.spend(faults_.backoff_s(tries - 1), sim::Activity::kNetwork);
  }
  faults_.check_alive(n.clock.now());

  const double injected_delay = faults_.draw_delay();
  if (injected_delay > 0.0) {
    static obs::Counter& delays =
        obs::registry().counter("fault.message_delays");
    delays.add();
    if (runtime_.tracer().enabled())
      runtime_.tracer().record_marker(
          rank_, n.clock.now(), "fault",
          fault::delay_label(dst, tag, injected_delay));
  }

  Message msg;
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  msg.bytes = wire_bytes;
  msg.at_switch = t.at_switch + injected_delay;
  msg.rx_ser_s = t.rx_ser_s;
  msg.data = std::move(data);

  ++stats_.messages_sent;
  stats_.bytes_sent += wire_bytes;

  runtime_.monitor().on_deliver(dst, rank_, tag);
  runtime_.mailbox(dst).deliver(std::move(msg));

  sim::Tracer& tracer = runtime_.tracer();
  if (tracer.enabled())
    tracer.record(rank_, trace_t0, n.clock.now() - trace_t0,
                  sim::Activity::kNetwork,
                  pas::util::strf("send->%d tag %d (%zuB)", dst, tag,
                                  wire_bytes));
  sim::WorkLedgerRecorder& ledger = runtime_.ledger_recorder();
  if (ledger.enabled())
    ledger.record(rank_, sim::WorkOp::send(dst, tag, wire_bytes, blocking));
  return t.tx_end;
}

void Comm::send(int dst, int tag, Payload data) {
  const std::size_t payload_bytes = data.size() * sizeof(double);
  post(dst, tag, payload_bytes, std::move(data));
}

Comm::Request Comm::isend(int dst, int tag, Payload data) {
  const std::size_t payload_bytes = data.size() * sizeof(double);
  Request req;
  req.kind_ = Request::Kind::kSend;
  req.peer_ = dst;
  req.tag_ = tag;
  req.ledger_ordinal_ = isend_seq_++;
  req.tx_end_ =
      post(dst, tag, payload_bytes, std::move(data), /*blocking=*/false);
  return req;
}

Comm::Request Comm::irecv(int src, int tag) {
  if (src < 0 || src >= size_)
    throw std::out_of_range(pas::util::strf("irecv from bad rank %d", src));
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.peer_ = src;
  req.tag_ = tag;
  return req;
}

Payload Comm::wait(Request& request) {
  switch (request.kind_) {
    case Request::Kind::kNone:
      throw std::logic_error("wait() on an invalid request");
    case Request::Kind::kSend: {
      // The link may still be draining the message; the sender's clock
      // only advances if it got ahead of its own NIC.
      node().spend_until(request.tx_end_, sim::Activity::kNetwork);
      sim::WorkLedgerRecorder& ledger = runtime_.ledger_recorder();
      if (ledger.enabled())
        ledger.record(rank_, sim::WorkOp::send_wait(request.ledger_ordinal_));
      request.kind_ = Request::Kind::kNone;
      return {};
    }
    case Request::Kind::kRecv: {
      Payload data = recv(request.peer_, request.tag_);
      request.kind_ = Request::Kind::kNone;
      return data;
    }
  }
  return {};
}

void Comm::waitall(std::vector<Request>& requests) {
  for (Request& r : requests) {
    if (r.valid()) (void)wait(r);
  }
}

void Comm::send_bytes(int dst, int tag, std::size_t bytes) {
  post(dst, tag, bytes, Payload{});
}

void Comm::complete_recv(const Message& msg) {
  sim::NodeState& n = node();
  // Communication region: a per-phase DVFS schedule drops the clock here.
  enter_comm_phase();
  // Book our receiver port in match order (deterministic: only this
  // thread touches rx_busy_), wait until the last byte is in, then pay
  // the receiver-side CPU overhead.
  const sim::NetworkConfig& net = runtime_.cluster().fabric().config();
  double arrival = msg.at_switch + msg.rx_ser_s;
  if (net.model_port_contention && msg.src != rank_) {
    const double rx_begin = std::max(msg.at_switch, rx_busy_);
    arrival = rx_begin + msg.rx_ser_s;
    rx_busy_ = arrival;
  }
  const double trace_t0 = n.clock.now();
  n.spend_until(arrival, sim::Activity::kNetwork);
  const double o_recv = net.cpu_overhead_s(msg.bytes, n.cpu.frequency_hz());
  n.spend(o_recv, sim::Activity::kNetwork);
  ++stats_.messages_received;
  stats_.bytes_received += msg.bytes;

  sim::Tracer& tracer = runtime_.tracer();
  if (tracer.enabled())
    tracer.record(rank_, trace_t0, n.clock.now() - trace_t0,
                  sim::Activity::kNetwork,
                  pas::util::strf("recv<-%d tag %d (%zuB)", msg.src, msg.tag,
                                  msg.bytes));
}

Message Comm::matched_recv(int src, int tag, double timeout_s) {
  if (src < 0 || src >= size_)
    throw std::out_of_range(pas::util::strf("recv from bad rank %d", src));
  const double t0 = now();
  Message msg =
      runtime_.mailbox(rank_).receive(src, tag, runtime_.monitor(), rank_);
  complete_recv(msg);
  const double waited = now() - t0;
  if (timeout_s > 0.0 && waited > timeout_s)
    throw TimeoutError(pas::util::strf(
        "rank %d: recv<-%d (tag %d) completed after %.6gs of virtual time "
        "(timeout %.6gs)",
        rank_, src, tag, waited, timeout_s));
  faults_.check_alive(now());
  sim::WorkLedgerRecorder& ledger = runtime_.ledger_recorder();
  if (ledger.enabled()) {
    // A virtual-time timeout is the one Comm feature whose *outcome*
    // depends on the operating point: a recv that fits the budget at
    // the recorded frequency may exceed it at a slower one.
    if (timeout_s > 0.0)
      ledger.decline(rank_, pas::util::strf(
                                "rank %d uses a virtual-time recv timeout",
                                rank_));
    ledger.record(rank_, sim::WorkOp::recv(src, tag));
  }
  return msg;
}

Payload Comm::recv(int src, int tag, double timeout_s) {
  Message msg = matched_recv(src, tag, timeout_s);
  return std::move(msg.data);
}

std::size_t Comm::recv_bytes(int src, int tag, double timeout_s) {
  Message msg = matched_recv(src, tag, timeout_s);
  return msg.bytes;
}

Payload Comm::sendrecv(int dst, int src, int tag, Payload data) {
  send(dst, tag, std::move(data));
  return recv(src, tag);
}

int Comm::next_collective_tag() {
  // Collectives are called in the same order on every rank, so the
  // per-rank sequence numbers advance in lockstep and act as a shared
  // phase id. Each phase owns a block of 1024 tags for its internal
  // rounds; the modulus keeps tags within the reserved range while
  // leaving 8192 in-flight phases distinguishable.
  const int tag = kCollectiveTagBase + (collective_seq_ % (1 << 13)) * (1 << 10);
  ++collective_seq_;
  ++stats_.collective_calls;
  return tag;
}

std::string Comm::describe() const {
  return pas::util::strf(
      "rank %d/%d: sent %llu msgs (%llu B), recv %llu msgs, %llu collectives",
      rank_, size_, static_cast<unsigned long long>(stats_.messages_sent),
      static_cast<unsigned long long>(stats_.bytes_sent),
      static_cast<unsigned long long>(stats_.messages_received),
      static_cast<unsigned long long>(stats_.collective_calls));
}

void Comm::sample_boundary(sim::SampleProbe& probe, int iter) const {
  const sim::NodeState& node = runtime_.cluster().node(rank_);
  sim::RankSample s;
  s.iter = iter;
  s.now = node.clock.now();
  s.by_activity = node.clock.by_activity();
  s.executed = node.executed;
  s.activity_by_fkey = node.activity_by_fkey;
  s.messages_sent = stats_.messages_sent;
  s.bytes_sent = stats_.bytes_sent;
  s.messages_received = stats_.messages_received;
  s.bytes_received = stats_.bytes_received;
  s.collective_calls = stats_.collective_calls;
  s.sends_retried = stats_.sends_retried;
  probe.record(rank_, std::move(s));
}

}  // namespace pas::mpi
