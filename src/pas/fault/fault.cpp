#include "pas/fault/fault.hpp"

#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"

namespace pas::fault {
namespace {

// Fixed odd multipliers decorrelate the per-node and per-rank streams
// derived from one master seed.
constexpr std::uint64_t kNodeStream = 0xa24baed4963ee407ULL;
constexpr std::uint64_t kRankStream = 0x9fb21c651e98df25ULL;

std::string d17(double x) { return pas::util::strf("%.17g", x); }

}  // namespace

std::string drop_label(int dst, int tag, int tries) {
  return pas::util::strf("drop->%d tag %d (try %d)", dst, tag, tries);
}

std::string delay_label(int dst, int tag, double delay_s) {
  return pas::util::strf("delay->%d tag %d (+%.3gus)", dst, tag,
                         delay_s * 1e6);
}

NodeFailedError::NodeFailedError(int node, double fail_time_s)
    : FaultError(pas::util::strf("node %d failed at t=%.6gs", node,
                                 fail_time_s)),
      node_(node),
      fail_time_s_(fail_time_s) {}

MessageLossError::MessageLossError(int src, int dst, int tag, int attempts)
    : FaultError(pas::util::strf(
          "message %d->%d (tag %d) lost after %d send attempt%s", src, dst,
          tag, attempts, attempts == 1 ? "" : "s")) {}

bool FaultConfig::enabled() const {
  return straggler_fraction > 0.0 || dvfs_jitter_s > 0.0 ||
         message_delay_prob > 0.0 || message_drop_prob > 0.0 ||
         node_failure_prob > 0.0;
}

std::string FaultConfig::signature() const {
  return pas::util::strf(
      "seed=%llu;strag=%s,%s;jit=%s;delay=%s,%s;drop=%s,%d,%s;fail=%s,%s",
      static_cast<unsigned long long>(seed), d17(straggler_fraction).c_str(),
      d17(straggler_slowdown).c_str(), d17(dvfs_jitter_s).c_str(),
      d17(message_delay_prob).c_str(), d17(message_delay_s).c_str(),
      d17(message_drop_prob).c_str(), max_send_attempts,
      d17(retry_backoff_s).c_str(), d17(node_failure_prob).c_str(),
      d17(node_failure_window_s).c_str());
}

FaultConfig FaultConfig::scaled(double rate, std::uint64_t seed) {
  if (rate < 0.0 || rate > 1.0)
    throw std::invalid_argument(
        pas::util::strf("fault rate %g out of [0, 1]", rate));
  FaultConfig f;
  f.seed = seed;
  f.straggler_fraction = rate;
  f.dvfs_jitter_s = rate * 100e-6;
  f.message_delay_prob = rate;
  f.message_drop_prob = rate * 0.5;
  f.node_failure_prob = rate * 0.25;
  return f;
}

FaultConfig FaultConfig::from_cli(const util::Cli& cli) {
  const double rate = cli.get_double("faults", 0.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  if (rate == 0.0) return FaultConfig{};
  return scaled(rate, seed);
}

RankFaults::RankFaults(const FaultConfig& cfg, std::uint64_t stream_seed,
                       int rank, double fail_time_s)
    : cfg_(cfg),
      active_(true),
      rank_(rank),
      fail_time_s_(fail_time_s),
      rng_(stream_seed) {}

void RankFaults::check_alive(double now) const {
  if (!alive_at(now)) throw NodeFailedError(rank_, fail_time_s_);
}

bool RankFaults::draw_drop() {
  if (!active_ || cfg_.message_drop_prob <= 0.0) return false;
  return rng_.next_double() < cfg_.message_drop_prob;
}

double RankFaults::draw_delay() {
  if (!active_ || cfg_.message_delay_prob <= 0.0) return 0.0;
  if (rng_.next_double() >= cfg_.message_delay_prob) return 0.0;
  // Delayed: uniform in [0.5, 1.5) of the mean — a second draw, made
  // only on the delayed path, so the stream stays in program order.
  return cfg_.message_delay_s * (0.5 + rng_.next_double());
}

double RankFaults::draw_dvfs_jitter() {
  if (!active_ || cfg_.dvfs_jitter_s <= 0.0) return 0.0;
  return cfg_.dvfs_jitter_s * rng_.next_double();
}

double backoff_s(double base_s, int retry) {
  if (retry < 0) retry = 0;
  if (retry > 62) retry = 62;
  return base_s * static_cast<double>(1ULL << retry);
}

double RankFaults::backoff_s(int retry) const {
  return fault::backoff_s(cfg_.retry_backoff_s, retry);
}

FaultPlan::FaultPlan(const FaultConfig& cfg, int nranks, int attempt)
    : cfg_(cfg), active_(cfg.enabled()), attempt_(attempt) {
  if (!active_) return;
  // Attempt-salted master: a retry replays a fresh schedule, but the
  // same (seed, nranks, attempt) always expands identically.
  util::SplitMix64 sm(cfg_.seed +
                      0x9e3779b97f4a7c15ULL *
                          static_cast<std::uint64_t>(attempt + 1));
  salt_ = sm.next();
  speed_.resize(static_cast<std::size_t>(nranks), 1.0);
  fail_at_.resize(static_cast<std::size_t>(nranks),
                  std::numeric_limits<double>::infinity());
  for (int n = 0; n < nranks; ++n) {
    util::Xoshiro256 rng(salt_ ^
                         (kNodeStream * static_cast<std::uint64_t>(n + 1)));
    if (rng.next_double() < cfg_.straggler_fraction)
      speed_[static_cast<std::size_t>(n)] = 1.0 - cfg_.straggler_slowdown;
    if (cfg_.node_failure_prob > 0.0 &&
        rng.next_double() < cfg_.node_failure_prob)
      fail_at_[static_cast<std::size_t>(n)] =
          rng.next_double() * cfg_.node_failure_window_s;
  }
}

double FaultPlan::speed_factor(int node) const {
  if (!active_) return 1.0;
  return speed_.at(static_cast<std::size_t>(node));
}

double FaultPlan::fail_time_s(int node) const {
  if (!active_) return std::numeric_limits<double>::infinity();
  return fail_at_.at(static_cast<std::size_t>(node));
}

RankFaults FaultPlan::rank_faults(int rank) const {
  if (!active_) return RankFaults{};
  return RankFaults(
      cfg_, salt_ ^ (kRankStream * static_cast<std::uint64_t>(rank + 1)), rank,
      fail_time_s(rank));
}

}  // namespace pas::fault
