#include "pas/npb/ep.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "pas/npb/npb_rng.hpp"
#include "pas/util/format.hpp"

namespace pas::npb {
namespace {

/// Per-trial instruction budget (two LCG steps, the acceptance test and
/// — for accepted pairs — two log/sqrt transforms), expressed as
/// register-only work plus a handful of L1 buffer references.
constexpr double kRegOpsPerTrial = 38.0;
constexpr double kDataRefsPerTrial = 6.0;

struct Accumulator {
  double sx = 0.0;
  double sy = 0.0;
  double q[10] = {};
  double accepted = 0.0;
};

/// Processes trials [first, first+count) of the global stream.
void run_slice(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
               Accumulator& acc) {
  NpbRng rng = NpbRng::at(seed, 2 * first);
  for (std::uint64_t t = 0; t < count; ++t) {
    const double u1 = rng.next();
    const double u2 = rng.next();
    const double x = 2.0 * u1 - 1.0;
    const double y = 2.0 * u2 - 1.0;
    const double r2 = x * x + y * y;
    if (r2 > 1.0 || r2 == 0.0) continue;
    const double factor = std::sqrt(-2.0 * std::log(r2) / r2);
    const double gx = x * factor;
    const double gy = y * factor;
    acc.sx += gx;
    acc.sy += gy;
    acc.accepted += 1.0;
    const double mag = std::fmax(std::fabs(gx), std::fabs(gy));
    const int bin = static_cast<int>(mag);
    if (bin >= 0 && bin < 10) acc.q[bin] += 1.0;
  }
}

/// A slice's accumulator is a pure function of (seed, first, count),
/// and the identical slice recurs at every (N, f) point of a sweep
/// that keeps N fixed, so it is computed once per process and
/// recalled afterwards. Each map node carries a once_flag: the first
/// thread to miss a key computes it, and any thread that asks while
/// it does waits for that result instead of computing it again (the
/// concurrent columns of one sweep ask for the same chunks at the same
/// moment). Map nodes are stable, so returned references stay valid
/// without the lock. The caller still issues its per-batch charges:
/// virtual time is priced the same whether the trials were replayed
/// or recalled.
/// Slices above this size are composed from boundary-aligned sub-chunk
/// accumulators, so the block distributions of *different* rank counts
/// share one set of cached chunks (rank boundaries at any N ≥ 1 are
/// chunk-aligned whenever the problem is, which the paper-scale 2^24
/// grid is at every N in the sweep) — a sweep then prices the trial
/// stream once, not once per N. A composite waits only on chunks no
/// larger than this, and a chunk waits on nothing, so no wait cycle
/// can form. Gated well above the golden-test configurations
/// (2^12/2^14 pairs): small slices still accumulate left-to-right in
/// one pass, bit-identical to the original code.
constexpr std::uint64_t kChunkPairs = std::uint64_t{1} << 20;

struct CachedSlice {
  std::once_flag computed;
  Accumulator acc;
};

const Accumulator& cached_slice(std::uint64_t seed, std::uint64_t first,
                                std::uint64_t count) {
  static std::mutex mutex;
  static std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
                  CachedSlice>
      cache;
  CachedSlice* slice = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex);
    slice = &cache.try_emplace(std::make_tuple(seed, first, count))
                 .first->second;
  }
  std::call_once(slice->computed, [&] {
    Accumulator& acc = slice->acc;
    if (count <= kChunkPairs) {
      run_slice(seed, first, count, acc);
      return;
    }
    // Compose from aligned chunks, ascending. accepted and q[] are
    // integer counts far below 2^53 — exact under any association; the
    // deviate sums sx/sy reassociate, which run()'s verification
    // tolerance already bounds by the trial count (the allreduce tree
    // reassociates them anyway).
    const std::uint64_t end = first + count;
    std::uint64_t pos = first;
    while (pos < end) {
      const std::uint64_t boundary = (pos / kChunkPairs + 1) * kChunkPairs;
      const std::uint64_t n = std::min(end, boundary) - pos;
      const Accumulator& part = cached_slice(seed, pos, n);
      acc.sx += part.sx;
      acc.sy += part.sy;
      acc.accepted += part.accepted;
      for (int i = 0; i < 10; ++i) acc.q[i] += part.q[i];
      pos += n;
    }
  });
  return slice->acc;
}

}  // namespace

EpKernel::EpKernel(EpConfig cfg) : cfg_(cfg) {}

std::string EpKernel::signature() const {
  return pas::util::strf("EP(m=%d,seed=%llu,batch=%d)", cfg_.log2_pairs,
                         static_cast<unsigned long long>(cfg_.seed),
                         cfg_.batch_pairs);
}

EpKernel::Reference EpKernel::reference(const EpConfig& cfg) {
  // The sequential reference is the whole stream as one slice: the
  // slice cache computes it once per configuration, so sweeps pay it
  // once.
  const Accumulator& acc = cached_slice(cfg.seed, 0, cfg.pairs());
  Reference ref;
  ref.sx = acc.sx;
  ref.sy = acc.sy;
  ref.accepted = acc.accepted;
  for (int i = 0; i < 10; ++i) ref.q[i] = acc.q[i];
  return ref;
}

int EpKernel::iteration_count(int nranks) const {
  const std::uint64_t total = cfg_.pairs();
  const auto n = static_cast<std::uint64_t>(nranks);
  // Rank 0 always holds a remainder trial when one exists, so its
  // slice — ceil(total / nranks) — is the widest.
  const std::uint64_t widest = total / n + (total % n != 0 ? 1 : 0);
  const auto batch = static_cast<std::uint64_t>(cfg_.batch_pairs);
  return static_cast<int>((widest + batch - 1) / batch);
}

KernelResult EpKernel::run(mpi::Comm& comm) const {
  return run_ctl(comm, IterationCtl{});
}

KernelResult EpKernel::run_ctl(mpi::Comm& comm,
                               const IterationCtl& ctl) const {
  const std::uint64_t total = cfg_.pairs();
  const auto nranks = static_cast<std::uint64_t>(comm.size());
  const auto rank = static_cast<std::uint64_t>(comm.rank());
  // Block distribution; the remainder goes to the low ranks.
  const std::uint64_t base = total / nranks;
  const std::uint64_t extra = total % nranks;
  const std::uint64_t mine = base + (rank < extra ? 1 : 0);
  const std::uint64_t first = rank * base + std::min<std::uint64_t>(rank, extra);

  const auto batch = static_cast<std::uint64_t>(cfg_.batch_pairs);
  const int total_batches = iteration_count(comm.size());
  if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, 0);
  // Scratch stays within a couple of KB: L1-resident, high reuse.
  const sim::AccessPattern pattern{
      .working_set_bytes = static_cast<std::size_t>(cfg_.batch_pairs) * 16,
      .stride_bytes = 8,
      .temporal_reuse = 3.0};
  for (int it = 1; it <= total_batches; ++it) {
    if (!ctl.detailed(it)) continue;
    const std::uint64_t done = static_cast<std::uint64_t>(it - 1) * batch;
    if (done < mine) {
      const std::uint64_t n = std::min(batch, mine - done);
      charged_compute(comm, kDataRefsPerTrial * static_cast<double>(n),
                      pattern, kRegOpsPerTrial * static_cast<double>(n));
    }
    if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, it);
  }

  // Whole-slice accumulation in one pass is bit-identical to the old
  // per-batch accumulation (same trial order, same running sums), and
  // the slice cache collapses repeat grid points to a map lookup.
  // Skipped batches in sampled mode change the charges, never the
  // values: EP's results stay exact under sampling.
  const Accumulator& acc = cached_slice(cfg_.seed, first, mine);

  // One small allreduce: sums, counts, acceptance — 13 doubles.
  std::vector<double> packed{acc.sx, acc.sy, acc.accepted};
  for (int i = 0; i < 10; ++i) packed.push_back(acc.q[i]);
  packed = comm.allreduce_sum(std::move(packed));

  KernelResult result;
  result.name = name();
  result.values["sx"] = packed[0];
  result.values["sy"] = packed[1];
  result.values["accepted"] = packed[2];
  for (int i = 0; i < 10; ++i)
    result.values[pas::util::strf("q%d", i)] = packed[static_cast<std::size_t>(3 + i)];

  if (comm.rank() == 0) {
    const Reference ref = reference(cfg_);
    // The deviate sums are reassociated by the reduction tree; bound
    // the reordering error by the number of summands, not the (heavily
    // cancelled) sum magnitude.
    const double tol = 1e-8 * std::fmax(1.0, ref.accepted);
    bool ok = std::fabs(packed[0] - ref.sx) <= tol &&
              std::fabs(packed[1] - ref.sy) <= tol &&
              packed[2] == ref.accepted;
    for (int i = 0; ok && i < 10; ++i)
      ok = packed[static_cast<std::size_t>(3 + i)] == ref.q[i];
    result.verified = ok;
    result.note = ok ? "matches sequential reference"
                     : pas::util::strf("sx %.12g vs ref %.12g", packed[0], ref.sx);
  }
  return result;
}

}  // namespace pas::npb
