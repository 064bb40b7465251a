// Common kernel interface for the NPB-like workloads.
//
// Kernels perform *real* computation (random-number streams, FFTs,
// SSOR sweeps) so results are verifiable, and charge their work to the
// simulated node through charged_compute(): each block of real work is
// described by its data-reference count, its access pattern (working
// set / stride / reuse — classified onto the memory hierarchy), and
// its register-only instruction count. Virtual time, counters and the
// paper's ON-/OFF-chip decomposition all flow from these charges.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pas/mpi/communicator.hpp"
#include "pas/sim/memory_hierarchy.hpp"
#include "pas/sim/sampling.hpp"

namespace pas::npb {

struct KernelResult {
  std::string name;
  bool verified = false;
  std::string note;
  /// Named scalar outputs (checksums, residuals, counts...).
  std::map<std::string, double> values;

  double value(const std::string& key) const;
};

/// Iteration-level execution control for sampled estimation
/// (DESIGN.md §14). Default-constructed = the plain exact run.
/// Iterations are 1-based.
struct IterationCtl {
  /// Systematic sampling: execute the first `warmup_iters` iterations
  /// in detail, then every `sample_period`-th; skip the rest entirely.
  /// 0 = every iteration (exact).
  int sample_period = 0;
  int warmup_iters = 0;
  /// Boundary-snapshot sink; each rank records at every detailed
  /// iteration boundary (plus the iteration-0 baseline).
  sim::SampleProbe* probe = nullptr;

  bool trivial() const { return sample_period <= 1 && probe == nullptr; }

  /// Is 1-based iteration `it` executed in detail under this plan?
  /// Shared by every kernel so all ranks (and the estimator) agree.
  bool detailed(int it) const {
    if (sample_period <= 1 || it <= warmup_iters) return true;
    return (it - warmup_iters - 1) % sample_period == 0;
  }
};

class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual std::string name() const = 0;

  /// Canonical identity of this kernel instance: the name plus every
  /// configuration parameter that affects its computation or
  /// communication. Two kernels with equal signatures must produce
  /// bit-identical runs — the run cache (pas/analysis/run_cache.hpp)
  /// keys on this string.
  virtual std::string signature() const = 0;

  /// True when this kernel's control flow is independent of virtual
  /// time: it never reads the clock, uses no receive timeouts, and
  /// issues the identical sequence of compute blocks and messages at
  /// every DVFS point. Declaring true opts the kernel into the sweep
  /// executor's frequency-collapse fast path, which simulates one
  /// frequency per (size, N) column and re-prices the rest from the
  /// charged-work ledger (DESIGN.md §10). The default keeps unknown
  /// kernels on full simulation.
  virtual bool frequency_invariant_control_flow() const { return false; }

  /// Executes this rank's part of the kernel. Every rank returns a
  /// result; rank 0's carries the verification verdict.
  virtual KernelResult run(mpi::Comm& comm) const = 0;

  // ---- iteration-level control (sampling) -----------------------------
  /// Number of top-level iterations this kernel runs at `nranks` ranks,
  /// or 0 when the kernel has no iteration hooks (run_ctl then only
  /// accepts a trivial IterationCtl).
  virtual int iteration_count(int nranks) const {
    (void)nranks;
    return 0;
  }

  /// A copy of this kernel with the top-level iteration count replaced
  /// (the sweep-level `iterations` override), or nullptr when the
  /// kernel does not support it.
  virtual std::unique_ptr<Kernel> with_iterations(int iterations) const {
    (void)iterations;
    return nullptr;
  }

  /// run() under an IterationCtl plan: execute only the sampled subset
  /// of iterations. A trivial ctl must be exactly run(); kernels
  /// without iteration hooks reject non-trivial plans.
  virtual KernelResult run_ctl(mpi::Comm& comm, const IterationCtl& ctl) const;
};

/// Charges `data_refs` data-referencing instructions with access
/// pattern `pattern` plus `reg_ops` register-only instructions to the
/// rank's node, advancing its virtual clock.
void charged_compute(mpi::Comm& comm, double data_refs,
                     const sim::AccessPattern& pattern, double reg_ops = 0.0);

}  // namespace pas::npb
