// LU — an SSOR iterative solver in the mould of NPB LU (paper §5.2's
// fine-grain parameterization case study).
//
// Solves -laplace(u) = f on an n^3 interior grid (Dirichlet boundary,
// f chosen so the exact solution is sin(pi x) sin(pi y) sin(pi z))
// with symmetric successive over-relaxation. The domain is decomposed
// on a 2-D processor grid over (x, y); each SSOR iteration performs
//
//   * a ghost-face exchange (old east/south values),
//   * a lower sweep: k-planes ascending, pipelined 2-D wavefront over
//     tiles — every plane waits for the west/north boundary columns of
//     the same plane (the paper's "limited parallelism"),
//   * an upper sweep: the mirror-image pipeline, descending,
//   * a residual evaluation with an allreduce.
//
// Behavioural class: regular neighbour communication with small
// latency-bound messages whose size halves as the processor grid
// refines (the paper's 310-doubles-at-2-nodes / 155-at-4 observation),
// cache-friendly stencil compute (ON-chip dominant, Table 5).
#pragma once

#include "pas/npb/kernel.hpp"

namespace pas::npb {

struct LuConfig {
  /// Interior points per dimension. Must be divisible by the processor
  /// grid (up to 4 per dimension for N <= 16).
  int n = 96;
  int iterations = 8;
  /// SSOR relaxation factor; 1.7 is near-optimal for the default grid.
  double omega = 1.7;

  std::size_t interior_points() const {
    return static_cast<std::size_t>(n) * n * n;
  }
};

/// Processor-grid factorization used by LU: near-square, Px >= Py,
/// Px * Py = nranks (powers of two).
struct ProcGrid {
  int px = 1;
  int py = 1;
};
ProcGrid lu_proc_grid(int nranks);

class LuKernel final : public Kernel {
 public:
  explicit LuKernel(LuConfig cfg = {});

  std::string name() const override { return "LU"; }
  std::string signature() const override;

  /// Control flow never reads the virtual clock and uses no timeouts:
  /// eligible for the frequency-collapse fast path.
  bool frequency_invariant_control_flow() const override { return true; }

  /// Result values: "residual_0" (initial RMS residual),
  /// "residual_<i>" after iteration i (1-based), "error_inf" (max
  /// deviation from the exact solution). Verification: the residual
  /// decreases monotonically and substantially.
  KernelResult run(mpi::Comm& comm) const override;

  int iteration_count(int nranks) const override {
    (void)nranks;
    return cfg_.iterations;
  }
  std::unique_ptr<Kernel> with_iterations(int iterations) const override;
  KernelResult run_ctl(mpi::Comm& comm,
                       const IterationCtl& ctl) const override;

  const LuConfig& config() const { return cfg_; }

 private:
  LuConfig cfg_;
};

}  // namespace pas::npb
