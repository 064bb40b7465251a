// MG — a geometric-multigrid kernel in the mould of NPB MG.
//
// V-cycles for the 7-point Laplacian on an n^3 grid: weighted-Jacobi
// smoothing, residual restriction (8-cell averaging) down a fixed
// level hierarchy, coarse-grid smoothing, piecewise-constant
// prolongation with correction back up. The grid is decomposed in
// z-slabs at every level; each smoothing step performs a ghost-plane
// halo exchange whose message size *quarters* per level
// ((n/2^l)^2 doubles) — the variable-message-size communication class
// the other kernels lack.
//
// The level count is fixed in the configuration (not derived from the
// rank count), so the arithmetic — and therefore the residual
// sequence — is identical for every processor count.
//
// Not part of the paper's evaluation; included, like CG, to broaden
// the workload classes available to the model.
#pragma once

#include "pas/npb/kernel.hpp"

namespace pas::npb {

struct MgConfig {
  /// Fine-grid interior points per dimension (power of two).
  int n = 64;
  /// Grid levels (fine + coarser); every rank needs at least one
  /// z-plane at the coarsest level: n / 2^(levels-1) >= ranks.
  int levels = 3;
  int cycles = 4;
  int pre_smooth = 2;
  int post_smooth = 2;
  /// The hierarchy is depth-limited (every rank keeps a plane at the
  /// coarsest level), so the coarsest grid is solved by brute-force
  /// smoothing rather than recursion.
  int coarse_smooth = 40;
  double jacobi_weight = 0.8;
};

class MgKernel final : public Kernel {
 public:
  explicit MgKernel(MgConfig cfg = {});

  std::string name() const override { return "MG"; }
  std::string signature() const override;

  /// Control flow never reads the virtual clock and uses no timeouts:
  /// eligible for the frequency-collapse fast path.
  bool frequency_invariant_control_flow() const override { return true; }

  /// Result values: "residual_0", "residual_<c>" after each V-cycle.
  /// Verification: substantial, monotone residual reduction.
  KernelResult run(mpi::Comm& comm) const override;

  int iteration_count(int nranks) const override {
    (void)nranks;
    return cfg_.cycles;
  }
  std::unique_ptr<Kernel> with_iterations(int iterations) const override;
  KernelResult run_ctl(mpi::Comm& comm,
                       const IterationCtl& ctl) const override;

  const MgConfig& config() const { return cfg_; }

 private:
  MgConfig cfg_;
};

}  // namespace pas::npb
