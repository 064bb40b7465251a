// CG — a conjugate-gradient kernel in the mould of NPB CG.
//
// Solves A u = b for the SPD 7-point Laplacian stencil matrix on an
// n^3 grid, with b manufactured from a known exact solution. The grid
// is decomposed in z-slabs; every iteration performs
//
//   * one matrix-vector product (ghost-plane halo exchange with the
//     two z-neighbours, then a local stencil apply),
//   * two inner products (latency-bound allreduces), and
//   * three vector updates.
//
// Behavioural class: unlike FT (bandwidth-bound all-to-all) and LU
// (pipelined wavefront), CG's overhead is dominated by small
// log(N)-deep collectives — the latency-bound end of the spectrum.
// Not part of the paper's evaluation; included as the suite's third
// communication class for model validation beyond the paper.
#pragma once

#include "pas/npb/kernel.hpp"

namespace pas::npb {

struct CgConfig {
  /// Interior grid points per dimension; the rank count must divide n.
  int n = 64;
  int iterations = 40;
};

class CgKernel final : public Kernel {
 public:
  explicit CgKernel(CgConfig cfg = {});

  std::string name() const override { return "CG"; }
  std::string signature() const override;

  /// Control flow never reads the virtual clock and uses no timeouts:
  /// eligible for the frequency-collapse fast path.
  bool frequency_invariant_control_flow() const override { return true; }

  /// Result values: "residual_0" (initial), "residual_<i>" after each
  /// iteration (1-based), "error_inf" (deviation from the exact
  /// solution). Verification: substantial residual reduction.
  KernelResult run(mpi::Comm& comm) const override;

  int iteration_count(int nranks) const override {
    (void)nranks;
    return cfg_.iterations;
  }
  std::unique_ptr<Kernel> with_iterations(int iterations) const override;
  KernelResult run_ctl(mpi::Comm& comm,
                       const IterationCtl& ctl) const override;

  const CgConfig& config() const { return cfg_; }

 private:
  CgConfig cfg_;
};

}  // namespace pas::npb
