// FT — the NPB 3-D FFT PDE kernel (paper §4.3's communication-bound
// class).
//
// Solves du/dt = alpha * nabla^2 u spectrally on an nx*ny*nz periodic
// grid: one forward 3-D FFT, then per iteration an evolution in Fourier
// space followed by an inverse 3-D FFT and a checksum. The grid is
// decomposed in z-slabs; each 3-D FFT performs local x- and y-direction
// transforms, a global transpose to x-slabs (personalized all-to-all —
// the phase that dominates parallel overhead), and local z-direction
// transforms.
//
// Behavioural class: large memory footprint (the slab streams through
// the cache hierarchy, so OFF-chip time is significant and the
// frequency speedup is sub-linear) and all-to-all dominated overhead
// (speedup dips from 1 to 2 ranks, then climbs sub-linearly).
#pragma once

#include <cstdint>

#include "pas/npb/fft.hpp"
#include "pas/npb/kernel.hpp"

namespace pas::npb {

struct FtConfig {
  int nx = 64;
  int ny = 64;
  int nz = 64;
  int niter = 3;
  std::uint64_t seed = 314159265ULL;
  double alpha = 1e-6;
  /// Verify the distributed machinery by an inverse(forward(u0)) == u0
  /// round trip before iterating (costs one extra 3-D FFT).
  bool roundtrip_check = true;

  std::size_t grid_points() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
};

class FtKernel final : public Kernel {
 public:
  explicit FtKernel(FtConfig cfg = {});

  std::string name() const override { return "FT"; }
  std::string signature() const override;

  /// Control flow never reads the virtual clock and uses no timeouts:
  /// eligible for the frequency-collapse fast path.
  bool frequency_invariant_control_flow() const override { return true; }

  /// Result values: "checksum_re_<t>", "checksum_im_<t>" for each
  /// iteration t (1-based), and "roundtrip_err" when enabled.
  /// Requires comm.size() to divide both nz and nx.
  KernelResult run(mpi::Comm& comm) const override;

  int iteration_count(int nranks) const override {
    (void)nranks;
    return cfg_.niter;
  }
  std::unique_ptr<Kernel> with_iterations(int iterations) const override;
  KernelResult run_ctl(mpi::Comm& comm,
                       const IterationCtl& ctl) const override;

  const FtConfig& config() const { return cfg_; }

 private:
  FtConfig cfg_;
};

}  // namespace pas::npb
