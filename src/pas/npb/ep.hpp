// EP — the NPB "embarrassingly parallel" kernel.
//
// Generates 2*n uniform deviates with the NPB LCG, forms Gaussian pairs
// by Marsaglia acceptance-rejection, accumulates the sums of the
// deviates and the counts of pairs per square annulus (NPB's q table).
// Each rank skips ahead in the shared stream, so the global result is
// independent of the rank count up to floating-point summation order.
//
// Behavioural class (paper §4.2): computation-bound, tiny memory
// footprint, a single small allreduce — speedup is nearly N * f/f0.
#pragma once

#include <cstdint>

#include "pas/npb/kernel.hpp"

namespace pas::npb {

struct EpConfig {
  /// log2 of the number of Gaussian-pair trials (NPB's M). 2^24 makes
  /// the final allreduce negligible, as on the paper's class-A runs.
  int log2_pairs = 24;
  std::uint64_t seed = 271828183ULL;
  /// Trials processed per charged block; sized so the scratch buffer
  /// stays L1-resident (the kernel's defining property).
  int batch_pairs = 1024;

  std::uint64_t pairs() const { return 1ULL << log2_pairs; }
};

class EpKernel final : public Kernel {
 public:
  explicit EpKernel(EpConfig cfg = {});

  std::string name() const override { return "EP"; }
  std::string signature() const override;

  /// Control flow never reads the virtual clock and uses no timeouts:
  /// eligible for the frequency-collapse fast path.
  bool frequency_invariant_control_flow() const override { return true; }

  /// Result values (rank 0): "sx", "sy" (deviate sums), "q0".."q9"
  /// (annulus counts), "accepted". Verification recomputes a reference
  /// on rank 0 sequentially at construction-time parameters.
  KernelResult run(mpi::Comm& comm) const override;

  /// One iteration = one charged batch on the widest rank (rank 0 gets
  /// the remainder trials, so its batch count is the maximum; narrower
  /// ranks run empty iterations past their slice to keep boundaries
  /// aligned).
  int iteration_count(int nranks) const override;
  KernelResult run_ctl(mpi::Comm& comm,
                       const IterationCtl& ctl) const override;

  const EpConfig& config() const { return cfg_; }

  /// Sequential reference (same arithmetic, single stream), used by
  /// verification and tests.
  struct Reference {
    double sx = 0.0;
    double sy = 0.0;
    double q[10] = {};
    double accepted = 0.0;
  };
  static Reference reference(const EpConfig& cfg);

 private:
  EpConfig cfg_;
};

}  // namespace pas::npb
