#include "pas/npb/ft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "pas/npb/npb_rng.hpp"
#include "pas/util/format.hpp"

namespace pas::npb {
namespace {

/// Instruction-charging constants per element per butterfly stage.
constexpr double kButterflyRefs = 2.0;
constexpr double kButterflyRegOps = 5.0;

struct Slabs {
  int nx, ny, nz, nranks, rank;
  int lz;  ///< z-planes per rank (layout A: [z_loc][y][x], x fastest)
  int lx;  ///< x-planes per rank (layout B: [x_loc][y][z], z fastest)

  std::size_t a_size() const {
    return static_cast<std::size_t>(lz) * ny * nx;
  }
  std::size_t b_size() const {
    return static_cast<std::size_t>(lx) * ny * nz;
  }
  std::size_t a_index(int z_loc, int y, int x) const {
    return (static_cast<std::size_t>(z_loc) * ny + y) * nx + x;
  }
  std::size_t b_index(int x_loc, int y, int z) const {
    return (static_cast<std::size_t>(x_loc) * ny + y) * nz + z;
  }
};

double log2d(int n) { return std::log2(static_cast<double>(n)); }

/// Charges one directional FFT pass over `elems` local elements of
/// length-`len` rows: a streaming first-touch over the slab plus
/// cache-resident butterfly work.
void charge_fft_pass(mpi::Comm& comm, std::size_t elems, int len,
                     std::size_t slab_bytes) {
  const double n = static_cast<double>(elems);
  const double stages = log2d(len);
  charged_compute(comm, 2.0 * n,
                  sim::AccessPattern{.working_set_bytes = slab_bytes,
                                     .stride_bytes = 16,
                                     .temporal_reuse = 1.0});
  charged_compute(
      comm, kButterflyRefs * n * std::max(0.0, stages - 1.0),
      sim::AccessPattern{.working_set_bytes =
                             static_cast<std::size_t>(len) * sizeof(Complex),
                         .stride_bytes = 16,
                         .temporal_reuse = stages},
      kButterflyRegOps * n * stages);
}

/// Charges a streaming pass (pack/unpack/evolve/copy) of `refs`
/// references over the slab.
void charge_stream(mpi::Comm& comm, double refs, std::size_t slab_bytes,
                   double reg_ops = 0.0) {
  charged_compute(comm, refs,
                  sim::AccessPattern{.working_set_bytes = slab_bytes,
                                     .stride_bytes = 16,
                                     .temporal_reuse = 1.0},
                  reg_ops);
}

/// x-direction FFTs (layout A, contiguous rows).
void fft_x(mpi::Comm& comm, const Slabs& s, const FftPlan& plan,
           std::vector<Complex>& a, bool forward) {
  for (int z = 0; z < s.lz; ++z) {
    for (int y = 0; y < s.ny; ++y) {
      std::span<Complex> row(&a[s.a_index(z, y, 0)],
                             static_cast<std::size_t>(s.nx));
      forward ? plan.forward(row) : plan.inverse(row);
    }
  }
  charge_fft_pass(comm, a.size(), s.nx, a.size() * sizeof(Complex));
}

/// y-direction FFTs (layout A, stride-nx columns). Tiles of adjacent
/// columns move through a contiguous scratch buffer: the gather and
/// scatter copy whole runs of complexes per y-row instead of one
/// element per column, and the batched plan runs the tile's columns
/// side by side (identical per-column arithmetic — lanes never mix).
void fft_y(mpi::Comm& comm, const Slabs& s, const FftPlan& plan,
           std::vector<Complex>& a, bool forward) {
  constexpr int kTile = 16;
  std::vector<Complex> scratch(static_cast<std::size_t>(s.ny) * kTile);
  for (int z = 0; z < s.lz; ++z) {
    for (int x0 = 0; x0 < s.nx; x0 += kTile) {
      const auto width = static_cast<std::size_t>(std::min(kTile, s.nx - x0));
      for (int y = 0; y < s.ny; ++y) {
        const Complex* src = &a[s.a_index(z, y, x0)];
        std::copy(src, src + width, &scratch[static_cast<std::size_t>(y) * width]);
      }
      forward ? plan.forward_batch(scratch.data(), width)
              : plan.inverse_batch(scratch.data(), width);
      for (int y = 0; y < s.ny; ++y) {
        const Complex* src = &scratch[static_cast<std::size_t>(y) * width];
        std::copy(src, src + width, &a[s.a_index(z, y, x0)]);
      }
    }
  }
  charge_fft_pass(comm, a.size(), s.ny, a.size() * sizeof(Complex));
  // Extra gather/scatter traffic for the strided walk.
  charge_stream(comm, 2.0 * static_cast<double>(a.size()),
                a.size() * sizeof(Complex));
}

/// z-direction FFTs (layout B, contiguous rows).
void fft_z(mpi::Comm& comm, const Slabs& s, const FftPlan& plan,
           std::vector<Complex>& b, bool forward) {
  for (int x = 0; x < s.lx; ++x) {
    for (int y = 0; y < s.ny; ++y) {
      std::span<Complex> row(&b[s.b_index(x, y, 0)],
                             static_cast<std::size_t>(s.nz));
      forward ? plan.forward(row) : plan.inverse(row);
    }
  }
  charge_fft_pass(comm, b.size(), s.nz, b.size() * sizeof(Complex));
}

/// Global transpose, layout A (z-slabs) -> layout B (x-slabs).
std::vector<Complex> transpose_a_to_b(mpi::Comm& comm, const Slabs& s,
                                      const std::vector<Complex>& a) {
  const int nranks = s.nranks;
  std::vector<mpi::Payload> blocks(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mpi::Payload& blk = blocks[static_cast<std::size_t>(r)];
    blk.reserve(static_cast<std::size_t>(s.lx) * s.ny * s.lz * 2);
    for (int xr = 0; xr < s.lx; ++xr) {
      const int x = r * s.lx + xr;
      for (int y = 0; y < s.ny; ++y) {
        for (int z = 0; z < s.lz; ++z) {
          const Complex& c = a[s.a_index(z, y, x)];
          blk.push_back(c.real());
          blk.push_back(c.imag());
        }
      }
    }
  }
  charge_stream(comm, 2.0 * static_cast<double>(a.size()),
                a.size() * sizeof(Complex),
                static_cast<double>(a.size()));

  std::vector<mpi::Payload> recv = comm.alltoall(std::move(blocks));

  std::vector<Complex> b(s.b_size());
  for (int src = 0; src < nranks; ++src) {
    const mpi::Payload& blk = recv[static_cast<std::size_t>(src)];
    std::size_t i = 0;
    for (int xr = 0; xr < s.lx; ++xr) {
      for (int y = 0; y < s.ny; ++y) {
        for (int zr = 0; zr < s.lz; ++zr) {
          const int z = src * s.lz + zr;
          b[s.b_index(xr, y, z)] = Complex(blk[i], blk[i + 1]);
          i += 2;
        }
      }
    }
  }
  charge_stream(comm, 2.0 * static_cast<double>(b.size()),
                b.size() * sizeof(Complex),
                static_cast<double>(b.size()));
  return b;
}

/// Global transpose, layout B (x-slabs) -> layout A (z-slabs).
std::vector<Complex> transpose_b_to_a(mpi::Comm& comm, const Slabs& s,
                                      const std::vector<Complex>& b) {
  const int nranks = s.nranks;
  std::vector<mpi::Payload> blocks(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mpi::Payload& blk = blocks[static_cast<std::size_t>(r)];
    blk.reserve(static_cast<std::size_t>(s.lz) * s.ny * s.lx * 2);
    for (int zr = 0; zr < s.lz; ++zr) {
      const int z = r * s.lz + zr;
      for (int y = 0; y < s.ny; ++y) {
        for (int xl = 0; xl < s.lx; ++xl) {
          const Complex& c = b[s.b_index(xl, y, z)];
          blk.push_back(c.real());
          blk.push_back(c.imag());
        }
      }
    }
  }
  charge_stream(comm, 2.0 * static_cast<double>(b.size()),
                b.size() * sizeof(Complex),
                static_cast<double>(b.size()));

  std::vector<mpi::Payload> recv = comm.alltoall(std::move(blocks));

  std::vector<Complex> a(s.a_size());
  for (int src = 0; src < nranks; ++src) {
    const mpi::Payload& blk = recv[static_cast<std::size_t>(src)];
    std::size_t i = 0;
    for (int zr = 0; zr < s.lz; ++zr) {
      for (int y = 0; y < s.ny; ++y) {
        for (int xl = 0; xl < s.lx; ++xl) {
          const int x = src * s.lx + xl;
          a[s.a_index(zr, y, x)] = Complex(blk[i], blk[i + 1]);
          i += 2;
        }
      }
    }
  }
  charge_stream(comm, 2.0 * static_cast<double>(a.size()),
                a.size() * sizeof(Complex),
                static_cast<double>(a.size()));
  return a;
}

/// Forward 3-D FFT: layout A in, layout B out (consumes `a`).
std::vector<Complex> forward3d(mpi::Comm& comm, const Slabs& s,
                               const FftPlan& px, const FftPlan& py,
                               const FftPlan& pz, std::vector<Complex> a) {
  fft_x(comm, s, px, a, /*forward=*/true);
  fft_y(comm, s, py, a, /*forward=*/true);
  std::vector<Complex> b = transpose_a_to_b(comm, s, a);
  fft_z(comm, s, pz, b, /*forward=*/true);
  return b;
}

/// Inverse 3-D FFT: layout B in, layout A out (consumes `b`).
std::vector<Complex> inverse3d(mpi::Comm& comm, const Slabs& s,
                               const FftPlan& px, const FftPlan& py,
                               const FftPlan& pz, std::vector<Complex> b) {
  fft_z(comm, s, pz, b, /*forward=*/false);
  std::vector<Complex> a = transpose_b_to_a(comm, s, b);
  fft_y(comm, s, py, a, /*forward=*/false);
  fft_x(comm, s, px, a, /*forward=*/false);
  return a;
}

/// Signed spectral index ("frequency") for position i of length n.
double freq(int i, int n) {
  return static_cast<double>(i <= n / 2 ? i : i - n);
}

}  // namespace

std::string FtKernel::signature() const {
  return pas::util::strf("FT(nx=%d,ny=%d,nz=%d,niter=%d,seed=%llu,alpha=%.17g,rt=%d)",
                         cfg_.nx, cfg_.ny, cfg_.nz, cfg_.niter,
                         static_cast<unsigned long long>(cfg_.seed),
                         cfg_.alpha, cfg_.roundtrip_check ? 1 : 0);
}

FtKernel::FtKernel(FtConfig cfg) : cfg_(cfg) {
  if (!is_pow2(static_cast<std::size_t>(cfg_.nx)) ||
      !is_pow2(static_cast<std::size_t>(cfg_.ny)) ||
      !is_pow2(static_cast<std::size_t>(cfg_.nz)))
    throw std::invalid_argument("FT: grid dims must be powers of two");
  if (cfg_.niter < 1) throw std::invalid_argument("FT: niter >= 1");
}

std::unique_ptr<Kernel> FtKernel::with_iterations(int iterations) const {
  FtConfig cfg = cfg_;
  cfg.niter = iterations;
  return std::make_unique<FtKernel>(cfg);
}

KernelResult FtKernel::run(mpi::Comm& comm) const { return run_ctl(comm, {}); }

KernelResult FtKernel::run_ctl(mpi::Comm& comm,
                               const IterationCtl& ctl) const {
  Slabs s;
  s.nx = cfg_.nx;
  s.ny = cfg_.ny;
  s.nz = cfg_.nz;
  s.nranks = comm.size();
  s.rank = comm.rank();
  if (s.nz % s.nranks != 0 || s.nx % s.nranks != 0)
    throw std::invalid_argument(pas::util::strf(
        "FT: %d ranks must divide nx=%d and nz=%d", s.nranks, s.nx, s.nz));
  s.lz = s.nz / s.nranks;
  s.lx = s.nx / s.nranks;

  const FftPlan px(static_cast<std::size_t>(s.nx));
  const FftPlan py(static_cast<std::size_t>(s.ny));
  const FftPlan pz(static_cast<std::size_t>(s.nz));

  KernelResult result;
  result.name = name();
  std::vector<Complex> u1;

  {  // u0 lives through set-up only: the time steps read u1 alone.
    // --- initialize u0 with the NPB stream, by global row -------------
    std::vector<Complex> u0(s.a_size());
    for (int z = 0; z < s.lz; ++z) {
      const int gz = s.rank * s.lz + z;
      for (int y = 0; y < s.ny; ++y) {
        const std::uint64_t row_start =
            (static_cast<std::uint64_t>(gz) * s.ny + static_cast<std::uint64_t>(y)) *
            static_cast<std::uint64_t>(s.nx);
        NpbRng rng = NpbRng::at(cfg_.seed, 2 * row_start);
        for (int x = 0; x < s.nx; ++x) {
          const double re = rng.next();
          const double im = rng.next();
          u0[s.a_index(z, y, x)] = Complex(re, im);
        }
      }
    }
    charge_stream(comm, 2.0 * static_cast<double>(u0.size()),
                  u0.size() * sizeof(Complex),
                  10.0 * static_cast<double>(u0.size()));

    // --- forward 3-D FFT ----------------------------------------------
    u1 = forward3d(comm, s, px, py, pz, std::vector<Complex>(u0));

    // --- distributed round-trip check ---------------------------------
    if (cfg_.roundtrip_check) {
      std::vector<Complex> back =
          inverse3d(comm, s, px, py, pz, std::vector<Complex>(u1));
      double local_err = 0.0;
      for (std::size_t i = 0; i < u0.size(); ++i)
        local_err = std::fmax(local_err, std::abs(back[i] - u0[i]));
      const double err = comm.allreduce_max(local_err);
      result.values["roundtrip_err"] = err;
      result.verified = err < 1e-9;
      result.note = result.verified
                        ? "inverse(forward(u0)) == u0"
                        : pas::util::strf("roundtrip error %.3g", err);
    } else {
      result.verified = true;
      result.note = "roundtrip check disabled";
    }
  }

  if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, 0);

  // --- time stepping ----------------------------------------------------
  const double pi2 = std::numbers::pi * std::numbers::pi;
  for (int t = 1; t <= cfg_.niter; ++t) {
    if (!ctl.detailed(t)) continue;
    // Evolve in Fourier space (layout B).
    std::vector<Complex> w(u1.size());
    for (int xl = 0; xl < s.lx; ++xl) {
      const double kx = freq(s.rank * s.lx + xl, s.nx);
      for (int y = 0; y < s.ny; ++y) {
        const double ky = freq(y, s.ny);
        for (int z = 0; z < s.nz; ++z) {
          const double kz = freq(z, s.nz);
          const double k2 = kx * kx + ky * ky + kz * kz;
          const double decay =
              std::exp(-4.0 * cfg_.alpha * pi2 * k2 * static_cast<double>(t));
          w[s.b_index(xl, y, z)] = u1[s.b_index(xl, y, z)] * decay;
        }
      }
    }
    charge_stream(comm, 2.0 * static_cast<double>(w.size()),
                  w.size() * sizeof(Complex),
                  8.0 * static_cast<double>(w.size()));

    std::vector<Complex> x1 = inverse3d(comm, s, px, py, pz, std::move(w));

    // Checksum over 1024 pseudo-random grid points (NPB idiom).
    Complex local_sum(0.0, 0.0);
    for (int j = 1; j <= 1024; ++j) {
      const int q = (5 * j) % s.nx;
      const int r = (3 * j) % s.ny;
      const int gz = j % s.nz;
      if (gz / s.lz == s.rank)
        local_sum += x1[s.a_index(gz % s.lz, r, q)];
    }
    std::vector<double> sum =
        comm.allreduce_sum(std::vector<double>{local_sum.real(), local_sum.imag()});
    result.values[pas::util::strf("checksum_re_%d", t)] = sum[0];
    result.values[pas::util::strf("checksum_im_%d", t)] = sum[1];

    if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, t);
  }

  return result;
}

}  // namespace pas::npb
