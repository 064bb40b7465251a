#include "pas/npb/mg.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "pas/util/format.hpp"

namespace pas::npb {
namespace {

constexpr int kTagHaloUp = 31;
constexpr int kTagHaloDown = 32;

using Vec = std::vector<double>;

/// One level of the z-slab hierarchy.
struct Level {
  int n;   ///< interior points per dimension at this level
  int lz;  ///< local interior z-planes
  int z0;  ///< first global interior z-plane

  std::size_t size() const {
    return static_cast<std::size_t>(lz + 2) * (n + 2) * (n + 2);
  }
  std::size_t idx(int z, int y, int x) const {
    return (static_cast<std::size_t>(z + 1) * (n + 2) +
            static_cast<std::size_t>(y + 1)) *
               (n + 2) +
           static_cast<std::size_t>(x + 1);
  }
};

struct Hierarchy {
  int rank = 0;
  int nranks = 1;
  std::vector<Level> levels;
  std::vector<Vec> u;    ///< solution / correction per level
  std::vector<Vec> rhs;  ///< right-hand side / restricted residual
  std::vector<Vec> tmp;  ///< scratch (Jacobi ping buffer, residual)
};

void charge_level_pass(mpi::Comm& comm, const Level& lv, double refs_per_pt,
                       double reg_per_pt) {
  const double pts = static_cast<double>(lv.n) * lv.n * lv.lz;
  charged_compute(comm, refs_per_pt * pts,
                  sim::AccessPattern{
                      .working_set_bytes =
                          static_cast<std::size_t>(3 * (lv.n + 2)) * 8,
                      .stride_bytes = 8,
                      .temporal_reuse = 2.0},
                  reg_per_pt * pts);
  charged_compute(comm, 2.0 * pts,
                  sim::AccessPattern{.working_set_bytes = lv.size() * 8,
                                     .stride_bytes = 8,
                                     .temporal_reuse = 1.0});
}

void halo_exchange(mpi::Comm& comm, const Hierarchy& h, const Level& lv,
                   Vec& v) {
  auto pack = [&](int z) {
    mpi::Payload out;
    out.reserve(static_cast<std::size_t>(lv.n) * lv.n);
    for (int y = 0; y < lv.n; ++y)
      for (int x = 0; x < lv.n; ++x) out.push_back(v[lv.idx(z, y, x)]);
    return out;
  };
  auto unpack = [&](int z, const mpi::Payload& data) {
    std::size_t i = 0;
    for (int y = 0; y < lv.n; ++y)
      for (int x = 0; x < lv.n; ++x) v[lv.idx(z, y, x)] = data[i++];
  };
  const bool down = h.rank > 0;
  const bool up = h.rank + 1 < h.nranks;
  if (up) comm.send(h.rank + 1, kTagHaloUp, pack(lv.lz - 1));
  if (down) comm.send(h.rank - 1, kTagHaloDown, pack(0));
  if (down) unpack(-1, comm.recv(h.rank - 1, kTagHaloUp));
  if (up) unpack(lv.lz, comm.recv(h.rank + 1, kTagHaloDown));
}

double stencil(const Level& lv, const Vec& v, int z, int y, int x) {
  return 6.0 * v[lv.idx(z, y, x)] - v[lv.idx(z - 1, y, x)] -
         v[lv.idx(z + 1, y, x)] - v[lv.idx(z, y - 1, x)] -
         v[lv.idx(z, y + 1, x)] - v[lv.idx(z, y, x - 1)] -
         v[lv.idx(z, y, x + 1)];
}

/// Weighted-Jacobi smoothing sweeps on level `l`.
void smooth(mpi::Comm& comm, Hierarchy& h, int l, int sweeps, double w) {
  const Level& lv = h.levels[static_cast<std::size_t>(l)];
  Vec& u = h.u[static_cast<std::size_t>(l)];
  Vec& next = h.tmp[static_cast<std::size_t>(l)];
  const Vec& f = h.rhs[static_cast<std::size_t>(l)];
  for (int s = 0; s < sweeps; ++s) {
    halo_exchange(comm, h, lv, u);
    for (int z = 0; z < lv.lz; ++z) {
      for (int y = 0; y < lv.n; ++y) {
        for (int x = 0; x < lv.n; ++x) {
          const double residual = f[lv.idx(z, y, x)] - stencil(lv, u, z, y, x);
          next[lv.idx(z, y, x)] = u[lv.idx(z, y, x)] + w * residual / 6.0;
        }
      }
    }
    for (int z = 0; z < lv.lz; ++z)
      for (int y = 0; y < lv.n; ++y)
        for (int x = 0; x < lv.n; ++x)
          u[lv.idx(z, y, x)] = next[lv.idx(z, y, x)];
    charge_level_pass(comm, lv, 10.0, 10.0);
  }
}

/// Residual r = f - A u on level `l`, into h.tmp[l].
void residual(mpi::Comm& comm, Hierarchy& h, int l) {
  const Level& lv = h.levels[static_cast<std::size_t>(l)];
  Vec& u = h.u[static_cast<std::size_t>(l)];
  const Vec& f = h.rhs[static_cast<std::size_t>(l)];
  Vec& r = h.tmp[static_cast<std::size_t>(l)];
  halo_exchange(comm, h, lv, u);
  for (int z = 0; z < lv.lz; ++z)
    for (int y = 0; y < lv.n; ++y)
      for (int x = 0; x < lv.n; ++x)
        r[lv.idx(z, y, x)] = f[lv.idx(z, y, x)] - stencil(lv, u, z, y, x);
  charge_level_pass(comm, lv, 9.0, 8.0);
}

/// Restrict h.tmp[l] (fine residual) into h.rhs[l+1] by 3-D full
/// weighting centred on the coincident vertex (fine 2j+1 sits on
/// coarse j); zero h.u[l+1].
void restrict_to_coarse(mpi::Comm& comm, Hierarchy& h, int l) {
  const Level& fine = h.levels[static_cast<std::size_t>(l)];
  const Level& coarse = h.levels[static_cast<std::size_t>(l + 1)];
  Vec& r = h.tmp[static_cast<std::size_t>(l)];
  Vec& fc = h.rhs[static_cast<std::size_t>(l + 1)];
  Vec& uc = h.u[static_cast<std::size_t>(l + 1)];
  std::fill(uc.begin(), uc.end(), 0.0);
  halo_exchange(comm, h, fine, r);  // FW needs the neighbour plane

  static constexpr double w1[3] = {0.25, 0.5, 0.25};
  for (int z = 0; z < coarse.lz; ++z) {
    for (int y = 0; y < coarse.n; ++y) {
      for (int x = 0; x < coarse.n; ++x) {
        double sum = 0.0;
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx)
              sum += w1[dz + 1] * w1[dy + 1] * w1[dx + 1] *
                     r[fine.idx(2 * z + 1 + dz, 2 * y + 1 + dy,
                                2 * x + 1 + dx)];
        // Rescale: coarsening doubles h, and the unscaled 7-point
        // operator picks up a factor 4 per level.
        fc[coarse.idx(z, y, x)] = 4.0 * sum;
      }
    }
  }
  charge_level_pass(comm, fine, 3.5, 3.0);
}

/// Prolongate the coarse correction h.u[l+1] onto h.u[l] by trilinear
/// interpolation (fine 2j+1 coincides with coarse j; fine 2j averages
/// coarse j-1 and j) and add.
void prolongate_and_correct(mpi::Comm& comm, Hierarchy& h, int l) {
  const Level& fine = h.levels[static_cast<std::size_t>(l)];
  const Level& coarse = h.levels[static_cast<std::size_t>(l + 1)];
  Vec& uf = h.u[static_cast<std::size_t>(l)];
  Vec& uc = h.u[static_cast<std::size_t>(l + 1)];
  halo_exchange(comm, h, coarse, uc);  // interpolation straddles slabs

  auto accumulate = [&](int zf, int yf, int xf) {
    double value = 0.0;
    const int zc = (zf - 1) / 2, yc = (yf - 1) / 2, xc = (xf - 1) / 2;
    const bool ze = (zf % 2) == 0, ye = (yf % 2) == 0, xe = (xf % 2) == 0;
    for (int dz = 0; dz <= (ze ? 1 : 0); ++dz) {
      const double wz = ze ? 0.5 : 1.0;
      for (int dy = 0; dy <= (ye ? 1 : 0); ++dy) {
        const double wy = ye ? 0.5 : 1.0;
        for (int dx = 0; dx <= (xe ? 1 : 0); ++dx) {
          const double wx = xe ? 0.5 : 1.0;
          // For even fine indices the parents are (c, c+1) where
          // c = zf/2 - 1; for odd they coincide with index (zf-1)/2.
          const int pz = ze ? zf / 2 - 1 + dz : zc;
          const int py = ye ? yf / 2 - 1 + dy : yc;
          const int px = xe ? xf / 2 - 1 + dx : xc;
          value += wz * wy * wx * uc[coarse.idx(pz, py, px)];
        }
      }
    }
    return value;
  };
  for (int z = 0; z < fine.lz; ++z)
    for (int y = 0; y < fine.n; ++y)
      for (int x = 0; x < fine.n; ++x)
        uf[fine.idx(z, y, x)] += accumulate(z, y, x);
  charge_level_pass(comm, fine, 4.0, 4.0);
}

}  // namespace

std::string MgKernel::signature() const {
  return pas::util::strf(
      "MG(n=%d,levels=%d,cycles=%d,pre=%d,post=%d,coarse=%d,w=%.17g)", cfg_.n,
      cfg_.levels, cfg_.cycles, cfg_.pre_smooth, cfg_.post_smooth,
      cfg_.coarse_smooth, cfg_.jacobi_weight);
}

MgKernel::MgKernel(MgConfig cfg) : cfg_(cfg) {
  if (cfg_.n < 4 || (cfg_.n & (cfg_.n - 1)) != 0)
    throw std::invalid_argument("MG: n must be a power of two >= 4");
  if (cfg_.levels < 1 || cfg_.n >> (cfg_.levels - 1) < 2)
    throw std::invalid_argument("MG: too many levels for this grid");
  if (cfg_.cycles < 1) throw std::invalid_argument("MG: cycles >= 1");
}

std::unique_ptr<Kernel> MgKernel::with_iterations(int iterations) const {
  MgConfig cfg = cfg_;
  cfg.cycles = iterations;
  return std::make_unique<MgKernel>(cfg);
}

KernelResult MgKernel::run(mpi::Comm& comm) const { return run_ctl(comm, {}); }

KernelResult MgKernel::run_ctl(mpi::Comm& comm,
                               const IterationCtl& ctl) const {
  Hierarchy h;
  h.rank = comm.rank();
  h.nranks = comm.size();
  const int coarsest_n = cfg_.n >> (cfg_.levels - 1);
  if (coarsest_n % h.nranks != 0)
    throw std::invalid_argument(pas::util::strf(
        "MG: %d ranks must divide the coarsest grid (%d planes)", h.nranks,
        coarsest_n));

  for (int l = 0; l < cfg_.levels; ++l) {
    Level lv;
    lv.n = cfg_.n >> l;
    lv.lz = lv.n / h.nranks;
    lv.z0 = h.rank * lv.lz;
    h.levels.push_back(lv);
    h.u.emplace_back(lv.size(), 0.0);
    h.rhs.emplace_back(lv.size(), 0.0);
    h.tmp.emplace_back(lv.size(), 0.0);
  }

  // Fine-level right-hand side from the exact solution
  // sin(pi x) sin(pi y) sin(pi z) through the unscaled operator.
  const Level& fine = h.levels[0];
  const double pi = std::numbers::pi;
  const double hh = 1.0 / static_cast<double>(cfg_.n + 1);
  auto exact = [&](int gx, int gy, int gz) {
    return std::sin(pi * (gx + 1) * hh) * std::sin(pi * (gy + 1) * hh) *
           std::sin(pi * (gz + 1) * hh);
  };
  {
    Vec ustar(fine.size(), 0.0);
    for (int z = -1; z <= fine.lz; ++z) {
      const int gz = fine.z0 + z;
      if (gz < 0 || gz >= cfg_.n) continue;
      for (int y = 0; y < fine.n; ++y)
        for (int x = 0; x < fine.n; ++x)
          ustar[fine.idx(z, y, x)] = exact(x, y, gz);
    }
    for (int z = 0; z < fine.lz; ++z)
      for (int y = 0; y < fine.n; ++y)
        for (int x = 0; x < fine.n; ++x)
          h.rhs[0][fine.idx(z, y, x)] = stencil(fine, ustar, z, y, x);
    charge_level_pass(comm, fine, 9.0, 12.0);
  }

  auto residual_norm = [&]() {
    residual(comm, h, 0);
    double sumsq = 0.0;
    for (int z = 0; z < fine.lz; ++z)
      for (int y = 0; y < fine.n; ++y)
        for (int x = 0; x < fine.n; ++x) {
          const double r = h.tmp[0][fine.idx(z, y, x)];
          sumsq += r * r;
        }
    return std::sqrt(comm.allreduce_sum(sumsq));
  };

  KernelResult result;
  result.name = name();
  std::vector<double> norms{residual_norm()};
  result.values["residual_0"] = norms[0];

  if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, 0);

  for (int cycle = 1; cycle <= cfg_.cycles; ++cycle) {
    if (!ctl.detailed(cycle)) continue;
    // Down-sweep.
    for (int l = 0; l + 1 < cfg_.levels; ++l) {
      smooth(comm, h, l, cfg_.pre_smooth, cfg_.jacobi_weight);
      residual(comm, h, l);
      restrict_to_coarse(comm, h, l);
    }
    smooth(comm, h, cfg_.levels - 1, cfg_.coarse_smooth, cfg_.jacobi_weight);
    // Up-sweep.
    for (int l = cfg_.levels - 2; l >= 0; --l) {
      prolongate_and_correct(comm, h, l);
      smooth(comm, h, l, cfg_.post_smooth, cfg_.jacobi_weight);
    }
    norms.push_back(residual_norm());
    result.values[pas::util::strf("residual_%d", cycle)] = norms.back();

    if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, cycle);
  }

  if (comm.rank() == 0 && ctl.sample_period > 1) {
    result.verified = true;
    result.note = pas::util::strf(
        "MG sampled estimate (%d of %d cycles detailed)",
        static_cast<int>(norms.size()) - 1, cfg_.cycles);
    return result;
  }
  if (comm.rank() == 0) {
    bool monotone = true;
    for (std::size_t i = 1; i < norms.size(); ++i)
      monotone = monotone && norms[i] < norms[i - 1];
    const bool converged = norms.back() < 0.5 * norms.front();
    result.verified = monotone && converged;
    result.note = pas::util::strf(
        "MG residual %.3g -> %.3g over %d V-cycles (monotone=%d)",
        norms.front(), norms.back(), cfg_.cycles, monotone ? 1 : 0);
  }
  return result;
}

}  // namespace pas::npb
