#include "pas/npb/lu.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "pas/util/format.hpp"

namespace pas::npb {
namespace {

// Point-to-point channel tags. Matching is FIFO per (source, tag), so a
// single tag per logical channel keeps per-plane messages ordered.
constexpr int kTagFaceEW = 1;
constexpr int kTagFaceNS = 2;
constexpr int kTagLowerWE = 3;
constexpr int kTagLowerNS = 4;
constexpr int kTagUpperEW = 5;
constexpr int kTagUpperNS = 6;
constexpr int kTagResidEW = 7;
constexpr int kTagResidNS = 8;

/// Instruction charges per updated point.
constexpr double kStencilRefs = 11.0;
constexpr double kStreamRefs = 2.0;
constexpr double kRegOps = 12.0;

/// Rows of a plane one skewed sweep group keeps in flight (sweep_plane).
constexpr int kRowGroup = 8;

struct Tile {
  int n;             ///< global interior points per dimension
  int px, py;        ///< processor grid
  int pi, pj;        ///< my coordinates
  int tx, ty;        ///< interior tile extent in x and y
  int X, Y, Z;       ///< padded local extents (tx+2, ty+2, n+2)

  /// Plane-major: a k-plane is X rows of Y points, so a point's i and
  /// j neighbours are Y and 1 doubles away and its k neighbours one
  /// plane away.
  std::size_t idx(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * X + i) * Y + j;
  }
  std::ptrdiff_t plane() const { return static_cast<std::ptrdiff_t>(X) * Y; }
  int rank_of(int qi, int qj) const { return qi * py + qj; }
  int west() const { return rank_of(pi - 1, pj); }
  int east() const { return rank_of(pi + 1, pj); }
  int north() const { return rank_of(pi, pj - 1); }
  int south() const { return rank_of(pi, pj + 1); }
  bool has_west() const { return pi > 0; }
  bool has_east() const { return pi < px - 1; }
  bool has_north() const { return pj > 0; }
  bool has_south() const { return pj < py - 1; }
};

/// One SSOR point update at flat offset p: the reference expression,
/// operands in (i-1, i+1, j-1, j+1, k-1, k+1) order.
struct Relax {
  double* u;
  const double* rhs;
  std::ptrdiff_t Y, P;  ///< row and plane strides
  double h2, omega;

  void operator()(std::ptrdiff_t p) const {
    const double gs = (u[p - Y] + u[p + Y] + u[p - 1] + u[p + 1] +
                       u[p - P] + u[p + P] + h2 * rhs[p]) /
                      6.0;
    u[p] = (1.0 - omega) * u[p] + omega * gs;
  }
};

/// Sweeps one k-plane in Gauss-Seidel order: rows a = 0..rows-1, and
/// within a row columns b = 0..cols-1, point (a, b) at flat offset
/// origin + Dir*(a*Y + b). Dir = +1 is the lower sweep from (1, 1),
/// Dir = -1 the upper sweep from (tx, ty). Rows run in groups of
/// kRowGroup, each row one column behind the row before, so the
/// points of one step lie on an anti-diagonal and none reads another.
/// Each point still reads (a-1, b) and (a, b-1) already updated and
/// (a+1, b) and (a, b+1) not yet — the reference order's operands —
/// so every value is bit-identical, while the group's divides overlap
/// instead of each row waiting on its left neighbour's.
template <int Dir>
void sweep_plane(const Relax& relax, std::ptrdiff_t origin, int rows,
                 int cols) {
  const std::ptrdiff_t skew = relax.Y - 1;  // next row, one column back
  const int grouped = cols >= kRowGroup ? rows - rows % kRowGroup : 0;
  for (int a0 = 0; a0 < grouped; a0 += kRowGroup) {
    // Step s runs row r of the group at column s - r.
    const std::ptrdiff_t base = origin + Dir * (a0 * relax.Y);
    const auto diagonal = [&](int s, int r_lo, int r_hi) {
      for (int r = r_lo; r <= r_hi; ++r) relax(base + Dir * (s + r * skew));
    };
    for (int s = 0; s < kRowGroup - 1; ++s) diagonal(s, 0, s);
    for (int s = kRowGroup - 1; s < cols; ++s) {
      const std::ptrdiff_t p = base + Dir * s;
#pragma GCC unroll kRowGroup
      for (int r = 0; r < kRowGroup; ++r) relax(p + Dir * (r * skew));
    }
    for (int s = cols; s < cols + kRowGroup - 1; ++s)
      diagonal(s, s - cols + 1, kRowGroup - 1);
  }
  for (int a = grouped; a < rows; ++a)
    for (int b = 0; b < cols; ++b) relax(origin + Dir * (a * relax.Y + b));
}

/// Charges the stencil work of one k-plane of the tile.
void charge_plane(mpi::Comm& comm, const Tile& t, std::size_t array_bytes) {
  const double pts = static_cast<double>(t.tx) * t.ty;
  // Stencil lines: ~9 rows of the tile stay hot in L1 across the plane.
  charged_compute(comm, kStencilRefs * pts,
                  sim::AccessPattern{
                      .working_set_bytes =
                          static_cast<std::size_t>(9 * (t.tx + 2)) * 8,
                      .stride_bytes = 8,
                      .temporal_reuse = 2.0},
                  kRegOps * pts);
  // Plane streaming: first touches come from deeper in the hierarchy.
  charged_compute(comm, kStreamRefs * pts,
                  sim::AccessPattern{.working_set_bytes = array_bytes,
                                     .stride_bytes = 8,
                                     .temporal_reuse = 1.0});
}

mpi::Payload pack_x_column(const Tile& t, const std::vector<double>& u, int i) {
  mpi::Payload out;
  out.reserve(static_cast<std::size_t>(t.ty) * t.n);
  for (int j = 1; j <= t.ty; ++j)
    for (int k = 1; k <= t.n; ++k) out.push_back(u[t.idx(i, j, k)]);
  return out;
}

void unpack_x_column(const Tile& t, std::vector<double>& u, int i,
                     const mpi::Payload& data) {
  std::size_t p = 0;
  for (int j = 1; j <= t.ty; ++j)
    for (int k = 1; k <= t.n; ++k) u[t.idx(i, j, k)] = data[p++];
}

mpi::Payload pack_y_row(const Tile& t, const std::vector<double>& u, int j) {
  mpi::Payload out;
  out.reserve(static_cast<std::size_t>(t.tx) * t.n);
  for (int i = 1; i <= t.tx; ++i)
    for (int k = 1; k <= t.n; ++k) out.push_back(u[t.idx(i, j, k)]);
  return out;
}

void unpack_y_row(const Tile& t, std::vector<double>& u, int j,
                  const mpi::Payload& data) {
  std::size_t p = 0;
  for (int i = 1; i <= t.tx; ++i)
    for (int k = 1; k <= t.n; ++k) u[t.idx(i, j, k)] = data[p++];
}

}  // namespace

ProcGrid lu_proc_grid(int nranks) {
  if (nranks <= 0 || (nranks & (nranks - 1)) != 0)
    throw std::invalid_argument("LU: rank count must be a power of two");
  int bits = 0;
  for (int v = nranks; v > 1; v >>= 1) ++bits;
  ProcGrid g;
  g.px = 1 << ((bits + 1) / 2);
  g.py = 1 << (bits / 2);
  return g;
}

std::string LuKernel::signature() const {
  return pas::util::strf("LU(n=%d,iters=%d,omega=%.17g)", cfg_.n,
                         cfg_.iterations, cfg_.omega);
}

std::unique_ptr<Kernel> LuKernel::with_iterations(int iterations) const {
  LuConfig cfg = cfg_;
  cfg.iterations = iterations;
  return std::make_unique<LuKernel>(cfg);
}

LuKernel::LuKernel(LuConfig cfg) : cfg_(cfg) {
  if (cfg_.n < 4) throw std::invalid_argument("LU: n too small");
  if (cfg_.iterations < 1) throw std::invalid_argument("LU: iterations >= 1");
}

KernelResult LuKernel::run(mpi::Comm& comm) const { return run_ctl(comm, {}); }

KernelResult LuKernel::run_ctl(mpi::Comm& comm,
                               const IterationCtl& ctl) const {
  const ProcGrid grid = lu_proc_grid(comm.size());
  Tile t;
  t.n = cfg_.n;
  t.px = grid.px;
  t.py = grid.py;
  t.pi = comm.rank() / grid.py;
  t.pj = comm.rank() % grid.py;
  if (cfg_.n % grid.px != 0 || cfg_.n % grid.py != 0)
    throw std::invalid_argument(pas::util::strf(
        "LU: grid %dx%d must divide n=%d", grid.px, grid.py, cfg_.n));
  t.tx = cfg_.n / grid.px;
  t.ty = cfg_.n / grid.py;
  t.X = t.tx + 2;
  t.Y = t.ty + 2;
  t.Z = cfg_.n + 2;

  const double h = 1.0 / static_cast<double>(cfg_.n + 1);
  const double h2 = h * h;
  const double omega = cfg_.omega;
  const double pi = std::numbers::pi;

  const std::size_t local = static_cast<std::size_t>(t.X) * t.Y * t.Z;
  const std::size_t array_bytes = local * sizeof(double);
  std::vector<double> u(local, 0.0);
  std::vector<double> rhs(local, 0.0);

  // sin(pi * g h) is a pure 1D function of the global index g; tabulate
  // each axis once with the very expressions the point loops evaluated,
  // so every entry is bit-identical to the in-loop call it replaces —
  // and the products below hoist only left-associative prefixes, which
  // keeps the operation sequence (and therefore every bit) unchanged.
  std::vector<double> sin_x(static_cast<std::size_t>(t.tx) + 1, 0.0);
  for (int i = 1; i <= t.tx; ++i) {
    const double x = static_cast<double>(t.pi * t.tx + i) * h;
    sin_x[static_cast<std::size_t>(i)] = std::sin(pi * x);
  }
  std::vector<double> sin_y(static_cast<std::size_t>(t.ty) + 1, 0.0);
  for (int j = 1; j <= t.ty; ++j) {
    const double y = static_cast<double>(t.pj * t.ty + j) * h;
    sin_y[static_cast<std::size_t>(j)] = std::sin(pi * y);
  }
  std::vector<double> sin_z(static_cast<std::size_t>(t.n) + 1, 0.0);
  for (int k = 1; k <= t.n; ++k) {
    const double z = static_cast<double>(k) * h;
    sin_z[static_cast<std::size_t>(k)] = std::sin(pi * z);
  }

  // Right-hand side: f = 3 pi^2 sin(pi x) sin(pi y) sin(pi z), whose
  // exact solution is u = sin sin sin.
  for (int i = 1; i <= t.tx; ++i) {
    const double fx = 3.0 * pi * pi * sin_x[static_cast<std::size_t>(i)];
    for (int j = 1; j <= t.ty; ++j) {
      const double fxy = fx * sin_y[static_cast<std::size_t>(j)];
      for (int k = 1; k <= t.n; ++k)
        rhs[t.idx(i, j, k)] = fxy * sin_z[static_cast<std::size_t>(k)];
    }
  }
  charged_compute(comm, 2.0 * static_cast<double>(cfg_.n) * t.tx * t.ty,
                  sim::AccessPattern{.working_set_bytes = array_bytes,
                                     .stride_bytes = 8,
                                     .temporal_reuse = 1.0},
                  30.0 * static_cast<double>(cfg_.n) * t.tx * t.ty);

  const Relax relax{u.data(), rhs.data(), t.Y, t.plane(), h2, omega};
  // Squared residual terms of one i-row, at their (j, k) positions.
  std::vector<double> sq(static_cast<std::size_t>(t.ty) * t.n);

  auto residual_rms = [&]() -> double {
    // Refresh west/north ghosts with post-sweep values (east/south
    // ghosts were filled by the upper pipeline or the face exchange).
    if (t.has_east()) comm.send(t.east(), kTagResidEW, pack_x_column(t, u, t.tx));
    if (t.has_south()) comm.send(t.south(), kTagResidNS, pack_y_row(t, u, t.ty));
    if (t.has_west()) unpack_x_column(t, u, 0, comm.recv(t.west(), kTagResidEW));
    if (t.has_north()) unpack_y_row(t, u, 0, comm.recv(t.north(), kTagResidNS));

    // The sum keeps its (i, j, k) order, so every bit of the residual
    // holds: each i-row's terms are evaluated plane by plane (unit
    // stride in u), stored at their (j, k) position, then added in
    // that order.
    const std::ptrdiff_t Y = t.Y, P = t.plane();
    double sumsq = 0.0;
    for (int i = 1; i <= t.tx; ++i) {
      for (int k = 1; k <= t.n; ++k) {
        const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(t.idx(i, 0, k));
        for (int j = 1; j <= t.ty; ++j) {
          const std::ptrdiff_t p = row + j;
          const double lap = (6.0 * u[p] - u[p - Y] - u[p + Y] - u[p - 1] -
                              u[p + 1] - u[p - P] - u[p + P]) /
                             h2;
          const double r = rhs[p] - lap;
          sq[static_cast<std::size_t>(j - 1) * t.n + (k - 1)] = r * r;
        }
      }
      for (const double v : sq) sumsq += v;
    }
    for (int k = 1; k <= t.n; ++k) charge_plane(comm, t, array_bytes);
    const double total = comm.allreduce_sum(sumsq);
    return std::sqrt(total / static_cast<double>(cfg_.interior_points()));
  };

  KernelResult result;
  result.name = name();
  std::vector<double> residuals{residual_rms()};
  result.values["residual_0"] = residuals[0];

  if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, 0);

  for (int iter = 1; iter <= cfg_.iterations; ++iter) {
    if (!ctl.detailed(iter)) continue;
    // --- ghost exchange: old east/south values for the lower sweep ----
    if (t.has_west()) comm.send(t.west(), kTagFaceEW, pack_x_column(t, u, 1));
    if (t.has_north()) comm.send(t.north(), kTagFaceNS, pack_y_row(t, u, 1));
    if (t.has_east())
      unpack_x_column(t, u, t.tx + 1, comm.recv(t.east(), kTagFaceEW));
    if (t.has_south())
      unpack_y_row(t, u, t.ty + 1, comm.recv(t.south(), kTagFaceNS));

    // --- lower sweep: ascending, pipelined on west/north ---------------
    for (int k = 1; k <= t.n; ++k) {
      if (t.has_west()) {
        const mpi::Payload col = comm.recv(t.west(), kTagLowerWE);
        for (int j = 1; j <= t.ty; ++j) u[t.idx(0, j, k)] = col[static_cast<std::size_t>(j - 1)];
      }
      if (t.has_north()) {
        const mpi::Payload row = comm.recv(t.north(), kTagLowerNS);
        for (int i = 1; i <= t.tx; ++i) u[t.idx(i, 0, k)] = row[static_cast<std::size_t>(i - 1)];
      }
      sweep_plane<+1>(relax, static_cast<std::ptrdiff_t>(t.idx(1, 1, k)),
                      t.tx, t.ty);
      charge_plane(comm, t, array_bytes);
      if (t.has_east()) {
        mpi::Payload col(static_cast<std::size_t>(t.ty));
        for (int j = 1; j <= t.ty; ++j) col[static_cast<std::size_t>(j - 1)] = u[t.idx(t.tx, j, k)];
        comm.send(t.east(), kTagLowerWE, std::move(col));
      }
      if (t.has_south()) {
        mpi::Payload row(static_cast<std::size_t>(t.tx));
        for (int i = 1; i <= t.tx; ++i) row[static_cast<std::size_t>(i - 1)] = u[t.idx(i, t.ty, k)];
        comm.send(t.south(), kTagLowerNS, std::move(row));
      }
    }

    // --- upper sweep: descending, pipelined on east/south --------------
    for (int k = t.n; k >= 1; --k) {
      if (t.has_east()) {
        const mpi::Payload col = comm.recv(t.east(), kTagUpperEW);
        for (int j = 1; j <= t.ty; ++j) u[t.idx(t.tx + 1, j, k)] = col[static_cast<std::size_t>(j - 1)];
      }
      if (t.has_south()) {
        const mpi::Payload row = comm.recv(t.south(), kTagUpperNS);
        for (int i = 1; i <= t.tx; ++i) u[t.idx(i, t.ty + 1, k)] = row[static_cast<std::size_t>(i - 1)];
      }
      // Mirror of the lower sweep: descending from (tx, ty).
      sweep_plane<-1>(relax,
                      static_cast<std::ptrdiff_t>(t.idx(t.tx, t.ty, k)),
                      t.tx, t.ty);
      charge_plane(comm, t, array_bytes);
      if (t.has_west()) {
        mpi::Payload col(static_cast<std::size_t>(t.ty));
        for (int j = 1; j <= t.ty; ++j) col[static_cast<std::size_t>(j - 1)] = u[t.idx(1, j, k)];
        comm.send(t.west(), kTagUpperEW, std::move(col));
      }
      if (t.has_north()) {
        mpi::Payload row(static_cast<std::size_t>(t.tx));
        for (int i = 1; i <= t.tx; ++i) row[static_cast<std::size_t>(i - 1)] = u[t.idx(i, 1, k)];
        comm.send(t.north(), kTagUpperNS, std::move(row));
      }
    }

    residuals.push_back(residual_rms());
    result.values[pas::util::strf("residual_%d", iter)] = residuals.back();

    if (ctl.probe != nullptr) comm.sample_boundary(*ctl.probe, iter);
  }

  // Deviation from the exact solution sin(pi x) sin(pi y) sin(pi z).
  double err_inf = 0.0;
  for (int i = 1; i <= t.tx; ++i) {
    for (int j = 1; j <= t.ty; ++j) {
      const double exy = sin_x[static_cast<std::size_t>(i)] *
                         sin_y[static_cast<std::size_t>(j)];
      for (int k = 1; k <= t.n; ++k) {
        const double exact = exy * sin_z[static_cast<std::size_t>(k)];
        err_inf = std::fmax(err_inf, std::fabs(u[t.idx(i, j, k)] - exact));
      }
    }
  }
  result.values["error_inf"] = comm.allreduce_max(err_inf);

  if (comm.rank() == 0 && ctl.sample_period > 1) {
    // The detailed subset is a genuine consecutive-SSOR sequence, but
    // shorter than cfg_.iterations; exactness is checked by the
    // executor's --verify-sampling re-runs, not here.
    result.verified = true;
    result.note = pas::util::strf(
        "LU sampled estimate (%d of %d iterations detailed)",
        static_cast<int>(residuals.size()) - 1, cfg_.iterations);
    return result;
  }
  if (comm.rank() == 0) {
    bool monotone = true;
    for (std::size_t i = 1; i < residuals.size(); ++i)
      monotone = monotone && residuals[i] < residuals[i - 1];
    // SSOR contracts the residual by a per-iteration factor well below
    // 0.95 at sensible omega; require at least that much progress.
    const bool converging =
        residuals.back() <
        residuals.front() * std::pow(0.95, cfg_.iterations);
    result.verified = monotone && converging;
    if (result.verified) {
      result.note = pas::util::strf("residual %.3g -> %.3g over %d iters",
                                    residuals.front(), residuals.back(),
                                    cfg_.iterations);
    } else {
      result.note = pas::util::strf(
          "weak convergence: monotone=%d, residual %.3g -> %.3g",
          monotone ? 1 : 0, residuals.front(), residuals.back());
    }
  }
  return result;
}

}  // namespace pas::npb
