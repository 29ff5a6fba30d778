#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/context.hpp"
#include "exec/grain.hpp"
#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor {

namespace {

/// Shape-only chunking (see exec/grain.hpp): ~64k inner ops per chunk, so
/// the kernels stay bitwise-deterministic across pool sizes and serial for
/// small factors.
std::size_t items_per_chunk(std::size_t ops_per_item) noexcept {
  return exec::grain_for_ops(ops_per_item);
}

}  // namespace

void Cholesky::solve_lower(std::span<double> b) const {
  const std::size_t n = lower.rows();
  const auto& kt = kernels::active_table();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lower.row_ptr(i);
    b[i] = (b[i] - kt.dot(li, b.data(), i)) / li[i];
  }
}

void Cholesky::solve_upper(std::span<double> b) const {
  const std::size_t n = lower.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    // Traverse column ii of L below the diagonal, i.e. row entries L(k, ii).
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lower(k, ii) * b[k];
    b[ii] = sum / lower(ii, ii);
  }
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_lower(x);
  solve_upper(x);
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  if (b.rows() != lower.rows()) {
    throw std::invalid_argument("Cholesky::solve shape mismatch");
  }
  Matrix x = b.transposed();  // iterate columns of b contiguously
  for (std::size_t c = 0; c < x.rows(); ++c) {
    std::span<double> col(x.row_ptr(c), x.cols());
    solve_lower(col);
    solve_upper(col);
  }
  return x.transposed();
}

double Cholesky::log_det() const noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < lower.rows(); ++i) {
    s += std::log(lower(i, i));
  }
  return 2.0 * s;
}

std::optional<Cholesky> cholesky(const Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("cholesky requires a square matrix");
  }
  const std::size_t n = a.rows();
  const auto& kt = kernels::active_table();
  Matrix l(n, n);
  std::vector<double> scratch(n);  // chunk [s0, s1) owns [s0, s1)
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l.row_ptr(j);
    const double diag = a(j, j) - kt.dot(lj, lj, j);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    // The column update below the diagonal is embarrassingly parallel: each
    // l(i, j) reads only finished rows.  A chunk computes its inner
    // products dot(l_j, l_i) over the finished prefix [0, j) as one gemm_nt
    // row against its block of rows, whose 1x4 tiles share each l_j load
    // across four rows and follow dot()'s recipe exactly; the products
    // commute, so this is dot(l_i, l_j) bit for bit.  The -0.0 prefill
    // makes the kernel's c += s exact (-0.0 + s == s for every s).  The
    // chunk is floored at 4 rows so every chunk reaches a full tile.
    exec::parallel_for(
        n - j - 1, std::max<std::size_t>(items_per_chunk(j + 1), 4),
        [&, j, ljj](std::size_t s0, std::size_t s1) {
          double* s = scratch.data() + s0;
          std::fill(s, s + (s1 - s0), -0.0);
          kt.gemm_nt(1, j, s1 - s0, lj, n, l.row_ptr(j + 1 + s0), n, s, 1);
          for (std::size_t t = 0; t < s1 - s0; ++t) {
            const std::size_t i = j + 1 + s0 + t;
            l(i, j) = (a(i, j) - s[t]) / ljj;
          }
        });
  }
  return Cholesky{std::move(l)};
}

Matrix spd_inverse(const Matrix& a) {
  auto chol = cholesky(a);
  if (!chol) {
    throw std::domain_error("spd_inverse: matrix is not positive definite");
  }
  const std::size_t n = a.rows();
  // Invert by solving A X = I with two *multi-RHS* triangular sweeps: each
  // chunk owns a range of identity columns and sweeps the rows of L (then
  // of U = L^T) once, updating its whole column block per row with one
  // 1-row gemm_nn — the same O(n^3) flops as per-column solves, but
  // unit-stride FMA across the block width on gemm_nn's wide single-row
  // tiles instead of short sequential dot products.
  //
  // Determinism: an output element (i, j) accumulates its k terms in
  // ascending order no matter how columns are chunked or blocked — the
  // forward sweep's update widths reach column j only for k >= j, the k
  // loops run ascending, and gemm_nn/scale round per element independent
  // of tile or lane position — so results stay bitwise identical across
  // pool sizes (within an ISA level), as the determinism suite requires.
  // The back sweep cannot be register-blocked over rows without breaking
  // this: a row's in-block terms come *first* in its ascending k order.
  const Matrix upper = chol->lower.transposed();
  const auto& kt = kernels::active_table();
  Matrix inv(n, n);
  for (std::size_t j = 0; j < n; ++j) inv(j, j) = 1.0;
  // Column blocks of kBlock keep a sweep's working set (n rows x block
  // width) L2-resident while amortizing kernel-call overhead over
  // full-width row updates.  The chunk grain is floored at kBlock: narrower
  // chunks would degrade the sweeps to short-vector updates, and the
  // per-element accumulation order is block-width-invariant anyway.
  constexpr std::size_t kBlock = 64;
  exec::parallel_for(
      n, std::max(items_per_chunk(2 * n * n), kBlock),
      [&](std::size_t j0, std::size_t j1) {
        // Each row update is a 1-row GEMM with the negated L/U row as the
        // coefficient vector: the destination row rides in registers
        // across the whole k sweep instead of being re-loaded per k, and
        // gemm_nn's k-ascending per-element order makes the bits equal to
        // a row-update-per-k formulation (negation is exact).  Updates past a
        // row's triangular frontier multiply exact zeros of Y, which
        // leaves every element's bits untouched.
        std::vector<double> neg(n);
        for (std::size_t b0 = j0; b0 < j1; b0 += kBlock) {
          const std::size_t b1 = std::min(j1, b0 + kBlock);
          const std::size_t w = b1 - b0;
          // Forward sweep: Y = L^{-1} I over columns [b0, b1).  Y is lower
          // triangular, so rows above b0 stay zero.
          for (std::size_t i = b0; i < n; ++i) {
            const double* li = chol->lower.row_ptr(i);
            double* yi = inv.row_ptr(i) + b0;
            const std::size_t K = i - b0;
            for (std::size_t k = 0; k < K; ++k) neg[k] = -li[b0 + k];
            kt.gemm_nn(1, K, w, neg.data(), n, inv.row_ptr(b0) + b0, n, yi,
                       n);
            kt.scale(yi, w, 1.0 / li[i]);
          }
          // Back sweep: X = U^{-1} Y, rows descending, full block width.
          for (std::size_t i = n; i-- > 0;) {
            const double* ui = upper.row_ptr(i);
            double* xi = inv.row_ptr(i) + b0;
            const std::size_t K = n - i - 1;
            for (std::size_t k = 0; k < K; ++k) neg[k] = -ui[i + 1 + k];
            kt.gemm_nn(1, K, w, neg.data(), n, inv.row_ptr(i + 1) + b0, n,
                       xi, n);
            kt.scale(xi, w, 1.0 / ui[i]);
          }
        }
      });
  symmetrize(inv);
  return inv;
}

Matrix damped_inverse(const Matrix& a, double damping) {
  Matrix damped = a;
  damped.add_diagonal(damping);
  return spd_inverse(damped);
}

bool is_symmetric(const Matrix& a, double tol) noexcept {
  if (!a.square()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - a(j, i)) > tol) return false;
    }
  }
  return true;
}

void symmetrize(Matrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("symmetrize requires a square matrix");
  }
  // Each unordered pair {i, j} is owned by the chunk containing min(i, j),
  // so chunks write disjoint element sets.  0.5*(x+y) is elementwise, so
  // every ISA level produces identical bits here.
  const auto& kt = kernels::active_table();
  exec::parallel_for(a.rows(), items_per_chunk(a.cols()),
                     [&](std::size_t r0, std::size_t r1) {
                       kt.symmetrize_rows(a.row_ptr(0), a.rows(), a.cols(),
                                          r0, r1);
                     });
}

double spd_inverse_flops(std::size_t n) noexcept {
  const double nd = static_cast<double>(n);
  return nd * nd * nd;
}

Matrix SymmetricEigen::damped_inverse(double damping) const {
  const std::size_t n = eigenvalues.size();
  // Validate serially (throwing out of a pool chunk is not allowed), then
  // build Q * diag(1/(lambda+damping)) in parallel row blocks; the
  // reconstruction GEMM and symmetrize parallelize internally.
  std::vector<double> inv_denoms(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double denom = eigenvalues[j] + damping;
    if (denom <= 0.0 || !std::isfinite(denom)) {
      throw std::domain_error(
          "SymmetricEigen::damped_inverse: non-positive damped eigenvalue");
    }
    inv_denoms[j] = 1.0 / denom;
  }
  Matrix scaled(n, n);  // Q * diag(1/(lambda+damping))
  exec::parallel_for(n, items_per_chunk(n),
                     [&](std::size_t r0, std::size_t r1) {
                       for (std::size_t i = r0; i < r1; ++i) {
                         for (std::size_t j = 0; j < n; ++j) {
                           scaled(i, j) = eigenvectors(i, j) * inv_denoms[j];
                         }
                       }
                     });
  Matrix result = matmul_nt(scaled, eigenvectors);
  symmetrize(result);
  return result;
}

SymmetricEigen symmetric_eigen(const Matrix& a, int max_sweeps, double tol) {
  if (!a.square()) {
    throw std::invalid_argument("symmetric_eigen requires a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix m = a;
  symmetrize(m);
  Matrix q = Matrix::identity(n);

  // Parallel sweep-convergence check with a deterministic reduction: chunk
  // partial sums land in fixed slots and combine in chunk order, so the
  // result never depends on the pool size.  (The rotations themselves stay
  // serial — cyclic Jacobi is sequentially dependent rotation to rotation.)
  auto off_diagonal_norm = [&m, n] {
    const std::size_t chunk = items_per_chunk(n);
    const std::size_t nchunks = (n + chunk - 1) / chunk;
    std::vector<double> partial(std::max<std::size_t>(nchunks, 1), 0.0);
    exec::parallel_for(n, chunk, [&](std::size_t r0, std::size_t r1) {
      double s = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) s += m(i, j) * m(i, j);
      }
      partial[r0 / chunk] = s;
    });
    double s = 0.0;
    for (double p : partial) s += p;
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(m.max_abs(), 1.0);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol * scale * n) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q_idx = p + 1; q_idx < n; ++q_idx) {
        const double apq = m(p, q_idx);
        if (std::abs(apq) <= tol * scale) continue;
        // Classic Jacobi rotation annihilating m(p, q).
        const double theta = (m(q_idx, q_idx) - m(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p), mkq = m(k, q_idx);
          m(k, p) = c * mkp - s * mkq;
          m(k, q_idx) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k), mqk = m(q_idx, k);
          m(p, k) = c * mpk - s * mqk;
          m(q_idx, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q(k, p), qkq = q(k, q_idx);
          q(k, p) = c * qkp - s * qkq;
          q(k, q_idx) = s * qkp + c * qkq;
        }
      }
    }
  }

  SymmetricEigen eigen;
  eigen.eigenvalues.resize(n);
  for (std::size_t i = 0; i < n; ++i) eigen.eigenvalues[i] = m(i, i);

  // Sort ascending, permuting the eigenvector columns accordingly.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&eigen](std::size_t x,
                                                 std::size_t y) {
    return eigen.eigenvalues[x] < eigen.eigenvalues[y];
  });
  SymmetricEigen sorted;
  sorted.eigenvalues.resize(n);
  sorted.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted.eigenvalues[j] = eigen.eigenvalues[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted.eigenvectors(i, j) = q(i, order[j]);
    }
  }
  return sorted;
}

}  // namespace spdkfac::tensor
