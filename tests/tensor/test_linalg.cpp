#include "tensor/linalg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/random.hpp"

namespace spdkfac::tensor {
namespace {

TEST(Cholesky, KnownFactorization) {
  // A = L L^T with L = [[2,0],[1,3]] -> A = [[4,2],[2,10]].
  Matrix a{{4, 2}, {2, 10}};
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_DOUBLE_EQ(chol->lower(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(chol->lower(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(chol->lower(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(chol->lower(0, 1), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, SolveRecoversKnownVector) {
  Rng rng(3);
  Matrix a = random_spd(6, rng);
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  std::vector<double> x_true{1, -1, 2, 0.5, -3, 4};
  const auto b = matvec(a, x_true);
  const auto x = chol->solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Cholesky, SolveMatrixRecoversIdentity) {
  Rng rng(5);
  Matrix a = random_spd(5, rng);
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  Matrix x = chol->solve(Matrix::identity(5));
  EXPECT_TRUE(allclose(matmul(a, x), Matrix::identity(5), 1e-8, 1e-8));
}

TEST(Cholesky, LogDetMatchesDiagonalProduct) {
  Matrix a{{4, 0}, {0, 9}};
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_NEAR(chol->log_det(), std::log(36.0), 1e-12);
}

TEST(SpdInverse, InverseOfIdentityIsIdentity) {
  EXPECT_TRUE(allclose(spd_inverse(Matrix::identity(4)),
                       Matrix::identity(4)));
}

TEST(SpdInverse, DiagonalMatrix) {
  Matrix a{{2, 0}, {0, 5}};
  Matrix inv = spd_inverse(a);
  EXPECT_NEAR(inv(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.2, 1e-12);
  EXPECT_NEAR(inv(0, 1), 0.0, 1e-12);
}

TEST(SpdInverse, ThrowsOnIndefinite) {
  Matrix a{{0, 0}, {0, 0}};
  EXPECT_THROW(spd_inverse(a), std::domain_error);
}

TEST(SpdInverse, ResultIsExactlySymmetric) {
  Rng rng(9);
  Matrix inv = spd_inverse(random_spd(20, rng));
  for (std::size_t i = 0; i < inv.rows(); ++i) {
    for (std::size_t j = 0; j < inv.cols(); ++j) {
      EXPECT_EQ(inv(i, j), inv(j, i));
    }
  }
}

// Bitwise reference for cholesky() and spd_inverse(): the per-column
// formulation, serial — one dot() per l(i, j), then forward and back sweeps
// of 1-row gemm_nn updates over 64-column blocks.  The library regroups
// this work onto register tiles (a gemm_nt row per Cholesky column chunk,
// wide single-row GEMM tiles for the sweeps) and must keep every bit.
Matrix reference_cholesky(const Matrix& a,
                          const kernels::KernelTable& kt) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l.row_ptr(j);
    const double ljj = std::sqrt(a(j, j) - kt.dot(lj, lj, j));
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      l(i, j) = (a(i, j) - kt.dot(l.row_ptr(i), lj, j)) / ljj;
    }
  }
  return l;
}

Matrix reference_spd_inverse(const Matrix& lower,
                             const kernels::KernelTable& kt) {
  const std::size_t n = lower.rows();
  const Matrix upper = lower.transposed();
  Matrix inv = Matrix::identity(n);
  std::vector<double> neg(n);
  for (std::size_t b0 = 0; b0 < n; b0 += 64) {
    const std::size_t w = std::min(n, b0 + 64) - b0;
    for (std::size_t i = b0; i < n; ++i) {
      const double* li = lower.row_ptr(i);
      double* yi = inv.row_ptr(i) + b0;
      for (std::size_t k = 0; k < i - b0; ++k) neg[k] = -li[b0 + k];
      kt.gemm_nn(1, i - b0, w, neg.data(), n, inv.row_ptr(b0) + b0, n, yi,
                 n);
      kt.scale(yi, w, 1.0 / li[i]);
    }
    for (std::size_t i = n; i-- > 0;) {
      const double* ui = upper.row_ptr(i);
      double* xi = inv.row_ptr(i) + b0;
      for (std::size_t k = 0; k + i + 1 < n; ++k) neg[k] = -ui[i + 1 + k];
      kt.gemm_nn(1, n - i - 1, w, neg.data(), n, inv.row_ptr(i + 1) + b0, n,
                 xi, n);
      kt.scale(xi, w, 1.0 / ui[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (inv(i, j) + inv(j, i));
      inv(i, j) = avg;
      inv(j, i) = avg;
    }
  }
  return inv;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size() * sizeof(double)) == 0;
}

TEST(SpdInverse, BitwiseMatchesPerColumnReference) {
  std::vector<kernels::Isa> levels{kernels::Isa::kScalar};
  if (kernels::supported(kernels::Isa::kAvx2)) {
    levels.push_back(kernels::Isa::kAvx2);
  }
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 9; ++n) sizes.push_back(n);
  for (std::size_t c : {32, 64, 256}) {
    for (std::size_t n = c - 1; n <= c + 1; ++n) sizes.push_back(n);
  }
  sizes.push_back(300);

  const kernels::Isa before = kernels::active();
  for (const kernels::Isa level : levels) {
    kernels::force(level);
    const kernels::KernelTable& kt = kernels::table(level);
    for (const std::size_t n : sizes) {
      Rng rng(static_cast<unsigned>(n) + 17);
      const Matrix a = random_spd(n, rng);
      const Matrix want_lower = reference_cholesky(a, kt);
      const Matrix want_inv = reference_spd_inverse(want_lower, kt);
      for (const std::size_t workers : {0, 1, 3}) {
        exec::ThreadPool pool(workers);
        exec::Context ctx(&pool);
        std::string where = kernels::to_string(level);
        where += " n=";
        where += std::to_string(n);
        where += " workers=";
        where += std::to_string(workers);
        const auto chol = cholesky(a);
        ASSERT_TRUE(chol.has_value()) << where;
        EXPECT_TRUE(bitwise_equal(chol->lower, want_lower)) << where;
        EXPECT_TRUE(bitwise_equal(spd_inverse(a), want_inv)) << where;
      }
    }
  }
  kernels::force(before);
}

TEST(DampedInverse, MatchesManualDamping) {
  Rng rng(21);
  Matrix a = random_spd(8, rng);
  Matrix damped = a;
  damped.add_diagonal(0.3);
  EXPECT_TRUE(allclose(damped_inverse(a, 0.3), spd_inverse(damped)));
}

TEST(DampedInverse, DampingRescuesSingularMatrix) {
  Matrix a(4, 4);  // zero matrix: singular, but A + gamma I is SPD
  Matrix inv = damped_inverse(a, 0.5);
  EXPECT_TRUE(allclose(inv, Matrix::identity(4) * 2.0));
}

TEST(IsSymmetric, DetectsAsymmetry) {
  Matrix a{{1, 2}, {2.1, 1}};
  EXPECT_FALSE(is_symmetric(a, 1e-3));
  EXPECT_TRUE(is_symmetric(a, 0.2));
  EXPECT_FALSE(is_symmetric(Matrix(2, 3)));
}

TEST(Symmetrize, AveragesOffDiagonals) {
  Matrix a{{1, 2}, {4, 1}};
  symmetrize(a);
  EXPECT_EQ(a(0, 1), 3.0);
  EXPECT_EQ(a(1, 0), 3.0);
}

TEST(SpdInverseFlops, Cubic) {
  EXPECT_DOUBLE_EQ(spd_inverse_flops(10), 1000.0);
}

TEST(SymmetricEigen, DiagonalMatrixEigenvaluesSorted) {
  Matrix a{{5, 0, 0}, {0, 1, 0}, {0, 0, 3}};
  const SymmetricEigen eigen = symmetric_eigen(a);
  ASSERT_EQ(eigen.eigenvalues.size(), 3u);
  EXPECT_NEAR(eigen.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[2], 5.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  const SymmetricEigen eigen = symmetric_eigen(a);
  EXPECT_NEAR(eigen.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsAndOrthonormal) {
  Rng rng(101);
  const Matrix a = random_spd(24, rng);
  const SymmetricEigen eigen = symmetric_eigen(a);
  // Q^T Q = I.
  EXPECT_TRUE(allclose(matmul_tn(eigen.eigenvectors, eigen.eigenvectors),
                       Matrix::identity(24), 1e-9, 1e-9));
  // Q diag(lambda) Q^T = A.
  Matrix scaled = eigen.eigenvectors;
  for (std::size_t j = 0; j < 24; ++j) {
    for (std::size_t i = 0; i < 24; ++i) {
      scaled(i, j) *= eigen.eigenvalues[j];
    }
  }
  EXPECT_TRUE(allclose(matmul_nt(scaled, eigen.eigenvectors), a, 1e-8, 1e-9));
}

TEST(SymmetricEigen, DampedInverseMatchesCholeskyPath) {
  Rng rng(103);
  const Matrix a = random_spd(16, rng);
  const Matrix via_eigen = symmetric_eigen(a).damped_inverse(0.2);
  const Matrix via_chol = damped_inverse(a, 0.2);
  EXPECT_TRUE(allclose(via_eigen, via_chol, 1e-8, 1e-10));
}

TEST(SymmetricEigen, OneDecompositionServesManyDampings) {
  // The amortization property real K-FAC systems exploit.
  Rng rng(107);
  const Matrix a = random_spd(10, rng);
  const SymmetricEigen eigen = symmetric_eigen(a);
  for (double gamma : {1e-3, 1e-1, 1.0}) {
    EXPECT_TRUE(allclose(eigen.damped_inverse(gamma),
                         damped_inverse(a, gamma), 1e-8, 1e-10))
        << gamma;
  }
}

TEST(SymmetricEigen, IndefiniteMatrixStillDecomposes) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues -1, 3
  const SymmetricEigen eigen = symmetric_eigen(a);
  EXPECT_NEAR(eigen.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 3.0, 1e-12);
  // Damping must rescue it only when gamma > 1.
  EXPECT_THROW(eigen.damped_inverse(0.5), std::domain_error);
  const Matrix inv = eigen.damped_inverse(2.0);
  Matrix damped = a;
  damped.add_diagonal(2.0);
  EXPECT_TRUE(allclose(matmul(damped, inv), Matrix::identity(2), 1e-10,
                       1e-10));
}

TEST(SymmetricEigen, RejectsNonSquare) {
  EXPECT_THROW(symmetric_eigen(Matrix(2, 3)), std::invalid_argument);
}

TEST(SymmetricEigen, SizeOneMatrix) {
  Matrix a{{4.0}};
  const SymmetricEigen eigen = symmetric_eigen(a);
  EXPECT_DOUBLE_EQ(eigen.eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(eigen.damped_inverse(1.0)(0, 0), 0.2);
}

// Property sweep: inverse really inverts across sizes and conditioning.
class SpdInverseProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SpdInverseProperty, ProductWithInverseIsIdentity) {
  const auto [n, jitter] = GetParam();
  Rng rng(static_cast<unsigned>(n * 1000 + jitter * 10));
  Matrix a = random_spd(n, rng, jitter);
  Matrix inv = spd_inverse(a);
  EXPECT_TRUE(allclose(matmul(a, inv), Matrix::identity(n), 1e-6, 1e-6))
      << "n=" << n << " jitter=" << jitter;
}

TEST_P(SpdInverseProperty, CholeskyReconstructs) {
  const auto [n, jitter] = GetParam();
  Rng rng(static_cast<unsigned>(n * 77 + 5));
  Matrix a = random_spd(n, rng, jitter);
  auto chol = cholesky(a);
  ASSERT_TRUE(chol.has_value());
  Matrix recon = matmul_nt(chol->lower, chol->lower);
  EXPECT_TRUE(allclose(recon, a, 1e-9, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SpdInverseProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16, 33, 64),
                       ::testing::Values(1e-3, 0.1, 1.0)));

}  // namespace
}  // namespace spdkfac::tensor
