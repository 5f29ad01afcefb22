// Cross-cutting property suites for the numeric toolbox.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/nls.hpp"
#include "numeric/hungarian.hpp"
#include "numeric/linalg.hpp"
#include "numeric/stats.hpp"
#include "../support/nnls_oracle.hpp"

namespace fluxfp::numeric {
namespace {

class NumericProperty : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937_64 rng{static_cast<unsigned long>(GetParam())};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::uniform_real_distribution<double> sym{-1.0, 1.0};
};

TEST_P(NumericProperty, NnlsIsScaleEquivariant) {
  // Scaling b by c > 0 scales the NNLS solution and residual by c. The
  // solver is the Gram-space one; both fits carry a KKT certificate.
  const std::size_t n = 10, k = 3;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = sym(rng);
    }
    b[r] = sym(rng);
  }
  const double scale = 0.5 + 4.0 * unit(rng);
  std::vector<double> b_scaled(n);
  for (std::size_t r = 0; r < n; ++r) {
    b_scaled[r] = scale * b[r];
  }
  const core::StretchFit base = nnls_oracle::gram_nnls(a, b);
  const core::StretchFit scaled = nnls_oracle::gram_nnls(a, b_scaled);
  EXPECT_TRUE(nnls_oracle::kkt_certificate(a, b, base.stretches, 1e-6));
  EXPECT_TRUE(
      nnls_oracle::kkt_certificate(a, b_scaled, scaled.stretches, 1e-6));
  EXPECT_NEAR(scaled.residual, scale * base.residual, 1e-6);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR(scaled.stretches[c], scale * base.stretches[c], 1e-5);
  }
}

TEST_P(NumericProperty, NnlsResidualNeverWorseThanZeroSolution) {
  const std::size_t n = 8, k = 4;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = sym(rng);
    }
    b[r] = sym(rng);
  }
  const core::StretchFit res = nnls_oracle::gram_nnls(a, b);
  EXPECT_LE(res.residual, norm(b) + 1e-12);
  EXPECT_LE(nnls_oracle::residual_on(a, b, res.stretches), norm(b) + 1e-12);
  EXPECT_NEAR(res.residual, nnls_oracle::exhaustive_nnls(a, b).residual,
              1e-9);
}

TEST_P(NumericProperty, QrMatchesNormalEquations) {
  // For well-conditioned overdetermined systems, QR least squares and the
  // normal-equations Cholesky solution agree.
  const std::size_t n = 12, k = 3;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = sym(rng);
    }
    b[r] = sym(rng);
  }
  const auto qr = qr_least_squares(a, b);
  ASSERT_TRUE(qr.has_value());
  const Matrix at = a.transposed();
  Matrix ata = at * a;
  for (std::size_t i = 0; i < k; ++i) {
    ata(i, i) += 1e-12;  // guard against a freak singular draw
  }
  const auto ne = cholesky_solve(ata, at * b);
  ASSERT_TRUE(ne.has_value());
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR((*qr)[c], (*ne)[c], 1e-6);
  }
}

TEST_P(NumericProperty, HungarianInvariantUnderColumnPermutation) {
  const std::size_t n = 5;
  Matrix cost(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      cost(r, c) = unit(rng);
    }
  }
  const double base =
      assignment_cost(cost, hungarian_assign(cost));
  // Permute columns: the optimal total cost is unchanged.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  std::shuffle(perm.begin(), perm.end(), rng);
  Matrix shuffled(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      shuffled(r, c) = cost(r, perm[c]);
    }
  }
  const double permuted =
      assignment_cost(shuffled, hungarian_assign(shuffled));
  EXPECT_NEAR(base, permuted, 1e-9);
}

TEST_P(NumericProperty, CdfQuantileRoundTrip) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(sym(rng) * 10.0);
  }
  const EmpiricalCdf cdf(xs);
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double q = cdf.quantile(p);
    EXPECT_GE(cdf.evaluate(q), p - 1e-12);
  }
}

TEST_P(NumericProperty, PercentileBounds) {
  std::vector<double> xs;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(sym(rng) * 5.0);
  }
  const double lo = min_value(xs);
  const double hi = max_value(xs);
  for (double p : {0.0, 0.3, 0.6, 1.0}) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, lo - 1e-12);
    EXPECT_LE(v, hi + 1e-12);
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), lo);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), hi);
}

TEST_P(NumericProperty, CholeskyReconstruction) {
  // Solve then verify A x == b.
  const std::size_t n = 5;
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = sym(rng);
    }
  }
  Matrix a = m.transposed() * m;
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 1.0;
  }
  std::vector<double> b(n);
  for (auto& v : b) {
    v = sym(rng);
  }
  const auto x = cholesky_solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(residual_norm(a, *x, b), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace fluxfp::numeric
