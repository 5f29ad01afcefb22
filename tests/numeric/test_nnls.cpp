#include "numeric/nnls.hpp"

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "core/flux_model.hpp"
#include "core/nls.hpp"
#include "geom/field.hpp"
#include "numeric/linalg.hpp"
#include "../support/nnls_oracle.hpp"

namespace fluxfp::numeric {
namespace {

// Fits of two or more columns go through the Gram-space solver
// (core::nnls_from_gram); these cases pin its answers on small dense
// problems against qr_least_squares, closed forms and a KKT certificate
// computed from A.
using nnls_oracle::gram_nnls;

TEST(NnlsSingle, PositiveOptimum) {
  // min_s ||s*(1,1) - (2,2)|| -> s = 2.
  const std::vector<double> f{1, 1};
  const std::vector<double> b{2, 2};
  EXPECT_DOUBLE_EQ(nnls_single(f, b), 2.0);
}

TEST(NnlsSingle, ClampsNegativeOptimumToZero) {
  const std::vector<double> f{1, 1};
  const std::vector<double> b{-2, -2};
  EXPECT_DOUBLE_EQ(nnls_single(f, b), 0.0);
}

TEST(NnlsSingle, ZeroColumn) {
  const std::vector<double> f{0, 0};
  const std::vector<double> b{1, 2};
  EXPECT_DOUBLE_EQ(nnls_single(f, b), 0.0);
}

TEST(Nnls, UnconstrainedInteriorSolution) {
  // Well-conditioned with positive solution: NNLS == plain LS.
  const Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const std::vector<double> b{1, 2, 3};
  const core::StretchFit r = gram_nnls(a, b);
  const auto ls = qr_least_squares(a, b);
  ASSERT_TRUE(ls.has_value());
  EXPECT_NEAR(r.stretches[0], (*ls)[0], 1e-9);
  EXPECT_NEAR(r.stretches[1], (*ls)[1], 1e-9);
}

TEST(Nnls, ActiveConstraintZerosOutColumn) {
  // b points along -col1 direction; optimal s1 = 0.
  const Matrix a{{1, 0}, {0, 1}};
  const core::StretchFit r = gram_nnls(a, {-5, 3});
  EXPECT_DOUBLE_EQ(r.stretches[0], 0.0);
  EXPECT_NEAR(r.stretches[1], 3.0, 1e-9);
  EXPECT_NEAR(r.residual, 5.0, 1e-9);
}

TEST(Nnls, AllZeroWhenBNegativeOrthant) {
  const Matrix a{{1, 0}, {0, 1}};
  const core::StretchFit r = gram_nnls(a, {-1, -2});
  EXPECT_DOUBLE_EQ(r.stretches[0], 0.0);
  EXPECT_DOUBLE_EQ(r.stretches[1], 0.0);
  EXPECT_NEAR(r.residual, norm({-1, -2}), 1e-12);
}

TEST(Nnls, SingleColumnFastPathMatchesGeneral) {
  // fit_columns' closed form (nnls_single) and the Gram-space solve agree
  // on one column.
  const Matrix a{{2}, {1}, {3}};
  const std::vector<double> b{4, 2, 6};
  const core::StretchFit r = gram_nnls(a, b);
  ASSERT_EQ(r.stretches.size(), 1u);
  EXPECT_NEAR(r.stretches[0], 2.0, 1e-12);
  EXPECT_NEAR(r.residual, 0.0, 1e-7);
  const std::vector<double> f{2, 1, 3};
  EXPECT_NEAR(nnls_single(f, b), r.stretches[0], 1e-12);
}

TEST(Nnls, DimensionMismatchThrows) {
  // A Gram or c of the wrong size, or a column of the wrong length, is
  // refused, not solved.
  const std::vector<double> g{1, 0, 0, 1};
  const std::vector<double> c{1, 2};
  EXPECT_THROW(core::nnls_from_gram(g, 3, c, 5.0), std::invalid_argument);
  EXPECT_THROW(core::nnls_from_gram(g, 2, std::vector<double>{1}, 5.0),
               std::invalid_argument);
  EXPECT_NO_THROW(core::nnls_from_gram(g, 2, c, 5.0));
  const geom::RectField field(10.0, 10.0);
  const core::SparseObjective obj(core::FluxModel(field, 1.0),
                                  std::vector<geom::Vec2>{{1, 1}, {5, 5}},
                                  std::vector<double>{1.0, 2.0});
  const std::vector<double> good{1.0, 1.0};
  const std::vector<double> short_col{1.0};
  const std::vector<std::span<const double>> cols{good, short_col};
  EXPECT_THROW(obj.fit_columns(cols), std::invalid_argument);
}

TEST(Nnls, RecoverExactNonnegativeCombination) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t n = 20;
  const std::size_t k = 4;
  Matrix a(n, k);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = u(rng);
    }
  }
  const std::vector<double> truth{1.5, 0.0, 2.25, 0.75};
  const std::vector<double> b = a * truth;
  const core::StretchFit r = gram_nnls(a, b);
  ASSERT_EQ(r.stretches.size(), k);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR(r.stretches[c], truth[c], 1e-6) << "column " << c;
  }
  // On A the fit is exact; the Gram-space residual b2 - 2 s^T c + s^T G s
  // cancels to within sqrt(eps) * ||b||.
  EXPECT_NEAR(nnls_oracle::residual_on(a, b, r.stretches), 0.0, 1e-8);
  EXPECT_NEAR(r.residual, 0.0, 1e-7 * norm(b));
}

// Property: NNLS solutions satisfy the KKT conditions, and for k <= 6 they
// are the optimum over every support.
class NnlsKkt : public ::testing::TestWithParam<int> {};

TEST_P(NnlsKkt, SolutionSatisfiesKkt) {
  std::mt19937_64 rng(static_cast<unsigned long>(GetParam()));
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t n = 12;
  const std::size_t k = 3;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = u(rng);
    }
    b[r] = u(rng);
  }
  const core::StretchFit r = gram_nnls(a, b);
  EXPECT_TRUE(nnls_oracle::kkt_certificate(a, b, r.stretches, 1e-6));
  const nnls_oracle::Optimum best = nnls_oracle::exhaustive_nnls(a, b);
  EXPECT_NEAR(r.residual, best.residual, 1e-9);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(r.stretches[j], best.s[j], 1e-6) << "column " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnlsKkt, ::testing::Range(0, 30));

}  // namespace
}  // namespace fluxfp::numeric
