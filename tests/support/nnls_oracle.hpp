// Test-local NNLS references that need no active-set solver of their own:
// a KKT certificate computed from A itself and, for k <= 6, the optimum
// over every support by Householder QR. The solver under test is the
// Gram-space one (core::nnls_from_gram), fed the normal equations of A.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/nls.hpp"
#include "numeric/linalg.hpp"
#include "numeric/matrix.hpp"

namespace fluxfp::nnls_oracle {

/// min ||A s - b|| over s >= 0 by core::nnls_from_gram on G = A^T A,
/// c = A^T b and b2 = ||b||^2, each summed serially in row order.
inline core::StretchFit gram_nnls(const numeric::Matrix& a,
                                  const std::vector<double>& b) {
  const std::size_t k = a.cols();
  std::vector<double> g(k * k, 0.0);
  std::vector<double> c(k, 0.0);
  double b2 = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    b2 += b[r] * b[r];
    for (std::size_t i = 0; i < k; ++i) {
      c[i] += a(r, i) * b[r];
      for (std::size_t j = 0; j < k; ++j) {
        g[i * k + j] += a(r, i) * a(r, j);
      }
    }
  }
  return core::nnls_from_gram(g, k, c, b2);
}

/// ||A s - b||, evaluated on A.
inline double residual_on(const numeric::Matrix& a,
                          const std::vector<double>& b,
                          const std::vector<double>& s) {
  return numeric::residual_norm(a, s, b);
}

/// KKT certificate of s for min ||A s - b|| over s >= 0, with the gradient
/// w = A^T (b - A s) computed from A: s >= 0, w_j <= tol off the support
/// (s_j == 0) and |w_j| <= tol on it.
inline ::testing::AssertionResult kkt_certificate(
    const numeric::Matrix& a, const std::vector<double>& b,
    const std::vector<double>& s, double tol) {
  if (s.size() != a.cols()) {
    return ::testing::AssertionFailure()
           << s.size() << " stretches for " << a.cols() << " columns";
  }
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double w = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      double as = 0.0;
      for (std::size_t t = 0; t < a.cols(); ++t) {
        as += a(r, t) * s[t];
      }
      w += a(r, j) * (b[r] - as);
    }
    if (!(s[j] >= 0.0)) {
      return ::testing::AssertionFailure()
             << "s[" << j << "] = " << s[j] << " is negative";
    }
    if (s[j] > 0.0 ? !(std::abs(w) <= tol) : !(w <= tol)) {
      return ::testing::AssertionFailure()
             << "gradient " << w << " at column " << j << " ("
             << (s[j] > 0.0 ? "on" : "off") << " the support) breaks tol "
             << tol;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The NNLS optimum for k <= 6 by enumeration: the unconstrained least
/// squares (qr_least_squares) on every support, and the smallest residual
/// among the solutions with no negative entry. The global optimum's
/// support is among them, so this is the global optimum.
struct Optimum {
  std::vector<double> s;
  double residual = 0.0;
};

inline Optimum exhaustive_nnls(const numeric::Matrix& a,
                               const std::vector<double>& b) {
  const std::size_t k = a.cols();
  Optimum best{std::vector<double>(k, 0.0), numeric::norm(b)};
  for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << k); ++mask) {
    std::vector<std::size_t> idx;
    for (std::size_t j = 0; j < k; ++j) {
      if (mask & (std::uint32_t{1} << j)) {
        idx.push_back(j);
      }
    }
    numeric::Matrix sub(a.rows(), idx.size());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t t = 0; t < idx.size(); ++t) {
        sub(r, t) = a(r, idx[t]);
      }
    }
    const auto z = numeric::qr_least_squares(sub, b);
    if (!z || std::any_of(z->begin(), z->end(),
                          [](double v) { return v < 0.0; })) {
      continue;
    }
    std::vector<double> s(k, 0.0);
    for (std::size_t t = 0; t < idx.size(); ++t) {
      s[idx[t]] = (*z)[t];
    }
    const double residual = residual_on(a, b, s);
    if (residual < best.residual) {
      best = {s, residual};
    }
  }
  return best;
}

}  // namespace fluxfp::nnls_oracle
