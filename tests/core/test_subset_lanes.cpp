// Oracle suite for the lane-batched subset-enumeration NNLS (k <= 6).
//
// ConditionalFit scores lane_count() candidates per subset_nnls call and
// reads the supports that leave out the candidate from a cache built at
// construction. The oracle is a test-local copy of the scalar enumeration
// that did this work one candidate at a time (factor, back substitution,
// the all-k fast path, then every support in ascending mask order with a
// strict improvement test), run on the Gram that ConditionalFit assembles.
// Every residual and every stretch must match it byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/nls.hpp"
#include "geom/sampling.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/kernels.hpp"

namespace fluxfp::core {
namespace {

// --- The scalar enumeration ------------------------------------------------

bool ref_factor(const std::vector<double>& g, std::size_t k,
                const std::vector<double>& c, const std::size_t* idx,
                std::size_t m, double* l, double* y) {
  for (std::size_t j = 0; j < m; ++j) {
    double diag = g[idx[j] * k + idx[j]];
    for (std::size_t t = 0; t < j; ++t) {
      diag -= l[j * m + t] * l[j * m + t];
    }
    if (!(diag > 1e-14)) {
      return false;
    }
    l[j * m + j] = std::sqrt(diag);
    for (std::size_t i = j + 1; i < m; ++i) {
      double v = g[idx[i] * k + idx[j]];
      for (std::size_t t = 0; t < j; ++t) {
        v -= l[i * m + t] * l[j * m + t];
      }
      l[i * m + j] = v / l[j * m + j];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    double v = c[idx[i]];
    for (std::size_t t = 0; t < i; ++t) {
      v -= l[i * m + t] * y[t];
    }
    y[i] = v / l[i * m + i];
  }
  return true;
}

bool ref_solve_subset(const std::vector<double>& g, std::size_t k,
                      const std::vector<double>& c, unsigned mask, double* x,
                      double& sc) {
  std::size_t idx[8];
  std::size_t m = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (mask & (1u << j)) {
      idx[m++] = j;
    }
  }
  double l[64];
  double y[8];
  if (m == 0 || !ref_factor(g, k, c, idx, m, l, y)) {
    return false;
  }
  double z[8];
  for (std::size_t ii = m; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t t = ii + 1; t < m; ++t) {
      v -= l[t * m + ii] * z[t];
    }
    z[ii] = v / l[ii * m + ii];
  }
  for (std::size_t t = 0; t < m; ++t) {
    if (z[t] < 0.0) {
      return false;
    }
  }
  std::fill_n(x, k, 0.0);
  sc = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    x[idx[j]] = z[j];
    sc += z[j] * c[idx[j]];
  }
  return true;
}

struct RefFit {
  double residual = 0.0;
  std::vector<double> s;
  bool fast = false;  // the all-k solve was the answer
};

RefFit ref_nnls(const std::vector<double>& g, std::size_t k,
                const std::vector<double>& c, double b2) {
  RefFit out;
  out.s.assign(k, 0.0);
  double x[8];
  const unsigned full = (1u << k) - 1;
  double sc = 0.0;
  if (ref_solve_subset(g, k, c, full, x, sc)) {
    out.s.assign(x, x + k);
    out.residual = std::sqrt(std::max(b2 - sc, 0.0));
    out.fast = true;
    return out;
  }
  double best_r2 = b2;
  for (unsigned mask = 1; mask < full; ++mask) {
    if (!ref_solve_subset(g, k, c, mask, x, sc)) {
      continue;
    }
    const double r2 = b2 - sc;
    if (r2 < best_r2) {
      best_r2 = r2;
      out.s.assign(x, x + k);
    }
  }
  out.residual = std::sqrt(std::max(best_r2, 0.0));
  return out;
}

// --- Instances -------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// k - 1 fixed columns and a measured vector over n samples.
struct Instance {
  geom::RectField field{30.0, 30.0};
  FluxModel model{field, 1.0};
  std::vector<std::vector<double>> fixed_cols;
  std::vector<std::span<const double>> fixed;
  std::unique_ptr<SparseObjective> obj;

  Instance(std::vector<std::vector<double>> cols, std::vector<double> measured,
           std::uint64_t seed)
      : fixed_cols(std::move(cols)) {
    geom::Rng pos_rng(seed);
    const std::size_t n = measured.size();
    obj = std::make_unique<SparseObjective>(
        model, geom::uniform_points(field, n, pos_rng), std::move(measured));
    fixed.assign(fixed_cols.begin(), fixed_cols.end());
  }

  std::size_t n() const { return obj->sample_count(); }

  /// The scalar enumeration on the Gram ConditionalFit assembles with the
  /// candidate at slot `vary`.
  RefFit reference(std::size_t vary, std::span<const double> cand) const {
    const std::size_t kf = fixed.size();
    const std::size_t k = kf + 1;
    const double* b = obj->measured().data();
    const auto slot = [&](std::size_t a) { return a < vary ? a : a + 1; };
    std::vector<double> g(k * k);
    std::vector<double> c(k);
    for (std::size_t a = 0; a < kf; ++a) {
      for (std::size_t bi = a; bi < kf; ++bi) {
        const double v =
            numeric::simd::dot(fixed[a].data(), fixed[bi].data(), n());
        g[slot(a) * k + slot(bi)] = v;
        g[slot(bi) * k + slot(a)] = v;
      }
      c[slot(a)] = numeric::simd::dot(fixed[a].data(), b, n());
      const double cross =
          numeric::simd::dot(fixed[a].data(), cand.data(), n());
      g[slot(a) * k + vary] = cross;
      g[vary * k + slot(a)] = cross;
    }
    numeric::simd::dot_self_and_b(cand.data(), b, n(), &g[vary * k + vary],
                                  &c[vary]);
    const double b2 = obj->measured_norm() * obj->measured_norm();
    return ref_nnls(g, k, c, b2);
  }
};

/// Random instance: positive, correlated fixed columns and a measured
/// vector mixing some of them with signed noise, so the fast path fails
/// for a good share of candidates.
Instance random_instance(std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::normal_distribution<double> noise(0.0, 0.4);
  const std::size_t n = 3 * k + 9;
  std::vector<std::vector<double>> cols(k - 1, std::vector<double>(n));
  for (auto& col : cols) {
    for (double& v : col) {
      v = u(rng);
    }
  }
  std::vector<double> measured(n, 0.0);
  for (std::size_t j = 0; j + 1 < k; j += 2) {
    const double a = u(rng);
    for (std::size_t i = 0; i < n; ++i) {
      measured[i] += a * cols[j][i];
    }
  }
  for (double& m : measured) {
    m += noise(rng);
  }
  return Instance(std::move(cols), std::move(measured), seed);
}

/// Block sizes that leave a partial lane pack on every vector backend.
constexpr std::size_t kBlockSizes[] = {1, 3, 5, 7, 13};

struct Coverage {
  int fast = 0;
  int enumerated = 0;
};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(numeric::thread_count()) {}
  ~ThreadCountGuard() { numeric::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

/// Scores `cands` through evaluate() and, at 1 and 4 threads, through
/// evaluate_batch(), and compares every output with the oracle.
void expect_exact(const Instance& inst, std::size_t vary,
                  const std::vector<std::vector<double>>& cands,
                  const std::string& what, Coverage* coverage = nullptr) {
  const ConditionalFit cond(*inst.obj, inst.fixed, vary);
  ColumnBlock block(inst.n(), cands.size());
  std::vector<RefFit> want;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    std::copy(cands[i].begin(), cands[i].end(), block.column(i).begin());
    want.push_back(inst.reference(vary, cands[i]));
    if (coverage != nullptr) {
      ++(want.back().fast ? coverage->fast : coverage->enumerated);
    }
    const StretchFit got = cond.evaluate(cands[i]);
    const std::string at = what + " slot " + std::to_string(vary) +
                           " candidate " + std::to_string(i);
    EXPECT_TRUE(same_bits(got.residual, want[i].residual))
        << at << ": residual " << got.residual << " vs " << want[i].residual;
    ASSERT_EQ(got.stretches.size(), want[i].s.size()) << at;
    for (std::size_t j = 0; j < want[i].s.size(); ++j) {
      EXPECT_TRUE(same_bits(got.stretches[j], want[i].s[j]))
          << at << ": stretch " << j << " " << got.stretches[j] << " vs "
          << want[i].s[j];
    }
  }
  ThreadCountGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    numeric::set_thread_count(threads);
    std::vector<double> residuals(cands.size());
    std::vector<double> stretches(cands.size());
    cond.evaluate_batch(block, residuals, stretches);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const std::string at = what + " slot " + std::to_string(vary) +
                             " batch candidate " + std::to_string(i) + " of " +
                             std::to_string(cands.size()) + " at " +
                             std::to_string(threads) + " threads";
      EXPECT_TRUE(same_bits(residuals[i], want[i].residual))
          << at << ": residual " << residuals[i] << " vs "
          << want[i].residual;
      EXPECT_TRUE(same_bits(stretches[i], want[i].s[vary]))
          << at << ": stretch " << stretches[i] << " vs " << want[i].s[vary];
    }
  }
}

std::vector<std::vector<double>> random_candidates(const Instance& inst,
                                                   std::size_t count,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<double>> cands(count,
                                         std::vector<double>(inst.n()));
  for (std::size_t i = 0; i < count; ++i) {
    // Alternate plain columns with ones leaning on the measured vector,
    // which the fit wants with a positive stretch.
    const double lean = (i % 2 == 0) ? 0.0 : u(rng);
    for (std::size_t r = 0; r < inst.n(); ++r) {
      cands[i][r] = u(rng) + lean * inst.obj->measured()[r];
    }
  }
  return cands;
}

std::string label(const char* kind, std::size_t k, int trial) {
  return std::string(kind) + " k=" + std::to_string(k) +
         " trial=" + std::to_string(trial);
}

TEST(ConditionalFitLanes, MatchesScalarEnumerationAtEverySlotAndBlockSize) {
  Coverage coverage;
  for (std::size_t k = 1; k <= kGramEnumerationLimit; ++k) {
    for (int trial = 0; trial < 3; ++trial) {
      const Instance inst =
          random_instance(k, 100 * k + static_cast<std::uint64_t>(trial));
      for (std::size_t vary = 0; vary < k; ++vary) {
        for (const std::size_t size : kBlockSizes) {
          expect_exact(inst, vary,
                       random_candidates(inst, size, 7 * size + vary),
                       label("random", k, trial) + " block " +
                           std::to_string(size),
                       &coverage);
        }
      }
    }
  }
  // Both branches of the kernel must be exercised, or the test proves
  // little: the all-k fast path and the enumeration after it fails.
  EXPECT_GT(coverage.fast, 100) << coverage.fast;
  EXPECT_GT(coverage.enumerated, 100) << coverage.enumerated;
}

TEST(ConditionalFitLanes, DuplicatedAndZeroColumnsMatchScalarEnumeration) {
  // A candidate equal to a fixed column, a fixed column repeated among
  // the fixed ones, and all-zero columns make supports that are not
  // positive definite, in the cache and in the lanes alike.
  for (std::size_t k = 2; k <= kGramEnumerationLimit; ++k) {
    for (int trial = 0; trial < 2; ++trial) {
      const std::uint64_t seed = 200 * k + static_cast<std::uint64_t>(trial);
      const Instance base = random_instance(k, seed);
      std::vector<std::vector<double>> cols = base.fixed_cols;
      if (cols.size() >= 2) {
        cols.back() = cols.front();
      }
      std::vector<std::vector<double>> with_zero = base.fixed_cols;
      std::fill(with_zero.front().begin(), with_zero.front().end(), 0.0);
      const Instance dup(cols, base.obj->measured(), seed);
      const Instance zero(with_zero, base.obj->measured(), seed);
      for (const Instance* inst : {&base, &dup, &zero}) {
        std::vector<std::vector<double>> cands =
            random_candidates(*inst, 3, seed);
        for (const auto& col : inst->fixed_cols) {
          cands.push_back(col);
        }
        cands.push_back(std::vector<double>(inst->n(), 0.0));
        for (std::size_t vary = 0; vary < k; ++vary) {
          expect_exact(*inst, vary, cands, label("degenerate", k, trial));
        }
      }
    }
  }
}

TEST(ConditionalFitLanes, ExactTiesKeepTheFirstSupport) {
  // Small-integer columns make every dot product exact in any summation
  // order, so a candidate equal to the fixed column in the neighbouring
  // slot gives supports with bit-identical solutions. The strict test
  // keeps the lower mask, which puts the stretch on the lower slot.
  for (std::size_t k = 2; k <= kGramEnumerationLimit; ++k) {
    for (int trial = 0; trial < 4; ++trial) {
      std::mt19937_64 rng(300 * k + static_cast<std::uint64_t>(trial));
      std::uniform_int_distribution<int> small(0, 3);
      const std::size_t n = 2 * k + 6;
      std::vector<std::vector<double>> cols(k - 1, std::vector<double>(n));
      for (auto& col : cols) {
        for (double& v : col) {
          v = small(rng);
        }
      }
      std::vector<double> measured(n);
      for (double& m : measured) {
        m = small(rng) + small(rng);
      }
      const Instance inst(cols, measured, 300 * k);
      for (std::size_t a = 0; a + 1 < k; ++a) {
        // Slots a and a + 1 hold the twins: the candidate right after its
        // fixed copy, or right before it.
        for (const std::size_t vary : {a, a + 1}) {
          expect_exact(inst, vary, {cols[a], cols[a], cols[a]},
                       label("tie", k, trial) + " twin of " +
                           std::to_string(a));
        }
      }
    }
  }
}

TEST(ConditionalFitLanes, NonFiniteCandidateTermsMatchScalarEnumeration) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t k = 1; k <= kGramEnumerationLimit; ++k) {
    const Instance inst = random_instance(k, 400 * k);
    std::vector<std::vector<double>> cands = random_candidates(inst, 2, k);
    for (const double bad : {inf, -inf, nan, 1e200}) {
      std::vector<double> col = cands.front();
      col[k % col.size()] = bad;
      cands.push_back(col);
    }
    for (std::size_t vary = 0; vary < k; ++vary) {
      expect_exact(inst, vary, cands, label("non-finite", k, 0));
    }
  }
}

TEST(NnlsFromGramLanes, MatchesScalarEnumerationBitForBit) {
  // nnls_from_gram runs the same kernel with one problem in every lane
  // and no cache: every support is solved.
  std::mt19937_64 rng(500);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  int fast = 0;
  int enumerated = 0;
  for (std::size_t k = 1; k <= kGramEnumerationLimit; ++k) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t n = k + 3;
      std::vector<double> a(n * k);
      std::vector<double> b(n);
      for (double& v : a) {
        v = u(rng);
      }
      for (double& v : b) {
        v = u(rng);
      }
      if (trial % 5 == 0 && k >= 2) {
        for (std::size_t i = 0; i < n; ++i) {
          a[i * k + k - 1] = a[i * k];  // duplicated column
        }
      }
      std::vector<double> g(k * k, 0.0);
      std::vector<double> c(k, 0.0);
      double b2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
          for (std::size_t q = 0; q < k; ++q) {
            g[p * k + q] += a[i * k + p] * a[i * k + q];
          }
          c[p] += a[i * k + p] * b[i];
        }
        b2 += b[i] * b[i];
      }
      const RefFit want = ref_nnls(g, k, c, b2);
      ++(want.fast ? fast : enumerated);
      const StretchFit got = nnls_from_gram(g, k, c, b2);
      const std::string at = label("gram", k, trial);
      EXPECT_TRUE(same_bits(got.residual, want.residual)) << at;
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_TRUE(same_bits(got.stretches[j], want.s[j]))
            << at << " stretch " << j;
      }
    }
  }
  EXPECT_GT(fast, 100);
  EXPECT_GT(enumerated, 100);
}

}  // namespace
}  // namespace fluxfp::core
