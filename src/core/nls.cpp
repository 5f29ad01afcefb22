#include "core/nls.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "net/flux.hpp"
#include "numeric/matrix.hpp"
#include "numeric/nnls.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/kernels.hpp"
#include "obs/instrument.hpp"

namespace fluxfp::core {

std::vector<double> robust_weights(std::span<const double> residuals,
                                   const RobustFitConfig& config) {
  std::vector<double> w;
  robust_weights(residuals, config, w);
  return w;
}

void robust_weights(std::span<const double> residuals,
                    const RobustFitConfig& config, std::vector<double>& out) {
  std::vector<double>& w = out;
  w.assign(residuals.size(), 1.0);
  if (residuals.empty() || config.loss == RobustLoss::kNone) {
    return;
  }
  std::vector<double> abs_r(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    abs_r[i] = std::abs(residuals[i]);
  }
  if (config.loss == RobustLoss::kTrimmed) {
    const double trim = std::clamp(config.trim_fraction, 0.0, 0.9);
    std::vector<double> sorted = abs_r;
    const std::size_t kept = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil((1.0 - trim) * static_cast<double>(sorted.size()))));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<long>(kept - 1),
                     sorted.end());
    const double threshold = sorted[kept - 1];
    for (std::size_t i = 0; i < abs_r.size(); ++i) {
      w[i] = abs_r[i] <= threshold ? 1.0 : 0.0;
    }
    return;
  }
  // Huber: robust scale from the normalized MAD about the median residual.
  std::vector<double> tmp(residuals.begin(), residuals.end());
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<long>(mid),
                   tmp.end());
  const double med = tmp[mid];
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    tmp[i] = std::abs(residuals[i] - med);
  }
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<long>(mid),
                   tmp.end());
  const double sigma = 1.4826 * tmp[mid];
  double max_abs = 0.0;
  for (double a : abs_r) {
    max_abs = std::max(max_abs, a);
  }
  if (!(sigma > 1e-12 * (1.0 + max_abs))) {
    return;  // degenerate scale: most residuals identical, nothing to clip
  }
  const double clip = config.huber_k * sigma;
  for (std::size_t i = 0; i < abs_r.size(); ++i) {
    w[i] = abs_r[i] > clip ? clip / abs_r[i] : 1.0;
  }
#if defined(FLUXFP_OBS_ENABLED)
  if (obs::enabled()) {
    std::uint64_t down = 0;
    for (double wi : w) {
      down += wi < 1.0 ? 1 : 0;
    }
    FLUXFP_OBS_COUNTER_ADD("fluxfp_core_robust_downweighted_total",
                           "Readings clipped by the Huber weight", down);
  }
#endif
}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<geom::Vec2> sample_positions,
                                 std::vector<double> measured)
    : SparseObjective(model, std::move(sample_positions), std::move(measured),
                      std::vector<bool>()) {}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<geom::Vec2> sample_positions,
                                 std::vector<double> measured,
                                 const std::vector<bool>& valid)
    : model_(model.clone()),
      sample_positions_(std::move(sample_positions)),
      // Point sites: both endpoints at the sniffer position.
      positions_b_(sample_positions_),
      measured_(std::move(measured)) {
  compact(valid);
}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<Site> sites,
                                 std::vector<double> measured)
    : SparseObjective(model.clone(), std::move(sites), std::move(measured),
                      std::vector<bool>()) {}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<Site> sites,
                                 std::vector<double> measured,
                                 const std::vector<bool>& valid)
    : SparseObjective(model.clone(), std::move(sites), std::move(measured),
                      valid) {}

SparseObjective::SparseObjective(std::shared_ptr<const ObservationModel> model,
                                 std::vector<Site> sites,
                                 std::vector<double> measured,
                                 const std::vector<bool>& valid)
    : model_(std::move(model)), measured_(std::move(measured)) {
  if (!model_) {
    throw std::invalid_argument("SparseObjective: null model");
  }
  sample_positions_.reserve(sites.size());
  positions_b_.reserve(sites.size());
  for (const Site& s : sites) {
    sample_positions_.push_back(s.a);
    positions_b_.push_back(s.b);
  }
  compact(valid);
}

void SparseObjective::compact(const std::vector<bool>& valid) {
  if (sample_positions_.empty() ||
      sample_positions_.size() != measured_.size() ||
      (!valid.empty() && valid.size() != measured_.size())) {
    throw std::invalid_argument(
        "SparseObjective: samples empty or size mismatch");
  }
  // Compact to live samples: masked-out or missing readings carry no
  // evidence and are excluded from the fit entirely. A repeated site (the
  // same sniffer — or the same link, BOTH endpoints equal — reported twice
  // in one snapshot; routine in the streaming runtime, where transports
  // duplicate reports) keeps the LATEST live reading rather than
  // double-counting the row. "Latest" is pinned by arrival order: the
  // ascending-index scan overwrites the surviving row with every later
  // duplicate it meets, so the tie-break at equal timestamps is
  // last-arrival wins, index-ordered — independent of thread count, which
  // never reorders the input vector.
  std::size_t live = 0;
  for (std::size_t i = 0; i < measured_.size(); ++i) {
    const bool ok =
        (valid.empty() || valid[i]) && !net::is_missing(measured_[i]);
    if (!ok) {
      continue;
    }
    bool duplicate = false;
    for (std::size_t j = 0; j < live; ++j) {
      if (sample_positions_[j].x == sample_positions_[i].x &&
          sample_positions_[j].y == sample_positions_[i].y &&
          positions_b_[j].x == positions_b_[i].x &&
          positions_b_[j].y == positions_b_[i].y) {
        measured_[j] = measured_[i];
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    sample_positions_[live] = sample_positions_[i];
    positions_b_[live] = positions_b_[i];
    measured_[live] = measured_[i];
    ++live;
  }
  masked_count_ = measured_.size() - live;
  sample_positions_.resize(live);
  positions_b_.resize(live);
  measured_.resize(live);
  measured_norm_ = numeric::norm(measured_);
  // Structure-of-arrays coordinate rows for the SIMD shape kernels, built
  // once per objective over the compacted live sites.
  qx_.resize(live);
  qy_.resize(live);
  bx_.resize(live);
  by_.resize(live);
  for (std::size_t i = 0; i < live; ++i) {
    qx_[i] = sample_positions_[i].x;
    qy_[i] = sample_positions_[i].y;
    bx_[i] = positions_b_[i].x;
    by_[i] = positions_b_[i].y;
  }
}

std::vector<double> SparseObjective::shape_column(geom::Vec2 sink) const {
  std::vector<double> col;
  shape_column(sink, col);
  return col;
}

void SparseObjective::shape_column(geom::Vec2 sink,
                                   std::vector<double>& out) const {
  out.resize(sample_positions_.size());
  shape_column_into(sink, out);
}

void SparseObjective::shape_column_into(geom::Vec2 sink,
                                        std::span<double> out) const {
  const std::size_t n = sample_positions_.size();
  // Vectorized fast path over the SoA coordinate rows — ONE virtual call
  // per column, never per element, so the SIMD hot path is untouched by
  // the model polymorphism. Falls back to the scalar loop (which preserves
  // the legacy throw-on-non-finite behavior) when the backend declines:
  // no vector backend built, unrecognized geometry, or a non-finite
  // coordinate. Row scaling is a separate element-wise pass: same
  // per-element arithmetic as the legacy fused loop, bit for bit.
  const SiteRows rows{qx_.data(), qy_.data(), bx_.data(), by_.data()};
  if (!model_->site_shape_row(sink, rows, n, out.data())) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = model_->site_shape(
          sink, Site{sample_positions_[i], positions_b_[i]});
    }
  }
  if (!row_scale_.empty()) {
    numeric::simd::scale_rows(out.data(), row_scale_.data(), n);
  }
}

void SparseObjective::shape_columns(std::span<const geom::Vec2> sinks,
                                    ColumnBlock& out) const {
  out.resize(sample_positions_.size(), sinks.size());
  numeric::parallel_for(0, sinks.size(), [&](std::size_t c) {
    shape_column_into(sinks[c], out.column(c));
  });
}

StretchFit SparseObjective::fit(std::span<const geom::Vec2> sinks) const {
  // Scratch is thread-local: fit() runs inside parallel regions (smooth
  // localizer restarts, experiment trials) where shared mutable members
  // would race, while per-call vectors would re-pay the allocations this
  // reuse exists to remove.
  thread_local std::vector<std::vector<double>> cols;
  thread_local std::vector<std::span<const double>> spans;
  if (cols.size() < sinks.size()) {
    cols.resize(sinks.size());
  }
  spans.resize(sinks.size());
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    shape_column(sinks[j], cols[j]);
    spans[j] = cols[j];
  }
  return fit_columns(spans);
}

std::vector<double> SparseObjective::residuals_at(
    std::span<const geom::Vec2> sinks,
    std::span<const double> stretches) const {
  std::vector<double> r;
  residuals_at(sinks, stretches, r);
  return r;
}

void SparseObjective::residuals_at(std::span<const geom::Vec2> sinks,
                                   std::span<const double> stretches,
                                   std::vector<double>& out) const {
  if (sinks.size() != stretches.size()) {
    throw std::invalid_argument("residuals_at: sinks/stretches mismatch");
  }
  const std::size_t n = sample_positions_.size();
  out.assign(n, 0.0);
  thread_local std::vector<double> col;
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    shape_column(sinks[j], col);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += stretches[j] * col[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] -= measured_[i];
  }
}

SparseObjective SparseObjective::reweighted(
    std::span<const double> weights) const {
  SparseObjective out(*this);
  reweighted_into(weights, out);
  return out;
}

void SparseObjective::reweighted_into(std::span<const double> weights,
                                      SparseObjective& out) const {
  if (weights.size() != sample_positions_.size()) {
    throw std::invalid_argument("reweighted: weight count mismatch");
  }
  // Copy-assignment reuses out's vector capacity, so a per-epoch IRLS
  // round allocates nothing once the buffers are warm.
  out = *this;
  if (out.row_scale_.empty()) {
    out.row_scale_.assign(weights.size(), 1.0);
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0)) {
      throw std::invalid_argument("reweighted: negative weight");
    }
    const double s = std::sqrt(weights[i]);
    out.row_scale_[i] *= s;
    out.measured_[i] = measured_[i] * s;
  }
  out.measured_norm_ = numeric::norm(out.measured_);
}

StretchFit SparseObjective::fit_robust(std::span<const geom::Vec2> sinks,
                                       const RobustFitConfig& config) const {
  StretchFit fit = this->fit(sinks);
  if (config.loss == RobustLoss::kNone || sample_positions_.empty()) {
    return fit;
  }
  // Residual/weight buffers live across the IRLS rounds instead of being
  // reallocated inside each one.
  std::vector<double> r;
  std::vector<double> w;
  for (int round = 0; round < config.reweight_rounds; ++round) {
    residuals_at(sinks, fit.stretches, r);
    robust_weights(r, config, w);
    const StretchFit weighted = reweighted(w).fit(sinks);
    fit.stretches = weighted.stretches;
  }
  // Report the robust stretches at their *unweighted* residual so results
  // stay comparable with plain fits.
  residuals_at(sinks, fit.stretches, r);
  fit.residual = numeric::norm(r);
  return fit;
}

namespace {

/// Cholesky factor `l` (row-major, stride m) of the m x m submatrix of g
/// on idx[0..m), and the forward solution `y` of l y = c[idx]. Rows
/// [0, from) of both must already hold those of idx[0..from); only rows
/// [from, m) are computed, each entry with the same arithmetic as in a
/// full factorization. Returns false if a pivot is not (numerically)
/// positive. Forced inline (like back_substitute) so each caller gets a
/// copy specialized to its call site. numeric::simd::subset_nnls runs the
/// same operations per lane for k <= kGramEnumerationLimit.
[[gnu::always_inline]] inline bool factor_support(
    std::span<const double> g, std::size_t k, std::span<const double> c,
    const std::size_t* idx, std::size_t m, std::size_t from, double* l,
    double* y) {
  for (std::size_t j = 0; j < m; ++j) {
    if (j >= from) {
      double diag = g[idx[j] * k + idx[j]];
      for (std::size_t t = 0; t < j; ++t) {
        diag -= l[j * m + t] * l[j * m + t];
      }
      if (!(diag > 1e-14)) {
        return false;
      }
      l[j * m + j] = std::sqrt(diag);
    }
    for (std::size_t i = std::max(j + 1, from); i < m; ++i) {
      double v = g[idx[i] * k + idx[j]];
      for (std::size_t t = 0; t < j; ++t) {
        v -= l[i * m + t] * l[j * m + t];
      }
      l[i * m + j] = v / l[j * m + j];
    }
  }
  for (std::size_t i = from; i < m; ++i) {
    double v = c[idx[i]];
    for (std::size_t t = 0; t < i; ++t) {
      v -= l[i * m + t] * y[t];
    }
    y[i] = v / l[i * m + i];
  }
  return true;
}

/// Back substitution l^T z = y on the m x m factor (stride m).
[[gnu::always_inline]] inline void back_substitute(const double* l,
                                                   const double* y,
                                                   std::size_t m, double* z) {
  for (std::size_t ii = m; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t t = ii + 1; t < m; ++t) {
      v -= l[t * m + ii] * z[t];
    }
    z[ii] = v / l[ii * m + ii];
  }
}

static_assert(kMaxGramUsers <= 32, "column sets are 32-bit masks");

std::uint32_t bit(std::size_t j) { return std::uint32_t{1} << j; }

/// The set bits of `mask` below k, ascending, into idx; returns the count.
std::size_t support_of(std::uint32_t mask, std::size_t k, std::size_t* idx) {
  std::size_t m = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (mask & bit(j)) {
      idx[m++] = j;
    }
  }
  return m;
}

// --- Lawson–Hanson active-set NNLS on the normal equations ---------------
//
// Minimizes 0.5 s^T G s - c^T s over s >= 0 for k above the enumeration
// limit. The loop is split into named stages (gradient pick, inner solve,
// outer loop) so the ConditionalFit prefix cache can record the
// candidate-free run once and resume the very same loop per candidate.

/// The problem's data and its two derived constants: `tol` (the strict
/// gradient threshold and the zero clamp) and `max_iter` (the bound on
/// outer and on inner iterations).
struct ActiveSetProblem {
  std::span<const double> g;  // k x k, row-major
  std::size_t k;
  std::span<const double> c;
  double tol;
  int max_iter;
};

/// max_j |c_j|, folded in index order.
double max_abs(std::span<const double> c) {
  double cnorm = 0.0;
  for (const double cj : c) {
    cnorm = std::max(cnorm, std::abs(cj));
  }
  return cnorm;
}

double active_set_tol(double cnorm) { return 1e-10 * (1.0 + cnorm); }

constexpr int active_set_max_iter(std::size_t k) {
  return static_cast<int>(3 * k) + 10;
}
static_assert(active_set_max_iter(kMaxGramUsers) ==
              static_cast<int>(kMaxActiveSetIterations));

/// Gradient of the residual objective at column j: w_j = c_j - (G s)_j,
/// accumulated in index order.
double gradient(const ActiveSetProblem& p, std::size_t j, const double* s) {
  double w = p.c[j];
  for (std::size_t t = 0; t < p.k; ++t) {
    w -= p.g[j * p.k + t] * s[t];
  }
  return w;
}

/// Gradient pick: the non-passive column whose gradient strictly beats
/// `wmax` (passed in at tol) and every earlier column's. Returns k when
/// none does (KKT holds); `wmax` leaves as the running maximum.
std::size_t pick_entering(const ActiveSetProblem& p, const double* s,
                          std::uint32_t passive, double& wmax) {
  std::size_t jmax = p.k;
  for (std::size_t j = 0; j < p.k; ++j) {
    if (passive & bit(j)) {
      continue;
    }
    const double w = gradient(p, j, s);
    if (w > wmax) {
      wmax = w;
      jmax = j;
    }
  }
  return jmax;
}

/// The Cholesky factors that ConditionalFit recorded along its
/// candidate-free prefix: for recorded passive set i with at[i] >= 0, the
/// factor of its support (stride m, its size) and then the forward solution
/// sit at pool + at[i]. `candidate` is the bit of the last column, which no
/// recorded set holds.
struct RecordedFactors {
  const std::uint32_t* passive;
  const std::int32_t* at;
  std::size_t count;
  const double* pool;
  std::uint32_t candidate;

  /// When `passive` is a recorded set plus the candidate, copies that set's
  /// factor into the leading m - 1 rows of l (stride m) and its forward
  /// solution into y, and returns m - 1. Returns 0 otherwise.
  std::size_t lead_rows(std::uint32_t passive_set, std::size_t m, double* l,
                        double* y) const {
    if (!(passive_set & candidate)) {
      return 0;
    }
    const std::uint32_t fixed = passive_set & ~candidate;
    for (std::size_t i = 0; i < count; ++i) {
      if (passive[i] != fixed || at[i] < 0) {
        continue;
      }
      const double* lead = pool + at[i];
      const std::size_t r = m - 1;
      for (std::size_t row = 0; row < r; ++row) {
        std::copy_n(lead + row * r, row + 1, l + row * m);
      }
      std::copy_n(lead + r * r, r, y);
      return r;
    }
    return 0;
  }
};

/// Inner loop after column `entering` joined the passive set: solve on the
/// passive set and, while the solution is infeasible, step back to the
/// feasible boundary and drop the columns that hit zero. A near-singular
/// solve drops `entering` again. With `factors`, every solve whose passive
/// set is a recorded set plus the candidate computes only the last row of
/// its factor.
void solve_inner(const ActiveSetProblem& p, std::size_t entering, double* s,
                 std::uint32_t& passive,
                 const RecordedFactors* factors = nullptr) {
  std::size_t idx[kMaxGramUsers];
  double l[kMaxGramUsers * kMaxGramUsers];
  double y[kMaxGramUsers];
  double z[kMaxGramUsers];
  for (int inner = 0; inner < p.max_iter; ++inner) {
    const std::size_t m = support_of(passive, p.k, idx);
    if (m == 0) {
      return;
    }
    const std::size_t from =
        factors != nullptr ? factors->lead_rows(passive, m, l, y) : 0;
    if (!factor_support(p.g, p.k, p.c, idx, m, from, l, y)) {
      passive &= ~bit(entering);  // near-singular: drop the newest column
      return;
    }
    back_substitute(l, y, m, z);
    bool feasible = true;
    double alpha = 1.0;
    for (std::size_t t = 0; t < m; ++t) {
      if (z[t] <= 0.0) {
        feasible = false;
        const double denom = s[idx[t]] - z[t];
        if (denom > 0.0) {
          alpha = std::min(alpha, s[idx[t]] / denom);
        }
      }
    }
    if (feasible) {
      for (std::size_t j = 0; j < p.k; ++j) {
        s[j] = 0.0;
      }
      for (std::size_t t = 0; t < m; ++t) {
        s[idx[t]] = z[t];
      }
      return;
    }
    for (std::size_t t = 0; t < m; ++t) {
      s[idx[t]] += alpha * (z[t] - s[idx[t]]);
      if (s[idx[t]] <= p.tol) {
        s[idx[t]] = 0.0;
        passive &= ~bit(idx[t]);
      }
    }
  }
}

/// Where a recorded run writes its trajectory: for each outer iteration
/// `it`, the iterate (k entries at row `it` of `s`) and passive set before
/// the pick, and the running wmax after it; row `iters` of `s` is the
/// final iterate.
struct ActiveSetRecord {
  double* s;
  std::size_t stride;  // doubles between rows of s, >= k
  std::uint32_t* passive;
  double* wmax;
  int iters = 0;
};

/// Outer loop from iteration `iter` on, with `s` and `passive` the state
/// entering it: pick, inner solve, until KKT holds or max_iter runs out.
/// `factors` goes to every inner solve.
void run_active_set(const ActiveSetProblem& p, int iter, double* s,
                    std::uint32_t passive, ActiveSetRecord* rec = nullptr,
                    const RecordedFactors* factors = nullptr) {
  for (; iter < p.max_iter; ++iter) {
    if (rec != nullptr) {
      std::copy_n(s, p.k,
                  rec->s + static_cast<std::size_t>(iter) * rec->stride);
      rec->passive[iter] = passive;
    }
    double wmax = p.tol;
    const std::size_t entering = pick_entering(p, s, passive, wmax);
    if (rec != nullptr) {
      rec->wmax[iter] = wmax;
      rec->iters = iter + 1;
    }
    if (entering == p.k) {
      break;  // KKT satisfied
    }
    passive |= bit(entering);
    solve_inner(p, entering, s, passive, factors);
  }
  if (rec != nullptr) {
    std::copy_n(s, p.k,
                rec->s + static_cast<std::size_t>(rec->iters) * rec->stride);
  }
}

/// residual^2 = b2 - 2 s^T c + s^T G s, clamped at zero.
double gram_residual(std::span<const double> g, std::size_t k,
                     std::span<const double> c, double b2, const double* s) {
  double sc = 0.0;
  double sgs = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    sc += s[i] * c[i];
    double gi = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      gi += g[i * k + j] * s[j];
    }
    sgs += s[i] * gi;
  }
  return std::sqrt(std::max(b2 - 2.0 * sc + sgs, 0.0));
}

/// Allocation-free core of nnls_from_gram: writes the k stretches to `s`
/// (stack buffer of the caller) and returns the residual. For k above the
/// enumeration limit this is the Lawson–Hanson loop that ConditionalFit's
/// uncached solve shares; up to it, the subset-enumeration kernel with the
/// one problem in every lane.
double nnls_from_gram_into(std::span<const double> g, std::size_t k,
                           std::span<const double> c, double b2, double* s) {
  if (k > kGramEnumerationLimit) {
    for (std::size_t j = 0; j < k; ++j) {
      s[j] = 0.0;
    }
    const ActiveSetProblem p{g, k, c, active_set_tol(max_abs(c)),
                             active_set_max_iter(k)};
    run_active_set(p, 0, s, 0);
    return gram_residual(g, k, c, b2, s);
  }
  const std::size_t lanes = numeric::simd::lane_count();
  double gp[kGramEnumerationLimit * kGramEnumerationLimit *
            numeric::simd::kMaxLanes];
  double cp[kGramEnumerationLimit * numeric::simd::kMaxLanes];
  for (std::size_t e = 0; e < k * k; ++e) {
    std::fill_n(gp + e * lanes, lanes, g[e]);
  }
  for (std::size_t e = 0; e < k; ++e) {
    std::fill_n(cp + e * lanes, lanes, c[e]);
  }
  double residual[numeric::simd::kMaxLanes];
  double sp[kGramEnumerationLimit * numeric::simd::kMaxLanes];
  numeric::simd::subset_nnls(gp, cp, k, b2, nullptr, residual, sp);
  for (std::size_t j = 0; j < k; ++j) {
    s[j] = sp[j * lanes];
  }
  return residual[0];
}

}  // namespace

StretchFit nnls_from_gram(std::span<const double> g, std::size_t k,
                          std::span<const double> c, double b2) {
  if (k == 0 || k > kMaxGramUsers || g.size() != k * k || c.size() != k) {
    throw std::invalid_argument("nnls_from_gram: bad dimensions");
  }
  StretchFit out;
  double s[kMaxGramUsers];
  out.residual = nnls_from_gram_into(g, k, c, b2, s);
  out.stretches.assign(s, s + k);
  return out;
}

// SparseObjective's column fits, next to the Gram-space solver they call.

StretchFit SparseObjective::fit_columns(
    std::span<const std::span<const double>> columns) const {
  double g[kMaxGramUsers * kMaxGramUsers];
  double c[kMaxGramUsers];
  return fit_columns(columns, g, c);
}

StretchFit SparseObjective::fit_columns(
    std::span<const std::span<const double>> columns, double* g,
    double* c) const {
  const std::size_t n = sample_positions_.size();
  const std::size_t k = columns.size();
  if (k > kMaxGramUsers) {
    throw std::invalid_argument("fit_columns: more than kMaxGramUsers");
  }
  for (const std::span<const double> col : columns) {
    if (col.size() != n) {
      throw std::invalid_argument("fit_columns: column length mismatch");
    }
  }
  StretchFit out;
  if (k == 0) {
    out.residual = measured_norm_;
    return out;
  }
  if (n == 0) {
    // Every sample masked out: no evidence, zero residual, zero stretches.
    out.stretches.assign(k, 0.0);
    return out;
  }
  if (k == 1) {
    out.stretches = {numeric::nnls_single(columns[0], measured_)};
    out.residual = residual_on_columns(columns, out.stretches.data());
    return out;
  }
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      const double v =
          numeric::simd::dot(columns[a].data(), columns[b].data(), n);
      g[a * k + b] = v;
      g[b * k + a] = v;
    }
    c[a] = numeric::simd::dot(columns[a].data(), measured_.data(), n);
  }
  out.stretches.resize(k);
  nnls_from_gram_into(std::span<const double>(g, k * k), k,
                      std::span<const double>(c, k),
                      measured_norm_ * measured_norm_, out.stretches.data());
  out.residual = residual_on_columns(columns, out.stretches.data());
  return out;
}

double SparseObjective::residual_on_columns(
    std::span<const std::span<const double>> columns,
    const double* stretches) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < measured_.size(); ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < columns.size(); ++j) {
      if (stretches[j] != 0.0) {
        v += stretches[j] * columns[j][i];
      }
    }
    v -= measured_[i];
    acc += v * v;
  }
  return std::sqrt(acc);
}

StretchFit SparseObjective::fit_leave_one_out(
    std::span<const std::span<const double>> columns,
    std::span<double> improvement) const {
  const std::size_t k = columns.size();
  if (improvement.size() != k) {
    throw std::invalid_argument("fit_leave_one_out: improvement size");
  }
  // A refit needs two positive joint stretches, so it only runs where
  // fit_columns built g and c (k >= 2 and live samples).
  double g[kMaxGramUsers * kMaxGramUsers];
  double c[kMaxGramUsers];
  const StretchFit joint = fit_columns(columns, g, c);
  const double b2 = measured_norm_ * measured_norm_;
  double sub_g[kMaxGramUsers * kMaxGramUsers];
  double sub_c[kMaxGramUsers];
  double sub_s[kMaxGramUsers];
  for (std::size_t j = 0; j < k; ++j) {
    improvement[j] = 0.0;
    if (!(joint.stretches[j] > 0.0)) {
      continue;
    }
    std::size_t rest[kMaxGramUsers];
    std::size_t m = 0;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != j && joint.stretches[o] > 0.0) {
        rest[m++] = o;
      }
    }
    double without = measured_norm_;
    if (m > 0) {
      for (std::size_t a = 0; a < m; ++a) {
        sub_c[a] = c[rest[a]];
        for (std::size_t b = 0; b < m; ++b) {
          sub_g[a * m + b] = g[rest[a] * k + rest[b]];
        }
      }
      without = nnls_from_gram_into(std::span<const double>(sub_g, m * m), m,
                                    std::span<const double>(sub_c, m), b2,
                                    sub_s);
    }
    improvement[j] = (without - joint.residual) / measured_norm_;
  }
  return joint;
}


ConditionalFit::ConditionalFit(
    const SparseObjective& obj,
    std::span<const std::span<const double>> fixed_columns,
    std::size_t vary_index)
    : obj_(&obj), fixed_count_(fixed_columns.size()), vary_index_(vary_index) {
  const std::size_t kf = fixed_count_;
  if (kf + 1 > kMaxGramUsers || vary_index > kf) {
    throw std::invalid_argument("ConditionalFit: bad dimensions");
  }
  const std::size_t n = obj.sample_count();
  for (std::size_t a = 0; a < kf; ++a) {
    if (fixed_columns[a].size() != n) {
      throw std::invalid_argument("ConditionalFit: column length mismatch");
    }
    fixed_[a] = fixed_columns[a];
  }
  const std::vector<double>& b = obj.measured();
  // Gram block of the fixed columns via the dot kernel: exact legacy
  // accumulation in the scalar backend; vector backends change only the
  // summation order (tolerance-tested).
  for (std::size_t a = 0; a < kf; ++a) {
    for (std::size_t bI = a; bI < kf; ++bI) {
      const double acc =
          numeric::simd::dot(fixed_[a].data(), fixed_[bI].data(), n);
      fixed_gram_[a * kf + bI] = acc;
      fixed_gram_[bI * kf + a] = acc;
    }
    fixed_c_[a] = numeric::simd::dot(fixed_[a].data(), b.data(), n);
  }
  if (kf + 1 <= kGramEnumerationLimit) {
    // The cached supports never read the candidate's row and column.
    double g[kGramEnumerationLimit * kGramEnumerationLimit];
    double c[kGramEnumerationLimit];
    const double cross[kGramEnumerationLimit] = {};
    assemble(cross, 0.0, 0.0, g, c, 1, 0);
    numeric::simd::build_subset_cache(g, c, kf + 1, vary_index,
                                      subset_cache_);
  } else if (vary_index == kf) {
    record_prefix();
  }
}

void ConditionalFit::record_prefix() {
  // The active-set run over the fixed columns alone, with the full
  // problem's tol (valid while |cb| <= prefix_cnorm_) and iteration bound.
  const std::size_t kf = fixed_count_;
  const std::span<const double> c(fixed_c_.data(), kf);
  prefix_cnorm_ = max_abs(c);
  const ActiveSetProblem p{
      std::span<const double>(fixed_gram_.data(), kf * kf), kf, c,
      active_set_tol(prefix_cnorm_), active_set_max_iter(kf + 1)};
  double s[kMaxGramUsers] = {};
  // Rows of stride k leave room for the candidate's stretch, which is
  // zero until it enters.
  ActiveSetRecord rec{prefix_s_.data(), kf + 1, prefix_passive_.data(),
                      prefix_wmax_.data()};
  run_active_set(p, 0, s, 0, &rec);
  prefix_iters_ = rec.iters;
  for (int it = 0; it <= prefix_iters_; ++it) {
    prefix_s_[static_cast<std::size_t>(it) * (kf + 1) + kf] = 0.0;
  }
  // The candidate is the last column, so a solve on a recorded set plus the
  // candidate has that set's factor as its leading rows. A set the path
  // revisits is factored once; the lookup takes its first record.
  std::size_t used = 0;
  for (std::size_t it = 0; it < static_cast<std::size_t>(prefix_iters_);
       ++it) {
    prefix_factor_at_[it] = -1;
    if (std::find(prefix_passive_.begin(), prefix_passive_.begin() + it,
                  prefix_passive_[it]) != prefix_passive_.begin() + it) {
      continue;
    }
    std::size_t idx[kMaxGramUsers];
    const std::size_t m = support_of(prefix_passive_[it], kf, idx);
    if (used + m * m + m > prefix_factor_.size()) {
      continue;  // pool full: this iteration resumes with a full solve
    }
    double* l = prefix_factor_.data() + used;
    if (factor_support(p.g, kf, c, idx, m, 0, l, l + m * m)) {
      prefix_factor_at_[it] = static_cast<std::int32_t>(used);
      used += m * m + m;
    }
  }
}

StretchFit ConditionalFit::evaluate(
    std::span<const double> candidate_column) const {
  const std::size_t k = fixed_count_ + 1;
  StretchFit out;
  double s[kMaxGramUsers];
  out.residual = evaluate_into(candidate_column, s);
  out.stretches.assign(s, s + k);
  return out;
}

double ConditionalFit::evaluate_residual(
    std::span<const double> candidate_column) const {
  double s[kMaxGramUsers];
  return evaluate_into(candidate_column, s);
}

void ConditionalFit::evaluate_batch(const ColumnBlock& block,
                                    std::span<double> residuals_out,
                                    std::span<double> vary_stretch_out) const {
  if (block.rows() != obj_->sample_count() ||
      residuals_out.size() != block.cols() ||
      (!vary_stretch_out.empty() &&
       vary_stretch_out.size() != block.cols())) {
    throw std::invalid_argument("evaluate_batch: dimension mismatch");
  }
  const std::size_t k = user_count();
  if (k > kGramEnumerationLimit) {
    numeric::parallel_for(0, block.cols(), [&](std::size_t c) {
      double s[kMaxGramUsers];
      residuals_out[c] = evaluate_into(block.column(c), s);
      if (!vary_stretch_out.empty()) {
        vary_stretch_out[c] = s[vary_index_];
      }
    });
    return;
  }
  // One task per lane pack of candidates; the last pack may be partial.
  const std::size_t lanes = numeric::simd::lane_count();
  const std::size_t packs = (block.cols() + lanes - 1) / lanes;
  numeric::parallel_for(0, packs, [&](std::size_t pack) {
    const std::size_t first = pack * lanes;
    const std::size_t count = std::min(lanes, block.cols() - first);
    std::span<const double> columns[numeric::simd::kMaxLanes];
    for (std::size_t i = 0; i < count; ++i) {
      columns[i] = block.column(first + i);
    }
    double residuals[numeric::simd::kMaxLanes];
    double s[numeric::simd::kMaxLanes * kGramEnumerationLimit];
    score_lanes(columns, count, residuals, s);
    for (std::size_t i = 0; i < count; ++i) {
      residuals_out[first + i] = residuals[i];
      if (!vary_stretch_out.empty()) {
        vary_stretch_out[first + i] = s[i * k + vary_index_];
      }
    }
  });
}

void ConditionalFit::candidate_terms(std::span<const double> candidate_column,
                                     double* cross, double& self,
                                     double& cb) const {
  // The dot kernels are the measured hot path of the sweep.
  const std::size_t n = obj_->sample_count();
  for (std::size_t a = 0; a < fixed_count_; ++a) {
    cross[a] =
        numeric::simd::dot(fixed_[a].data(), candidate_column.data(), n);
  }
  numeric::simd::dot_self_and_b(candidate_column.data(),
                                obj_->measured().data(), n, &self, &cb);
}

void ConditionalFit::assemble(const double* cross, double self, double cb,
                              double* g, double* c, std::size_t stride,
                              std::size_t lane) const {
  // Slot mapping: output index vary_index_ -> candidate; fixed column a
  // keeps its relative order around it.
  const std::size_t kf = fixed_count_;
  const std::size_t k = kf + 1;
  const std::size_t v = vary_index_;
  const auto at = [&](std::size_t i, std::size_t j) -> double& {
    return g[(i * k + j) * stride + lane];
  };
  for (std::size_t a = 0; a < kf; ++a) {
    const std::size_t sa = a < v ? a : a + 1;
    c[sa * stride + lane] = fixed_c_[a];
    for (std::size_t bI = 0; bI < kf; ++bI) {
      at(sa, bI < v ? bI : bI + 1) = fixed_gram_[a * kf + bI];
    }
    at(sa, v) = cross[a];
    at(v, sa) = cross[a];
  }
  at(v, v) = self;
  c[v * stride + lane] = cb;
}

void ConditionalFit::score_lanes(const std::span<const double>* columns,
                                 std::size_t count, double* residuals,
                                 double* stretches) const {
  const std::size_t k = user_count();
  const std::size_t lanes = numeric::simd::lane_count();
  double g[kGramEnumerationLimit * kGramEnumerationLimit *
           numeric::simd::kMaxLanes];
  double c[kGramEnumerationLimit * numeric::simd::kMaxLanes];
  double cross[kGramEnumerationLimit];
  double self = 0.0;
  double cb = 0.0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    // Spare lanes repeat the last candidate and are not read back.
    if (lane < count) {
      candidate_terms(columns[lane], cross, self, cb);
    }
    assemble(cross, self, cb, g, c, lanes, lane);
  }
  const double b2 = obj_->measured_norm() * obj_->measured_norm();
  double res[numeric::simd::kMaxLanes];
  double s[kGramEnumerationLimit * numeric::simd::kMaxLanes];
  numeric::simd::subset_nnls(g, c, k, b2, &subset_cache_, res, s);
  for (std::size_t i = 0; i < count; ++i) {
    residuals[i] = res[i];
    for (std::size_t j = 0; j < k; ++j) {
      stretches[i * k + j] = s[j * lanes + i];
    }
  }
}

double ConditionalFit::evaluate_into(std::span<const double> candidate_column,
                                     double* stretches) const {
  const std::size_t kf = fixed_count_;
  const std::size_t k = kf + 1;
  if (k <= kGramEnumerationLimit) {
    double residual = 0.0;
    score_lanes(&candidate_column, 1, &residual, stretches);
    return residual;
  }
  double cross[kMaxGramUsers];
  double self = 0.0;
  double cb = 0.0;
  candidate_terms(candidate_column, cross, self, cb);
  double g[kMaxGramUsers * kMaxGramUsers];
  double c[kMaxGramUsers];
  assemble(cross, self, cb, g, c, 1, 0);

  const double b2 = obj_->measured_norm() * obj_->measured_norm();
  const std::span<const double> gs(g, k * k);
  const std::span<const double> cs(c, k);
  // The prefix is exact when the candidate leaves tol unchanged and its
  // zero-stretch terms add only +-0 to the fixed columns' gradients.
  const auto finite = [](double v) { return std::isfinite(v); };
  if (prefix_iters_ >= 0 && std::abs(cb) <= prefix_cnorm_ && finite(self) &&
      std::all_of(cross, cross + kf, finite)) {
    return evaluate_from_prefix(gs, cs, b2, stretches);
  }
  return nnls_from_gram_into(gs, k, cs, b2, stretches);
}

double ConditionalFit::evaluate_from_prefix(std::span<const double> g,
                                            std::span<const double> c,
                                            double b2, double* s) const {
  const std::size_t kf = fixed_count_;
  const std::size_t k = kf + 1;
  const ActiveSetProblem p{g, k, c, active_set_tol(prefix_cnorm_),
                           active_set_max_iter(k)};
  const auto iters = static_cast<std::size_t>(prefix_iters_);
  const RecordedFactors factors{prefix_passive_.data(),
                                prefix_factor_at_.data(), iters,
                                prefix_factor_.data(), bit(kf)};
  // Replay the candidate's gradient against each recorded pick: the full
  // run follows the prefix until the candidate strictly beats the running
  // maximum, and from there resumes the ordinary loop.
  for (std::size_t it = 0; it < iters; ++it) {
    const double* row = prefix_s_.data() + it * k;
    if (gradient(p, kf, row) > prefix_wmax_[it]) {
      std::copy_n(row, k, s);
      std::uint32_t passive = prefix_passive_[it] | bit(kf);
      solve_inner(p, kf, s, passive, &factors);
      run_active_set(p, static_cast<int>(it) + 1, s, passive, nullptr,
                     &factors);
      return gram_residual(g, k, c, b2, s);
    }
  }
  // The candidate never enters: the final candidate-free iterate.
  std::copy_n(prefix_s_.data() + iters * k, k, s);
  return gram_residual(g, k, c, b2, s);
}

}  // namespace fluxfp::core
