// The only translation unit compiled with architecture flags (see
// cmake/Simd.cmake), and always with -ffp-contract=off: every formula here
// must round exactly like its scalar counterpart, so the compiler may not
// fuse multiply-adds behind our back.

#include "numeric/simd/kernels.hpp"

#include <cmath>
#include <limits>

#include "numeric/simd/simd.hpp"

namespace fluxfp::numeric::simd {

bool enabled() { return kVectorBackend; }

const char* backend_name() { return kBackendName; }

std::size_t lane_count() { return kLanes; }

double dot(const double* a, const double* b, std::size_t n) {
  if (!kVectorBackend) {
    // Strict-determinism mode: the legacy serial accumulation, bit for bit.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }
  // Two independent accumulators hide the add latency; the reduction order
  // (acc0 of even groups, acc1 of odd groups, then (acc0+acc1) summed
  // lane-pair-wise) is fixed and deterministic, but it differs from the
  // serial order — dot results are tolerance-tested across backends.
  DoubleVec acc0 = zero();
  DoubleVec acc1 = zero();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = add(acc0, mul(load(a + i), load(b + i)));
    acc1 = add(acc1, mul(load(a + i + kLanes), load(b + i + kLanes)));
  }
  if (i + kLanes <= n) {
    acc0 = add(acc0, mul(load(a + i), load(b + i)));
    i += kLanes;
  }
  double total = reduce_add(add(acc0, acc1));
  for (; i < n; ++i) {
    total += a[i] * b[i];
  }
  return total;
}

void dot_self_and_b(const double* x, const double* b, std::size_t n,
                    double* self_out, double* xb_out) {
  if (!kVectorBackend) {
    // Identical to two legacy loops: the accumulations are independent.
    double self = 0.0;
    double xb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      self += x[i] * x[i];
      xb += x[i] * b[i];
    }
    *self_out = self;
    *xb_out = xb;
    return;
  }
  DoubleVec self_acc = zero();
  DoubleVec xb_acc = zero();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec xv = load(x + i);
    self_acc = add(self_acc, mul(xv, xv));
    xb_acc = add(xb_acc, mul(xv, load(b + i)));
  }
  double self = reduce_add(self_acc);
  double xb = reduce_add(xb_acc);
  for (; i < n; ++i) {
    self += x[i] * x[i];
    xb += x[i] * b[i];
  }
  *self_out = self;
  *xb_out = xb;
}

void scale_rows(double* out, const double* scale, std::size_t n) {
  // Element-wise multiply: bit-identical in every backend.
  std::size_t i = 0;
  if (kVectorBackend) {
    for (; i + kLanes <= n; i += kLanes) {
      store(out + i, mul(load(out + i), load(scale + i)));
    }
  }
  for (; i < n; ++i) {
    out[i] *= scale[i];
  }
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Scalar replica of FluxModel::shape for the rectangular field, used for
/// remainder lanes. Operation-for-operation the same as the legacy
/// composition (distance -> RectField::boundary_distance -> cap), so tail
/// elements are bit-identical to full vector lanes AND to the scalar path.
/// Returns false on a non-finite node coordinate.
template <bool kInside>
inline bool rect_shape_tail(double sx, double sy, double px, double py,
                            double width, double height, double d_min,
                            double l_degenerate, double qx, double qy,
                            double* out) {
  if (!std::isfinite(qx) || !std::isfinite(qy)) {
    return false;
  }
  const double ddx = sx - qx;
  const double ddy = sy - qy;
  const double d2 = ddx * ddx + ddy * ddy;
  const double d = std::sqrt(d2);
  const double rx = qx - px;
  const double ry = qy - py;
  const double n2 = kInside ? d2 : rx * rx + ry * ry;
  double l = l_degenerate;
  if (n2 > 0.0) {
    const double nrm = kInside ? d : std::sqrt(n2);
    const double ux = rx / nrm;
    const double uy = ry / nrm;
    double t_exit = kInf;
    if (ux > 0.0) {
      t_exit = std::min(t_exit, (width - px) / ux);
    } else if (ux < 0.0) {
      t_exit = std::min(t_exit, -px / ux);
    }
    if (uy > 0.0) {
      t_exit = std::min(t_exit, (height - py) / uy);
    } else if (uy < 0.0) {
      t_exit = std::min(t_exit, -py / uy);
    }
    l = std::max(t_exit, 0.0);
  }
  const double l2_minus_d2 = std::max(l * l - d * d, 0.0);
  *out = l2_minus_d2 / (2.0 * std::max(d, d_min));
  return true;
}

/// Scalar replica of the circular-field shape (distance ->
/// CircleField::boundary_distance -> cap). `c_const` = |p-center|^2 - R^2.
template <bool kInside>
inline bool circle_shape_tail(double sx, double sy, double px, double py,
                              double ocx, double ocy, double c_const,
                              double d_min, double l_degenerate, double qx,
                              double qy, double* out) {
  if (!std::isfinite(qx) || !std::isfinite(qy)) {
    return false;
  }
  const double ddx = sx - qx;
  const double ddy = sy - qy;
  const double d2 = ddx * ddx + ddy * ddy;
  const double d = std::sqrt(d2);
  const double rx = qx - px;
  const double ry = qy - py;
  const double n2 = kInside ? d2 : rx * rx + ry * ry;
  double l = l_degenerate;
  if (n2 > 0.0) {
    const double nrm = kInside ? d : std::sqrt(n2);
    const double ux = rx / nrm;
    const double uy = ry / nrm;
    const double b = ux * ocx + uy * ocy;
    const double disc = std::max(b * b - c_const, 0.0);
    l = std::max(-b + std::sqrt(disc), 0.0);
  }
  const double l2_minus_d2 = std::max(l * l - d * d, 0.0);
  *out = l2_minus_d2 / (2.0 * std::max(d, d_min));
  return true;
}

/// Scalar replica of RssLinkModel::site_shape for remainder lanes —
/// operation-for-operation the same sequence as the model's scalar path,
/// so tail elements are bit-identical to full vector lanes AND to the
/// scalar fallback loop. Returns false on a non-finite endpoint.
inline bool rss_link_tail(double sx, double sy, double inv_lambda,
                          double min_link, double ax, double ay, double bx,
                          double by, double* out) {
  if (!std::isfinite(ax) || !std::isfinite(ay) || !std::isfinite(bx) ||
      !std::isfinite(by)) {
    return false;
  }
  const double dax = sx - ax;
  const double day = sy - ay;
  const double da = std::sqrt(dax * dax + day * day);
  const double dbx = sx - bx;
  const double dby = sy - by;
  const double db = std::sqrt(dbx * dbx + dby * dby);
  const double abx = ax - bx;
  const double aby = ay - by;
  const double dab = std::sqrt(abx * abx + aby * aby);
  const double excess = (da + db - dab) * inv_lambda;
  const double gate = std::max(1.0 - excess, 0.0);
  *out = gate / std::sqrt(std::max(dab, min_link));
  return true;
}

/// Scalar replica of PassiveTraceModel::site_shape for remainder lanes.
inline bool detect_tail(double sx, double sy, double inv_r2, double ax,
                        double ay, double* out) {
  if (!std::isfinite(ax) || !std::isfinite(ay)) {
    return false;
  }
  const double dx = sx - ax;
  const double dy = sy - ay;
  const double d2 = dx * dx + dy * dy;
  *out = std::max(1.0 - d2 * inv_r2, 0.0);
  return true;
}

/// Relative margin of the exit-axis test (DESIGN.md §14). The rounded
/// chains num / (r / nrm) move the ratio t_x / t_y by at most ~5 ulp
/// (a factor below 1 + 2^-50.6), so a product that undercuts the other by
/// 2^-40 picks the axis whose rounded exit min() would return.
constexpr double kExitMargin = 1.0 - 0x1p-40;
/// Products and quotients must exceed this to stay normal, where every
/// rounding has relative error at most 2^-53 as the bound assumes.
constexpr double kNormalFloor = 0x1p-1020;

/// Per-lane choice of the rect slab exit without dividing. t_x < t_y
/// exactly when P = |num_x| |r_y| < Q = |num_y| |r_x| (the ray norm
/// cancels). `decided` is set where one product wins by the margin and
/// the bound's premises hold: P and Q normal and finite (so no r or num
/// is ±0), both quotients |r| / nrm normal (so nrm is finite), and a
/// non-degenerate ray (n2 > 0).
struct ExitAxis {
  LaneMask x;
  LaneMask decided;
};

inline ExitAxis pick_exit_axis(DoubleVec ax, DoubleVec ay, DoubleVec bx,
                               DoubleVec by, DoubleVec nrm, DoubleVec n2) {
  const DoubleVec margin = broadcast(kExitMargin);
  const DoubleVec floor = broadcast(kNormalFloor);
  const DoubleVec p = mul(bx, ay);
  const DoubleVec q = mul(by, ax);
  const LaneMask x_wins = cmp_lt(p, mul(q, margin));
  const LaneMask y_wins = cmp_lt(q, mul(p, margin));
  const LaneMask products_normal =
      mask_and(cmp_gt(min(p, q), floor), cmp_lt(max(p, q), broadcast(kInf)));
  const LaneMask quotients_normal = cmp_gt(min(ax, ay), mul(nrm, floor));
  const LaneMask ok = mask_and(mask_and(products_normal, quotients_normal),
                               cmp_gt(n2, zero()));
  return {x_wins, mask_and(mask_or(x_wins, y_wins), ok)};
}

/// The rect row body. kInside: the sink is its own clamp (sx == px and
/// sy == py), so q - p is -(s - q) exactly, the ray's squared norm is d^2
/// and its norm is d, bit for bit; only a sink outside the field pays the
/// second sqrt.
///
/// Only min(t_x, t_y) survives, so a vector whose lanes all pass
/// pick_exit_axis divides for the winning axis alone: the same two IEEE
/// divisions r / nrm and num / u as the full path, hence the same double,
/// at 3 divides per element instead of 5. Any undecided lane sends its
/// vector through the full two-axis path.
template <bool kInside>
bool rect_row(double sx, double sy, double px, double py, double width,
              double height, double d_min, double l_degenerate,
              const double* qx, const double* qy, std::size_t n,
              double* out) {
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vpx = broadcast(px);
  const DoubleVec vpy = broadcast(py);
  // (width - px) and -px are per-row constants; hoisting them out of the
  // loop reproduces the per-element scalar arithmetic exactly because the
  // operands never change.
  const DoubleVec vwx = broadcast(width - px);
  const DoubleVec vnx = broadcast(-px);
  const DoubleVec vhy = broadcast(height - py);
  const DoubleVec vny = broadcast(-py);
  const DoubleVec vawx = abs(vwx);
  const DoubleVec vanx = abs(vnx);
  const DoubleVec vahy = abs(vhy);
  const DoubleVec vany = abs(vny);
  const DoubleVec vldeg = broadcast(l_degenerate);
  const DoubleVec vdmin = broadcast(d_min);
  const DoubleVec vtwo = broadcast(2.0);
  const DoubleVec vinf = broadcast(kInf);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec x = load(qx + i);
    const DoubleVec y = load(qy + i);
    // NaN/inf nodes as a lane mask: any bad lane aborts the whole row so
    // the caller's scalar loop can reproduce the legacy throw.
    if (!all_lanes(mask_and(finite_mask(x), finite_mask(y)))) {
      return false;
    }
    const DoubleVec ddx = sub(vsx, x);
    const DoubleVec ddy = sub(vsy, y);
    const DoubleVec d2 = add(mul(ddx, ddx), mul(ddy, ddy));
    const DoubleVec d = sqrt(d2);
    const DoubleVec rx = sub(x, vpx);
    const DoubleVec ry = sub(y, vpy);
    const DoubleVec n2 = kInside ? d2 : add(mul(rx, rx), mul(ry, ry));
    const DoubleVec nrm = kInside ? d : sqrt(n2);
    // p = clamp(sink) lies in the field, so on a decided lane num and
    // u = r / nrm share a sign and num / u is |num| / |u| bit for bit:
    // only magnitudes are needed, |width - px| heading +x, |px| heading -x.
    const DoubleVec ax = abs(rx);
    const DoubleVec ay = abs(ry);
    const DoubleVec bx = blend(cmp_gt(rx, vzero), vawx, vanx);
    const DoubleVec by = blend(cmp_gt(ry, vzero), vahy, vany);
    const ExitAxis axis = pick_exit_axis(ax, ay, bx, by, nrm, n2);
    DoubleVec l;
    if (all_lanes(axis.decided)) {
      const DoubleVec u = div(blend(axis.x, ax, ay), nrm);
      l = div(blend(axis.x, bx, by), u);
    } else {
      const DoubleVec ux = div(rx, nrm);
      const DoubleVec uy = div(ry, nrm);
      // Slab exits: numerator (width-px) for ux > 0, -px for ux < 0; a
      // zero component leaves that axis at +inf exactly like the scalar
      // branches.
      DoubleVec tx = div(blend(cmp_gt(ux, vzero), vwx, vnx), ux);
      tx = blend(cmp_eq(ux, vzero), vinf, tx);
      DoubleVec ty = div(blend(cmp_gt(uy, vzero), vhy, vny), uy);
      ty = blend(cmp_eq(uy, vzero), vinf, ty);
      const DoubleVec t_exit = min(min(vinf, tx), ty);
      const DoubleVec l_ray = max(t_exit, vzero);
      // Degenerate node == clamped-sink lanes take the nearest-boundary
      // fallback, exactly like boundary_distance_through.
      l = blend(cmp_gt(n2, vzero), l_ray, vldeg);
    }
    // max(0, x) is std::max(x, 0.0) for every x, NaN included: a d^2 that
    // overflows makes l^2 - d^2 = inf - inf, and the scalar path keeps it.
    const DoubleVec l2md2 = max(vzero, sub(mul(l, l), mul(d, d)));
    store(out + i, div(l2md2, mul(vtwo, max(d, vdmin))));
  }
  for (; i < n; ++i) {
    if (!rect_shape_tail<kInside>(sx, sy, px, py, width, height, d_min,
                                  l_degenerate, qx[i], qy[i], out + i)) {
      return false;
    }
  }
  return true;
}

/// The circle row body; kInside as for rect_row.
template <bool kInside>
bool circle_row(double sx, double sy, double px, double py, double cx,
                double cy, double radius, double d_min, double l_degenerate,
                const double* qx, const double* qy, std::size_t n,
                double* out) {
  // oc = clamped sink - center and c = |oc|^2 - R^2 are per-row scalars,
  // computed with the same expressions as CircleField::boundary_distance.
  const double ocx = px - cx;
  const double ocy = py - cy;
  const double c_const = (ocx * ocx + ocy * ocy) - radius * radius;
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vpx = broadcast(px);
  const DoubleVec vpy = broadcast(py);
  const DoubleVec vocx = broadcast(ocx);
  const DoubleVec vocy = broadcast(ocy);
  const DoubleVec vc = broadcast(c_const);
  const DoubleVec vldeg = broadcast(l_degenerate);
  const DoubleVec vdmin = broadcast(d_min);
  const DoubleVec vtwo = broadcast(2.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec x = load(qx + i);
    const DoubleVec y = load(qy + i);
    if (!all_lanes(mask_and(finite_mask(x), finite_mask(y)))) {
      return false;
    }
    const DoubleVec ddx = sub(vsx, x);
    const DoubleVec ddy = sub(vsy, y);
    const DoubleVec d2 = add(mul(ddx, ddx), mul(ddy, ddy));
    const DoubleVec d = sqrt(d2);
    const DoubleVec rx = sub(x, vpx);
    const DoubleVec ry = sub(y, vpy);
    const DoubleVec n2 = kInside ? d2 : add(mul(rx, rx), mul(ry, ry));
    const DoubleVec nrm = kInside ? d : sqrt(n2);
    const DoubleVec ux = div(rx, nrm);
    const DoubleVec uy = div(ry, nrm);
    const DoubleVec b = add(mul(ux, vocx), mul(uy, vocy));
    // max(vzero, x) is std::max(x, 0.0): a NaN x (an overflowed c or
    // l^2 - d^2) stays NaN as in the scalar shape.
    const DoubleVec disc = max(vzero, sub(mul(b, b), vc));
    const DoubleVec l_ray = max(vzero, add(neg(b), sqrt(disc)));
    const DoubleVec l = blend(cmp_gt(n2, vzero), l_ray, vldeg);
    const DoubleVec l2md2 = max(vzero, sub(mul(l, l), mul(d, d)));
    store(out + i, div(l2md2, mul(vtwo, max(d, vdmin))));
  }
  for (; i < n; ++i) {
    if (!circle_shape_tail<kInside>(sx, sy, px, py, ocx, ocy, c_const, d_min,
                                    l_degenerate, qx[i], qy[i], out + i)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool rect_shape_row(double sx, double sy, double px, double py, double width,
                    double height, double d_min, double l_degenerate,
                    const double* qx, const double* qy, std::size_t n,
                    double* out) {
  if (!kVectorBackend) {
    return false;  // strict-determinism mode: caller runs the legacy loop
  }
  return sx == px && sy == py
             ? rect_row<true>(sx, sy, px, py, width, height, d_min,
                              l_degenerate, qx, qy, n, out)
             : rect_row<false>(sx, sy, px, py, width, height, d_min,
                               l_degenerate, qx, qy, n, out);
}

bool circle_shape_row(double sx, double sy, double px, double py, double cx,
                      double cy, double radius, double d_min,
                      double l_degenerate, const double* qx, const double* qy,
                      std::size_t n, double* out) {
  if (!kVectorBackend) {
    return false;
  }
  return sx == px && sy == py
             ? circle_row<true>(sx, sy, px, py, cx, cy, radius, d_min,
                                l_degenerate, qx, qy, n, out)
             : circle_row<false>(sx, sy, px, py, cx, cy, radius, d_min,
                                 l_degenerate, qx, qy, n, out);
}

bool rss_link_shape_row(double sx, double sy, double inv_lambda,
                        double min_link, const double* ax, const double* ay,
                        const double* bx, const double* by, std::size_t n,
                        double* out) {
  if (!kVectorBackend) {
    return false;  // strict-determinism mode: caller runs the scalar loop
  }
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vinvl = broadcast(inv_lambda);
  const DoubleVec vminl = broadcast(min_link);
  const DoubleVec vone = broadcast(1.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec eax = load(ax + i);
    const DoubleVec eay = load(ay + i);
    const DoubleVec ebx = load(bx + i);
    const DoubleVec eby = load(by + i);
    if (!all_lanes(mask_and(mask_and(finite_mask(eax), finite_mask(eay)),
                            mask_and(finite_mask(ebx), finite_mask(eby))))) {
      return false;
    }
    const DoubleVec dax = sub(vsx, eax);
    const DoubleVec day = sub(vsy, eay);
    const DoubleVec da = sqrt(add(mul(dax, dax), mul(day, day)));
    const DoubleVec dbx = sub(vsx, ebx);
    const DoubleVec dby = sub(vsy, eby);
    const DoubleVec db = sqrt(add(mul(dbx, dbx), mul(dby, dby)));
    const DoubleVec abx = sub(eax, ebx);
    const DoubleVec aby = sub(eay, eby);
    const DoubleVec dab = sqrt(add(mul(abx, abx), mul(aby, aby)));
    const DoubleVec excess = mul(sub(add(da, db), dab), vinvl);
    const DoubleVec gate = max(sub(vone, excess), vzero);
    store(out + i, div(gate, sqrt(max(dab, vminl))));
  }
  for (; i < n; ++i) {
    if (!rss_link_tail(sx, sy, inv_lambda, min_link, ax[i], ay[i], bx[i],
                       by[i], out + i)) {
      return false;
    }
  }
  return true;
}

bool detect_shape_row(double sx, double sy, double inv_r2, const double* ax,
                      const double* ay, std::size_t n, double* out) {
  if (!kVectorBackend) {
    return false;
  }
  const DoubleVec vsx = broadcast(sx);
  const DoubleVec vsy = broadcast(sy);
  const DoubleVec vinvr2 = broadcast(inv_r2);
  const DoubleVec vone = broadcast(1.0);
  const DoubleVec vzero = zero();

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const DoubleVec x = load(ax + i);
    const DoubleVec y = load(ay + i);
    if (!all_lanes(mask_and(finite_mask(x), finite_mask(y)))) {
      return false;
    }
    const DoubleVec dx = sub(vsx, x);
    const DoubleVec dy = sub(vsy, y);
    const DoubleVec d2 = add(mul(dx, dx), mul(dy, dy));
    store(out + i, max(sub(vone, mul(d2, vinvr2)), vzero));
  }
  for (; i < n; ++i) {
    if (!detect_tail(sx, sy, inv_r2, ax[i], ay[i], out + i)) {
      return false;
    }
  }
  return true;
}

// --- Subset-enumeration NNLS ----------------------------------------------

namespace {

static_assert(kLanes <= kMaxLanes, "lane packs are sized by kMaxLanes");

/// Entry e of a lane-interleaved pack, or of one scalar problem repeated
/// in every lane.
template <bool kPacked>
DoubleVec lanes_at(const double* p, std::size_t e) {
  if constexpr (kPacked) {
    return load(p + e * kLanes);
  } else {
    return broadcast(p[e]);
  }
}

/// std::max(a, 0.0) per lane: a < 0 ? 0 : a, so -0.0 and NaN pass through.
DoubleVec max_zero(DoubleVec a) { return blend(cmp_lt(a, zero()), zero(), a); }

double first_lane(DoubleVec a) {
  double lanes[kLanes];
  store(lanes, a);
  return lanes[0];
}

/// Cholesky solve G[idx] z = c[idx] on the M-column support idx, in every
/// lane: the factorization, the forward and the back substitution
/// operation for operation as the scalar factor_support and
/// back_substitute of core/nls.cpp. Returns the feasible lanes: every
/// pivot above 1e-14 and no z entry below zero. *sc receives
/// sum_t z_t c_idx[t], folded from 0 in support order.
template <std::size_t M, bool kPacked>
LaneMask solve_support(const double* g, const double* c, std::size_t k,
                       const std::size_t* idx, DoubleVec* z, DoubleVec* sc) {
  DoubleVec l[M][M];
  LaneMask ok{};
  for (std::size_t j = 0; j < M; ++j) {
    DoubleVec diag = lanes_at<kPacked>(g, idx[j] * k + idx[j]);
    for (std::size_t t = 0; t < j; ++t) {
      diag = sub(diag, mul(l[j][t], l[j][t]));
    }
    const LaneMask pivot = cmp_gt(diag, broadcast(1e-14));
    ok = j == 0 ? pivot : mask_and(ok, pivot);
    if (!any_lane(ok)) {
      for (std::size_t t = 0; t < M; ++t) {
        z[t] = zero();
      }
      *sc = zero();
      return ok;
    }
    l[j][j] = sqrt(diag);
    for (std::size_t i = j + 1; i < M; ++i) {
      DoubleVec v = lanes_at<kPacked>(g, idx[i] * k + idx[j]);
      for (std::size_t t = 0; t < j; ++t) {
        v = sub(v, mul(l[i][t], l[j][t]));
      }
      l[i][j] = div(v, l[j][j]);
    }
  }
  DoubleVec y[M];
  for (std::size_t i = 0; i < M; ++i) {
    DoubleVec v = lanes_at<kPacked>(c, idx[i]);
    for (std::size_t t = 0; t < i; ++t) {
      v = sub(v, mul(l[i][t], y[t]));
    }
    y[i] = div(v, l[i][i]);
  }
  for (std::size_t ii = M; ii-- > 0;) {
    DoubleVec v = y[ii];
    for (std::size_t t = ii + 1; t < M; ++t) {
      v = sub(v, mul(l[t][ii], z[t]));
    }
    z[ii] = div(v, l[ii][ii]);
  }
  DoubleVec acc = zero();
  for (std::size_t t = 0; t < M; ++t) {
    ok = mask_andnot(ok, cmp_lt(z[t], zero()));
    acc = add(acc, mul(z[t], lanes_at<kPacked>(c, idx[t])));
  }
  *sc = acc;
  return ok;
}

/// solve_support on the slots of `mask` (non-empty), scattered into the
/// k-slot stretch vector x (zero off the support).
template <bool kPacked>
LaneMask solve_mask(const double* g, const double* c, std::size_t k,
                    std::uint32_t mask, DoubleVec* x, DoubleVec* sc) {
  std::size_t idx[kSubsetMaxK];
  std::size_t m = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (mask & (std::uint32_t{1} << j)) {
      idx[m++] = j;
    }
  }
  DoubleVec z[kSubsetMaxK];
  LaneMask ok{};
  switch (m) {
    case 1: ok = solve_support<1, kPacked>(g, c, k, idx, z, sc); break;
    case 2: ok = solve_support<2, kPacked>(g, c, k, idx, z, sc); break;
    case 3: ok = solve_support<3, kPacked>(g, c, k, idx, z, sc); break;
    case 4: ok = solve_support<4, kPacked>(g, c, k, idx, z, sc); break;
    case 5: ok = solve_support<5, kPacked>(g, c, k, idx, z, sc); break;
    default: ok = solve_support<6, kPacked>(g, c, k, idx, z, sc); break;
  }
  for (std::size_t j = 0; j < k; ++j) {
    x[j] = zero();
  }
  for (std::size_t t = 0; t < m; ++t) {
    x[idx[t]] = z[t];
  }
  return ok;
}

}  // namespace

void build_subset_cache(const double* g, const double* c, std::size_t k,
                        std::size_t vary, SubsetCache& cache) {
  cache.vary_bit = std::uint32_t{1} << vary;
  cache.feasible = 0;
  const std::uint32_t full = (std::uint32_t{1} << k) - 1;
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    if (mask & cache.vary_bit) {
      continue;
    }
    DoubleVec x[kSubsetMaxK];
    DoubleVec sc = zero();
    // Every lane holds the same problem, so lane 0 speaks for all.
    if (!any_lane(solve_mask<false>(g, c, k, mask, x, &sc))) {
      continue;
    }
    cache.feasible |= std::uint64_t{1} << mask;
    cache.sc[mask] = first_lane(sc);
    for (std::size_t j = 0; j < k; ++j) {
      cache.x[mask * kSubsetMaxK + j] = first_lane(x[j]);
    }
  }
}

void subset_nnls(const double* g, const double* c, std::size_t k, double b2,
                 const SubsetCache* cache, double* residual, double* s) {
  const std::uint32_t full = (std::uint32_t{1} << k) - 1;
  const DoubleVec vb2 = broadcast(b2);
  // Fast path: where the all-k solve is feasible it is the NNLS optimum.
  DoubleVec fast_x[kSubsetMaxK];
  DoubleVec sc = zero();
  const LaneMask fast = solve_mask<true>(g, c, k, full, fast_x, &sc);
  const DoubleVec fast_res = sqrt(max_zero(sub(vb2, sc)));
  if (all_lanes(fast)) {
    store(residual, fast_res);
    for (std::size_t j = 0; j < k; ++j) {
      store(s + j * kLanes, fast_x[j]);
    }
    return;
  }
  // Enumeration: the empty support scores b2 with s = 0; a support solved
  // exactly scores b2 - s^T c, and a strictly lower score replaces the
  // lane's best in ascending mask order.
  DoubleVec best_r2 = vb2;
  DoubleVec best[kSubsetMaxK];
  for (std::size_t j = 0; j < k; ++j) {
    best[j] = zero();
  }
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    DoubleVec x[kSubsetMaxK];
    DoubleVec r2 = vb2;
    LaneMask take{};
    if (cache != nullptr && (mask & cache->vary_bit) == 0) {
      if (((cache->feasible >> mask) & 1u) == 0) {
        continue;
      }
      r2 = broadcast(b2 - cache->sc[mask]);
      take = cmp_lt(r2, best_r2);
      for (std::size_t j = 0; j < k; ++j) {
        x[j] = broadcast(cache->x[mask * kSubsetMaxK + j]);
      }
    } else {
      const LaneMask ok = solve_mask<true>(g, c, k, mask, x, &sc);
      r2 = sub(vb2, sc);
      take = mask_and(ok, cmp_lt(r2, best_r2));
    }
    best_r2 = blend(take, r2, best_r2);
    for (std::size_t j = 0; j < k; ++j) {
      best[j] = blend(take, x[j], best[j]);
    }
  }
  store(residual, blend(fast, fast_res, sqrt(max_zero(best_r2))));
  for (std::size_t j = 0; j < k; ++j) {
    store(s + j * kLanes, blend(fast, fast_x[j], best[j]));
  }
}

}  // namespace fluxfp::numeric::simd
