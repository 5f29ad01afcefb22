#pragma once

#include <cstddef>
#include <cstdint>

// Vectorized inner-loop kernels behind a plain-function interface: the
// rest of the tree calls these without ever seeing an intrinsic type, so
// every translation unit outside src/numeric/simd/ compiles identically
// under every backend. The single implementation TU (kernels.cpp) is the
// only file compiled with architecture flags, and always with
// -ffp-contract=off — no hidden FMA contraction can make a "bit-identical
// element-wise kernel" quietly diverge from the scalar formula.
//
// Numeric contract (DESIGN.md §14):
//  * In the scalar backend (FLUXFP_SIMD=OFF), dot()/dot_self_and_b()/
//    scale_rows() run the exact legacy accumulation loops, and the shape
//    kernels report "not handled" so callers take the pre-SIMD scalar
//    path: a scalar build is bit-identical to the pre-SIMD tree. This is
//    the strict-determinism mode.
//  * In a vector backend, the shape kernels are element-wise over lanes
//    with the same operation sequence as FluxModel::shape, so their
//    outputs are bit-identical to the scalar formula; dot products use
//    multi-lane accumulators, which changes the summation ORDER (not the
//    inputs) — those results are equivalence-tested under a tolerance,
//    never assumed bit-equal across backends.
//  * subset_nnls has no reduction across lanes: each lane runs the scalar
//    enumeration's operations in order, so every backend, the scalar one
//    included, returns the same bits. It has no scalar twin and never
//    declines.
//  * Non-finite inputs (NaN missing-reading sentinels, inf) are detected
//    via lane masks and make the shape kernels return false; out[] may
//    hold partial results for the lane groups already processed. The
//    caller falls back to the scalar loop, which preserves the legacy
//    throw-on-non-finite behavior exactly (and itself leaves partial
//    writes behind when it throws).

namespace fluxfp::numeric::simd {

/// True when a vector backend (AVX2/SSE2/NEON) was selected at configure
/// time; false for the scalar strict-determinism build.
bool enabled();

/// "avx2", "sse2", "neon", or "scalar".
const char* backend_name();

/// Vector width in doubles (1 for the scalar backend).
std::size_t lane_count();

/// sum_i a[i] * b[i]. Scalar backend: the legacy serial accumulation.
double dot(const double* a, const double* b, std::size_t n);

/// One-pass fused self- and cross-product: *self_out = sum x[i]^2,
/// *xb_out = sum x[i] * b[i]. The two accumulations are independent, so
/// the scalar backend's fused loop is bit-identical to two separate
/// legacy loops.
void dot_self_and_b(const double* x, const double* b, std::size_t n,
                    double* self_out, double* xb_out);

/// out[i] *= scale[i] — the reweighted-objective row scaling.
void scale_rows(double* out, const double* scale, std::size_t n);

/// Rectangular-field shape row: out[i] = phi(sink, q_i) for the
/// [0,width] x [0,height] field, where (sx, sy) is the raw sink,
/// (px, py) = clamp(sink) and l_degenerate is the field's
/// nearest-boundary distance at the clamped sink (the q == p ray
/// fallback). Returns false — leaving out[] in an unspecified state — when
/// the backend is scalar or any input coordinate is non-finite; the caller
/// must then run the scalar FluxModel::shape loop.
///
/// Only the nearer slab exit min(t_x, t_y) enters phi, so a vector whose
/// lanes all pass a division-free test (|num_x| |r_y| against
/// |num_y| |r_x| with a 2^-40 relative margin, every operand normal and
/// finite) divides for that axis alone: 1 sqrt and 3 divides per element
/// instead of 1 and 5, with the same IEEE quotients and so the same bits.
/// Any other vector takes the two-axis path (DESIGN.md §14).
bool rect_shape_row(double sx, double sy, double px, double py, double width,
                    double height, double d_min, double l_degenerate,
                    const double* qx, const double* qy, std::size_t n,
                    double* out);

/// Circular-field shape row; (cx, cy) is the field center, radius its
/// radius. Same contract as rect_shape_row.
bool circle_shape_row(double sx, double sy, double px, double py, double cx,
                      double cy, double radius, double d_min,
                      double l_degenerate, const double* qx, const double* qy,
                      std::size_t n, double* out);

/// RSS link-attenuation shape row (core::RssLinkModel): out[i] is the
/// ellipse-gated link-shadowing weight of the sink (sx, sy) on the link
/// with endpoints (ax[i], ay[i])-(bx[i], by[i]). Same return-false
/// contract as rect_shape_row (scalar backend or non-finite endpoint).
bool rss_link_shape_row(double sx, double sy, double inv_lambda,
                        double min_link, const double* ax, const double* ay,
                        const double* bx, const double* by, std::size_t n,
                        double* out);

/// Passive-detection shape row (core::PassiveTraceModel): out[i] is the
/// truncated-quadratic detection kernel of the sink (sx, sy) at the
/// sniffer (ax[i], ay[i]), inv_r2 = 1 / R^2. Same return-false contract
/// as rect_shape_row.
bool detect_shape_row(double sx, double sy, double inv_r2, const double* ax,
                      const double* ay, std::size_t n, double* out);

/// Largest k the subset-enumeration NNLS takes: it solves up to 2^k - 1
/// supports per problem.
inline constexpr std::size_t kSubsetMaxK = 6;
/// Largest lane_count() of any backend; sizes the callers' lane packs.
inline constexpr std::size_t kMaxLanes = 4;

/// The supports of a k <= kSubsetMaxK problem that leave out one slot (the
/// conditional fit's candidate), solved once by build_subset_cache and
/// then shared by every problem that differs from it only in that slot's
/// row and column. Support `mask` is a k-bit set of slots.
struct SubsetCache {
  std::uint32_t vary_bit = 0;  ///< supports without this bit are cached
  std::uint64_t feasible = 0;  ///< bit `mask`: support `mask` is feasible
  double sc[std::size_t{1} << kSubsetMaxK];  ///< s^T c of a feasible support
  /// Its k stretches (zero off the support), row `mask` of stride
  /// kSubsetMaxK.
  double x[(std::size_t{1} << kSubsetMaxK) * kSubsetMaxK];
};

/// Solves every support of the k x k problem (g row-major, c) that leaves
/// out slot `vary`, with the arithmetic of subset_nnls, into `cache`.
void build_subset_cache(const double* g, const double* c, std::size_t k,
                        std::size_t vary, SubsetCache& cache);

/// NNLS in Gram space (min ||A s - b|| over s >= 0 from G = A^T A,
/// c = A^T b and b2 = ||b||^2) for lane_count() problems of size
/// k <= kSubsetMaxK at once, by support enumeration. g and c are
/// lane-interleaved: entry e of lane p's row-major G at g[e * lanes + p],
/// of its c at c[e * lanes + p]. Per lane: if the all-k solve is SPD and
/// has no negative entry it is the answer; otherwise every support in
/// ascending mask order, keeping the first strict minimum of
/// b2 - s^T c, with s = 0 and b2 when none is feasible. A support is
/// feasible when each Cholesky pivot exceeds 1e-14 and no stretch is
/// negative. Every lane runs exactly the operations of the scalar solve,
/// so results are bit-identical to it on every backend (kLanes is 1 in
/// the scalar one). With `cache`, the supports it holds are read from it
/// instead of solved. Writes residual[p] = sqrt(max(r2, 0)) and the
/// stretches at s[j * lanes + p]. Never declines.
void subset_nnls(const double* g, const double* c, std::size_t k, double b2,
                 const SubsetCache* cache, double* residual, double* s);

}  // namespace fluxfp::numeric::simd
