// Adversarial exactness suite for the rect shape row's exit-axis fast path
// (DESIGN.md section 14). The kernel divides for one slab axis only when a
// division-free product test, with a 2^-40 relative margin, names the axis
// whose rounded exit min() would return; otherwise the vector takes the
// two-axis path. Either way every output must be byte-identical to the
// scalar FluxModel::shape, so each case here is compared with memcmp, for
// a sink inside the field (its own clamp) and one outside (clamped first),
// at every row length n in [1, 19] so that each node passes through every
// lane position and the scalar tail. CircleRow.* holds the circle row to
// the same standard at extreme scales.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/flux_model.hpp"
#include "geom/field.hpp"
#include "geom/vec2.hpp"
#include "numeric/simd/kernels.hpp"

namespace fluxfp {
namespace {

namespace simd = numeric::simd;

constexpr std::size_t kMaxRow = 19;

struct Row {
  std::vector<double> qx;
  std::vector<double> qy;
  void add(geom::Vec2 q) {
    qx.push_back(q.x);
    qy.push_back(q.y);
  }
};

/// Counts elements of shape_row(sink, row[0..n)) whose bytes differ from
/// shape(sink, row[i]). In the scalar build the kernel must decline.
std::size_t mismatches(const core::FluxModel& model, geom::Vec2 sink,
                       const double* qx, const double* qy, std::size_t n) {
  std::array<double, 64> out{};
  EXPECT_LE(n, out.size());
  if (!model.shape_row(sink, qx, qy, n, out.data())) {
    EXPECT_FALSE(simd::enabled());
    return 0;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = model.shape(sink, {qx[i], qy[i]});
    if (std::memcmp(&out[i], &expected, sizeof(double)) != 0) {
      ADD_FAILURE() << "sink=(" << sink.x << "," << sink.y << ") q=("
                    << qx[i] << "," << qy[i] << ") n=" << n << " i=" << i
                    << ": " << out[i] << " vs " << expected;
      ++bad;
    }
  }
  return bad;
}

/// Every window of the row, at every length in [1, 19]: each node lands in
/// every lane position and in the scalar tail.
void expect_rows_exact(const core::FluxModel& model, geom::Vec2 sink,
                       const Row& row) {
  std::size_t bad = 0;
  for (std::size_t start = 0; start < row.qx.size(); ++start) {
    const std::size_t room = row.qx.size() - start;
    for (std::size_t n = 1; n <= std::min(kMaxRow, room); ++n) {
      bad += mismatches(model, sink, row.qx.data() + start,
                        row.qy.data() + start, n);
      if (bad > 0) {
        return;  // one reported mismatch is enough to read
      }
    }
  }
}

double nudge(double v, int ulps) {
  const double toward = ulps > 0 ? INFINITY : -INFINITY;
  for (int k = 0; k < std::abs(ulps); ++k) {
    v = std::nextafter(v, toward);
  }
  return v;
}

/// Nodes on rays from p toward each corner, each coordinate moved by up to
/// two ulps: the slab exits t_x and t_y agree to within a few ulps.
Row near_corner_nodes(const geom::RectField& field, geom::Vec2 p,
                      std::uint64_t seed, std::size_t count) {
  const std::array<geom::Vec2, 4> corners = {
      geom::Vec2{0.0, 0.0}, geom::Vec2{field.width(), 0.0},
      geom::Vec2{0.0, field.height()},
      geom::Vec2{field.width(), field.height()}};
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> frac(0.05, 0.95);
  std::uniform_int_distribution<int> ulps(-2, 2);
  Row row;
  while (row.qx.size() < count) {
    const geom::Vec2 c = corners[gen() % 4];
    if (c.x == p.x || c.y == p.y) {
      continue;  // the ray to this corner runs along an edge
    }
    const double s = frac(gen);
    row.add({nudge(p.x + s * (c.x - p.x), ulps(gen)),
             nudge(p.y + s * (c.y - p.y), ulps(gen))});
  }
  return row;
}

TEST(RectExitAxis, NearCornerRaysMatchShapeBitForBit) {
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  const std::vector<geom::Vec2> sinks = {
      {11.0, 8.0}, {0.1, 19.9}, {29.5, 0.25}, {15.0, 10.0},  // inside
      {-4.0, 8.0}, {31.0, -2.0}, {12.0, 25.0}, {40.0, 10.0}};  // outside
  std::uint64_t seed = 1;
  for (const geom::Vec2 sink : sinks) {
    const geom::Vec2 p = field.clamp(sink);
    expect_rows_exact(model, sink, near_corner_nodes(field, p, seed++, 40));
  }
}

TEST(RectExitAxis, AxisAlignedRaysAndSinksOnEachEdge) {
  // r = +-0 on one axis (node straight above, below or beside p) and
  // num = 0 (p on the edge the ray heads for), in every combination.
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  const std::vector<geom::Vec2> sinks = {
      // on each edge and corner (inside instantiation)
      {0.0, 7.5}, {30.0, 7.5}, {12.0, 0.0}, {12.0, 20.0}, {0.0, 0.0},
      {30.0, 20.0}, {-0.0, 5.0}, {12.0, -0.0}, {11.0, 8.0},
      // outside, clamped onto each edge and corner
      {-3.0, 7.5}, {33.0, 7.5}, {12.0, -4.0}, {12.0, 24.0}, {-1.0, -1.0},
      {35.0, 21.0}};
  for (const geom::Vec2 sink : sinks) {
    const geom::Vec2 p = field.clamp(sink);
    Row row;
    for (const double v : {0.0, 3.0, 7.5, 11.0, 20.0, 29.0, 30.0}) {
      row.add({p.x, std::min(v, 20.0)});   // vertical ray (r_x = 0)
      row.add({v, p.y});                   // horizontal ray (r_y = 0)
      row.add({-0.0 * v + p.x, v / 1.5});  // -0 + p.x where p.x = 0
    }
    row.add({0.0, 0.0});
    row.add({30.0, 20.0});
    row.add({30.0, 0.0});
    row.add({0.0, 20.0});
    row.add({-0.0, -0.0});
    expect_rows_exact(model, sink, row);
  }
}

TEST(RectExitAxis, DegenerateRaysAndExtremeScales) {
  {
    // A node on the sink (d = 0, the degenerate-ray fallback) and nodes
    // 1e-300 away, whose squared offsets underflow.
    const geom::RectField field(30.0, 20.0);
    const core::FluxModel model(field, 1.2);
    for (const geom::Vec2 sink :
         {geom::Vec2{7.25, 4.5}, geom::Vec2{0.0, 0.0}, geom::Vec2{1e-300, 0.0},
          geom::Vec2{-5.0, 4.5}}) {
      const geom::Vec2 p = field.clamp(sink);
      Row row;
      row.add(p);
      row.add(sink);
      row.add({p.x + 1e-300, p.y});
      row.add({p.x, p.y + 1e-300});
      row.add({p.x + 1e-300, p.y + 3e-300});
      row.add({p.x + 1e-300, p.y + 5.0});
      row.add({p.x + 5.0, p.y + 1e-300});
      row.add({2e-300, 1e-300});
      row.add({p.x + 3.0, p.y + 4.0});
      row.add({1.0, 1.0});
      expect_rows_exact(model, sink, row);
    }
  }
  // Fields near the top of the range: 1e150 keeps every product finite;
  // 1e160 overflows d^2 and the slab products, so those lanes fall back to
  // the two-axis path and l^2 - d^2 = inf - inf keeps the scalar NaN.
  for (const double scale : {1e150, 1e160}) {
    const geom::RectField field(3.0 * scale, 2.0 * scale);
    const core::FluxModel model(field, 1.2);
    for (const geom::Vec2 sink :
         {geom::Vec2{1.1 * scale, 0.8 * scale}, geom::Vec2{0.0, 0.5 * scale},
          geom::Vec2{-scale, 0.5 * scale}}) {
      const geom::Vec2 p = field.clamp(sink);
      Row row = near_corner_nodes(field, p, 11, 20);
      row.add({0.5 * scale, 1.5 * scale});
      row.add({p.x, 0.25 * scale});
      row.add({2.9 * scale, p.y});
      expect_rows_exact(model, sink, row);
    }
  }
}

TEST(CircleRow, ExtremeScalesMatchShapeBitForBit) {
  // A 1e160-radius circle: R^2 overflows, so c = |oc|^2 - R^2 is -inf for
  // a sink near the center and inf - inf = NaN for one 1e160 away, and
  // l^2 - d^2 is inf - inf between nodes 1e160 apart. The scalar
  // std::max(x, 0.0) keeps each NaN; the vector lanes must too.
  const geom::CircleField field({0.0, 0.0}, 1e160);
  const core::FluxModel model(field, 1.2);
  const double r = 1e160;
  for (const geom::Vec2 sink :
       {geom::Vec2{0.0, 0.0}, geom::Vec2{1.0, -2.0},
        geom::Vec2{0.5 * r, 0.3 * r}, geom::Vec2{-0.2 * r, 0.9 * r},
        geom::Vec2{2.0 * r, 0.0}, geom::Vec2{-1.5 * r, -1.5 * r}}) {
    Row row;
    for (const double f : {-0.9, -0.4, 0.0, 0.35, 0.7}) {
      row.add({f * r, 0.5 * f * r});
      row.add({-0.5 * f * r, f * r});
    }
    row.add({1.0, 1.0});
    row.add({-3.0, 2.0});
    row.add({sink.x + 1.0, sink.y});
    row.add({0.7 * r, -0.7 * r});
    expect_rows_exact(model, sink, row);
  }
}

/// The scalar chain of the slab exits from the clamped sink p, as the
/// two-axis path evaluates it: fl(num / fl(r / nrm)). For a sink inside
/// the field nrm equals d bit for bit, since (-r)^2 = r^2 exactly.
struct Exits {
  double p;  // fl(|num_x| |r_y|)
  double q;  // fl(|num_y| |r_x|)
  double tx;
  double ty;
};

Exits exits(const geom::RectField& field, geom::Vec2 p, geom::Vec2 node) {
  const double rx = node.x - p.x;
  const double ry = node.y - p.y;
  const double nrm = std::sqrt(rx * rx + ry * ry);
  const double numx = rx > 0.0 ? field.width() - p.x : -p.x;
  const double numy = ry > 0.0 ? field.height() - p.y : -p.y;
  return {std::fabs(numx) * std::fabs(ry), std::fabs(numy) * std::fabs(rx),
          numx / (rx / nrm), numy / (ry / nrm)};
}

TEST(RectExitAxis, MarginCarriesWeightOnSearchedNearTies) {
  // A seeded search for rows where the rounded products say "x exits
  // first" (P < Q) while the rounded exits say otherwise (t_x > t_y): a
  // test without the margin would divide for the wrong axis there.
  // Even trials put the sink inside the field, odd ones outside.
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  std::mt19937_64 gen(2024);
  std::uniform_real_distribution<double> in_x(0.5, 29.5);
  std::uniform_real_distribution<double> in_y(0.5, 19.5);
  std::uniform_real_distribution<double> out_x(-10.0, 40.0);
  std::uniform_real_distribution<double> out_y(-10.0, 30.0);
  std::array<std::size_t, 2> found{};
  for (int trial = 0; trial < 8000 && found[0] + found[1] < 48; ++trial) {
    geom::Vec2 sink{in_x(gen), in_y(gen)};
    while (trial % 2 == 1 && field.contains(sink)) {
      sink = {out_x(gen), out_y(gen)};
    }
    const geom::Vec2 p = field.clamp(sink);
    const Row cands = near_corner_nodes(field, p, gen(), 16);
    Row row;
    for (std::size_t i = 0; i < cands.qx.size(); ++i) {
      const geom::Vec2 node{cands.qx[i], cands.qy[i]};
      const Exits e = exits(field, p, node);
      if ((e.p < e.q && e.tx > e.ty) || (e.q < e.p && e.ty > e.tx)) {
        row.add(node);
      }
    }
    if (row.qx.empty()) {
      continue;
    }
    found[trial % 2] += row.qx.size();
    // Pad so the misleading node also sits inside full vector groups.
    for (std::size_t i = 0; row.qx.size() < 8; ++i) {
      row.add({cands.qx[i], cands.qy[i]});
    }
    expect_rows_exact(model, sink, row);
  }
  EXPECT_GE(found[0], 8u) << "the search should find near ties inside";
  EXPECT_GE(found[1], 8u) << "the search should find near ties outside";
}

TEST(RectExitAxis, SubnormalDirectionNeedsTheQuotientGuard) {
  // In a 1e150 field with the sink 1e-165 above the bottom edge, a ray
  // toward the bottom-right corner has u_y = r_y / d near 1e-315, a
  // subnormal whose rounding error dwarfs the margin. The products stay
  // normal and can name the wrong axis; only the |r| > d * 2^-1020 guard
  // sends these lanes to the two-axis path.
  const geom::RectField field(2e150, 2e150);
  const core::FluxModel model(field, 1.2);
  const geom::Vec2 sink{1e150, 1e-165};
  std::mt19937_64 gen(3);
  std::uniform_real_distribution<double> log_s(-12.0, -8.0);
  std::uniform_int_distribution<int> ulps(-4, 4);
  Row misled;
  Row row;
  for (int trial = 0; trial < 200000 && misled.qx.size() < 8; ++trial) {
    const double s = std::pow(10.0, log_s(gen));
    const geom::Vec2 node{sink.x + s * (field.width() - sink.x),
                          nudge(sink.y - s * sink.y, ulps(gen))};
    const Exits e = exits(field, sink, node);
    constexpr double kMargin = 1.0 - 0x1p-40;
    if ((e.p < e.q * kMargin && e.tx > e.ty) ||
        (e.q < e.p * kMargin && e.ty > e.tx)) {
      misled.add(node);
    }
    if (row.qx.size() < 8) {
      row.add(node);
    }
  }
  ASSERT_GE(misled.qx.size(), 4u) << "the search should find misled rows";
  for (std::size_t i = 0; i < misled.qx.size(); ++i) {
    row.add({misled.qx[i], misled.qy[i]});
  }
  expect_rows_exact(model, sink, row);
}

TEST(RectExitAxis, SeededSweepOfAMillionElements) {
  // 50,000 rows of 20 nodes: every element sits in a full vector group at
  // 2 and 4 lanes. Sinks range over the field, its boundary and outside.
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  std::mt19937_64 gen(77);
  std::uniform_real_distribution<double> wide_x(-6.0, 36.0);
  std::uniform_real_distribution<double> wide_y(-6.0, 26.0);
  std::uniform_real_distribution<double> in_x(0.0, 30.0);
  std::uniform_real_distribution<double> in_y(0.0, 20.0);
  constexpr std::size_t kRowLen = 20;
  std::array<double, kRowLen> qx{};
  std::array<double, kRowLen> qy{};
  std::size_t bad = 0;
  for (int r = 0; r < 50000 && bad == 0; ++r) {
    geom::Vec2 sink{wide_x(gen), wide_y(gen)};
    if (r % 16 == 0) {
      sink = field.clamp(sink);  // on the boundary
    }
    for (std::size_t i = 0; i < kRowLen; ++i) {
      qx[i] = in_x(gen);
      qy[i] = in_y(gen);
    }
    if (r % 8 == 1) {
      qx[r % kRowLen] = field.clamp(sink).x;  // an axis-aligned ray
    }
    bad += mismatches(model, sink, qx.data(), qy.data(), kRowLen);
  }
  EXPECT_EQ(bad, 0u);
}

}  // namespace
}  // namespace fluxfp
