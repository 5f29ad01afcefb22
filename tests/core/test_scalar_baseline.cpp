// Bit-exact regressions against committed scalar fixtures: fault-injected
// SMC runs whose every estimate, residual, and final particle was recorded
// as C99 hexfloats. In the scalar strict-determinism build
// (FLUXFP_SIMD=OFF) the tree must reproduce each fixture bit for bit —
// layout changes and exact fast paths are storage moves, not arithmetic
// changes. Vector builds change dot-product summation order by design, so
// there the tests skip.
//
//   smc_scalar_baseline.txt    2 users, 50 rounds; recorded before the
//                              SIMD + structure-of-arrays overhaul. The
//                              pruned conditional fits stay at k <= 6, the
//                              subset-enumeration NNLS.
//   smc_scalar_baseline12.txt  12 users, 20 rounds; recorded before the
//                              ConditionalFit Lawson–Hanson prefix cache.
//                              Supports of k >= 7 with the candidate in the
//                              last slot pin the active-set NNLS path.
//
// Regenerate a fixture only when a change is SUPPOSED to alter scalar
// results: run test_core from a FLUXFP_SIMD=OFF build with
// FLUXFP_RECORD_SCALAR_BASELINE=<dir>, and each test writes its fixture
// to <dir> (through render_run below) instead of comparing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/smc.hpp"
#include "geom/sampling.hpp"
#include "numeric/simd/kernels.hpp"
#include "sim/faults.hpp"

namespace fluxfp::core {
namespace {

/// One fixed-seed fault-injected tracking run: `users` sinks moving along
/// `truth(user, round)` with stretch `stretch(user)`, 80 sniffers in a
/// 30 x 30 field, outages, byzantine readings and a burst.
struct Scenario {
  std::size_t users = 0;
  int rounds = 0;
  std::function<geom::Vec2(std::size_t, double)> truth;
  std::function<double(std::size_t)> stretch;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Runs the scenario and renders it in the fixture format: a header, one
/// line per round (estimates, residual, recovery flag), then the final
/// filter state particle by particle.
std::string render_run(const Scenario& sc) {
  geom::RectField field(30.0, 30.0);
  FluxModel model(field, 1.0);
  geom::Rng world_rng(46);
  const std::vector<geom::Vec2> samples =
      geom::uniform_points(field, 80, world_rng);

  sim::FaultPlan plan;
  plan.seed = 77;
  plan.outage_prob = 0.15;
  plan.byzantine_fraction = 0.1;
  plan.byzantine_gain = 4.0;
  plan.burst_start = 20;
  plan.burst_length = 3;
  std::vector<std::size_t> sniffers(samples.size());
  for (std::size_t i = 0; i < sniffers.size(); ++i) {
    sniffers[i] = i;
  }
  sim::FaultInjector injector(plan, samples.size(), std::move(sniffers));

  SmcConfig cfg;
  cfg.num_predictions = 300;
  cfg.num_keep = 10;
  cfg.sweeps = 2;
  cfg.divergence_recovery = true;
  cfg.recovery_grid = 12;
  cfg.robust.loss = RobustLoss::kHuber;
  cfg.robust.reweight_rounds = 1;

  geom::Rng rng(47);
  SmcTracker tracker(field, sc.users, cfg, rng);

  std::ostringstream out;
  out << "fluxfp-smc-scalar-baseline v1\n"
      << "rounds " << sc.rounds << " users " << sc.users << "\n";
  for (int round = 1; round <= sc.rounds; ++round) {
    const double r = static_cast<double>(round);
    std::vector<double> readings(samples.size(), 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (std::size_t u = 0; u < sc.users; ++u) {
        readings[i] += sc.stretch(u) * model.shape(sc.truth(u, r), samples[i]);
      }
    }
    injector.begin_round(round);
    injector.corrupt(readings);
    const SparseObjective obj(model, samples, std::move(readings));
    const SmcStepResult res = tracker.step(r, obj, rng);
    out << "round " << round;
    for (std::size_t u = 0; u < sc.users; ++u) {
      out << " " << hex(tracker.estimate(u).x) << " "
          << hex(tracker.estimate(u).y);
    }
    out << " " << hex(res.residual) << " " << (res.recovered ? 1 : 0) << "\n";
  }

  // Final filter state: the run must not merely print the same estimates
  // but END in the same state, particle for particle, bit for bit.
  const SmcState state = tracker.save_state();
  out << "bad_rounds " << state.bad_rounds << "\n";
  for (std::size_t u = 0; u < state.users.size(); ++u) {
    const SmcUserState& us = state.users[u];
    out << "user " << u << " t_last " << hex(us.t_last) << " prev "
        << hex(us.prev_estimate.x) << " " << hex(us.prev_estimate.y)
        << " heading " << hex(us.heading.x) << " " << hex(us.heading.y)
        << " particles " << us.particles.size() << "\n";
    for (const Particle& p : us.particles) {
      out << "p " << hex(p.position.x) << " " << hex(p.position.y) << " "
          << hex(p.weight) << "\n";
    }
  }
  return out.str();
}

/// Compares the rendered run with the committed fixture line by line (or,
/// with FLUXFP_RECORD_SCALAR_BASELINE set, writes the fixture instead).
void check_against_fixture(const std::string& fixture_name,
                           const Scenario& sc) {
  if (numeric::simd::enabled()) {
    GTEST_SKIP() << "vector backend '" << numeric::simd::backend_name()
                 << "' reorders dot-product accumulation; the bit-exact "
                    "contract only binds the scalar build";
  }
  const std::string got = render_run(sc);
  if (const char* dir = std::getenv("FLUXFP_RECORD_SCALAR_BASELINE")) {
    std::ofstream(std::string(dir) + "/" + fixture_name) << got;
    GTEST_SKIP() << "recorded " << fixture_name << " to " << dir;
  }
  std::ifstream fixture(std::string(FLUXFP_TESTDATA_DIR) + "/" +
                        fixture_name);
  ASSERT_TRUE(fixture.is_open()) << "missing committed fixture "
                                 << fixture_name;
  std::istringstream rendered(got);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (std::getline(fixture, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(rendered, got_line))
        << "run ended before fixture line " << line;
    EXPECT_EQ(got_line, want_line) << fixture_name << " line " << line;
  }
  EXPECT_FALSE(std::getline(rendered, got_line))
      << "run renders more lines than the fixture's " << line;
}

TEST(ScalarBaseline, FaultInjectedSmcRunIsBitIdenticalToPrePrFixture) {
  Scenario sc;
  sc.users = 2;
  sc.rounds = 50;
  sc.truth = [](std::size_t u, double r) {
    return u == 0 ? geom::Vec2{3.0 + 0.45 * r, 10.0 + 0.2 * r}
                  : geom::Vec2{27.0 - 0.45 * r, 22.0 - 0.15 * r};
  };
  sc.stretch = [](std::size_t u) { return u == 0 ? 2.0 : 2.5; };
  check_against_fixture("smc_scalar_baseline.txt", sc);
}

TEST(ScalarBaseline, TwelveUserActiveSetRunIsBitIdenticalToFixture) {
  // Twelve users on concentric orbits around the field centre: the joint
  // fit keeps most of them in the support, so every conditional sweep
  // scores candidates with a k >= 7 Lawson–Hanson NNLS.
  Scenario sc;
  sc.users = 12;
  sc.rounds = 20;
  sc.truth = [](std::size_t u, double r) {
    const double ud = static_cast<double>(u);
    const double angle = 0.5236 * ud + 0.05 * r;
    const double radius = 3.0 + 0.9 * ud;
    return geom::Vec2{15.0 + radius * std::cos(angle),
                      15.0 + radius * std::sin(angle)};
  };
  sc.stretch = [](std::size_t u) {
    return 1.5 + 0.25 * static_cast<double>(u % 4);
  };
  check_against_fixture("smc_scalar_baseline12.txt", sc);
}

}  // namespace
}  // namespace fluxfp::core
