#include "core/smc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "eval/metrics.hpp"
#include "net/flux.hpp"

namespace fluxfp::core {
namespace {

/// Synthetic observation source: measured flux generated directly from the
/// model for user positions that evolve per round.
struct World {
  geom::RectField field{30.0, 30.0};
  FluxModel model{field, 1.0};
  std::vector<geom::Vec2> samples;

  explicit World(std::uint64_t seed, std::size_t n = 80) {
    geom::Rng rng(seed);
    samples = geom::uniform_points(field, n, rng);
  }

  SparseObjective observe(const std::vector<geom::Vec2>& sinks,
                          const std::vector<double>& stretches) const {
    std::vector<double> measured(samples.size(), 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        measured[i] += stretches[j] * model.shape(sinks[j], samples[i]);
      }
    }
    return SparseObjective(model, samples, measured);
  }
};

SmcConfig fast_config() {
  SmcConfig cfg;
  cfg.num_predictions = 400;
  cfg.num_keep = 10;
  cfg.vmax = 5.0;
  return cfg;
}

TEST(SmcTracker, RejectsBadConstruction) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(1);
  EXPECT_THROW(SmcTracker(f, 0, fast_config(), rng), std::invalid_argument);
  SmcConfig bad = fast_config();
  bad.num_keep = 0;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = fast_config();
  bad.vmax = 0.0;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  // A NaN fails every range check: a NaN tolerance would otherwise mark
  // every user inactive forever, or every window empty.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = fast_config();
  bad.inactive_improvement_tol = nan;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = fast_config();
  bad.empty_measurement_tol = nan;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = fast_config();
  bad.divergence_recovery = true;
  bad.divergence_fraction = nan;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
}

TEST(SmcTracker, InitialParticlesUniformWeights) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(2);
  const SmcTracker t(f, 2, fast_config(), rng);
  for (std::size_t u = 0; u < 2; ++u) {
    const auto& set = t.particles(u);
    ASSERT_EQ(set.size(), 10u);
    for (const Particle& p : set) {
      EXPECT_DOUBLE_EQ(p.weight, 0.1);
      EXPECT_TRUE(f.contains(p.position));
    }
  }
}

TEST(SmcTracker, ConvergesToStaticUser) {
  const World w(3);
  geom::Rng rng(4);
  SmcTracker tracker(w.field, 1, fast_config(), rng);
  const geom::Vec2 truth{11.0, 19.0};
  double final_err = 1e18;
  for (int round = 1; round <= 8; ++round) {
    const SparseObjective obj = w.observe({truth}, {2.0});
    tracker.step(static_cast<double>(round), obj, rng);
    final_err = geom::distance(tracker.estimate(0), truth);
  }
  EXPECT_LT(final_err, 1.5);
}

TEST(SmcTracker, TracksMovingUser) {
  const World w(5);
  geom::Rng rng(6);
  SmcTracker tracker(w.field, 1, fast_config(), rng);
  // Straight line at speed 2.5 per round (< vmax = 5).
  for (int round = 1; round <= 10; ++round) {
    const geom::Vec2 truth{2.5 + 2.5 * round, 15.0};
    const SparseObjective obj = w.observe({truth}, {2.0});
    tracker.step(static_cast<double>(round), obj, rng);
  }
  const geom::Vec2 final_truth{2.5 + 2.5 * 10, 15.0};
  EXPECT_LT(geom::distance(tracker.estimate(0), final_truth), 2.5);
}

TEST(SmcTracker, TracksTwoUsers) {
  const World w(7);
  geom::Rng rng(8);
  SmcTracker tracker(w.field, 2, fast_config(), rng);
  std::vector<geom::Vec2> truths;
  for (int round = 1; round <= 10; ++round) {
    truths = {{4.0 + 2.0 * round, 8.0}, {26.0 - 2.0 * round, 24.0}};
    const SparseObjective obj = w.observe(truths, {2.0, 2.0});
    tracker.step(static_cast<double>(round), obj, rng);
  }
  const std::vector<geom::Vec2> est{tracker.estimate(0), tracker.estimate(1)};
  EXPECT_LT(eval::matched_mean_error(est, truths), 3.0);
}

TEST(SmcTracker, EmptyWindowUpdatesNobody) {
  const World w(9);
  geom::Rng rng(10);
  SmcTracker tracker(w.field, 2, fast_config(), rng);
  const SparseObjective obj = w.observe({}, {});
  const SmcStepResult res = tracker.step(1.0, obj, rng);
  EXPECT_FALSE(res.updated[0]);
  EXPECT_FALSE(res.updated[1]);
  EXPECT_DOUBLE_EQ(tracker.last_update_time(0), 0.0);
}

TEST(SmcTracker, AsynchronousInactiveUserNotUpdated) {
  const World w(11);
  geom::Rng rng(12);
  SmcTracker tracker(w.field, 2, fast_config(), rng);
  // Only user 0 collects; user 1's best-fit stretch ~ 0.
  const SparseObjective obj = w.observe({{8, 8}}, {2.0});
  const SmcStepResult res = tracker.step(1.0, obj, rng);
  EXPECT_TRUE(res.updated[0]);
  EXPECT_FALSE(res.updated[1]);
  EXPECT_DOUBLE_EQ(tracker.last_update_time(0), 1.0);
  EXPECT_DOUBLE_EQ(tracker.last_update_time(1), 0.0);
}

TEST(SmcTracker, AsynchronousUserResumesWithGrownRadius) {
  const World w(13);
  geom::Rng rng(14);
  SmcConfig cfg = fast_config();
  cfg.vmax = 2.0;
  SmcTracker tracker(w.field, 1, cfg, rng);
  // Rounds 1-4: user collects at (5,15); tracker locks on.
  for (int round = 1; round <= 4; ++round) {
    const SparseObjective obj = w.observe({{5, 15}}, {2.0});
    tracker.step(static_cast<double>(round), obj, rng);
  }
  // Rounds 5-8: silent (moves meanwhile to (17,15), 12 units away — more
  // than vmax per round but within vmax * accumulated dt = 2*5).
  for (int round = 5; round <= 8; ++round) {
    const SparseObjective obj = w.observe({}, {});
    const auto res = tracker.step(static_cast<double>(round), obj, rng);
    EXPECT_FALSE(res.updated[0]);
  }
  // Round 9: reappears far away; the enlarged disc must reach it.
  const SparseObjective obj = w.observe({{17, 15}}, {2.0});
  const auto res = tracker.step(9.0, obj, rng);
  EXPECT_TRUE(res.updated[0]);
  EXPECT_LT(geom::distance(tracker.estimate(0), {17, 15}), 4.0);
}

TEST(SmcTracker, WeightsNormalized) {
  const World w(15);
  geom::Rng rng(16);
  SmcTracker tracker(w.field, 1, fast_config(), rng);
  const SparseObjective obj = w.observe({{20, 10}}, {2.0});
  tracker.step(1.0, obj, rng);
  double sum = 0.0;
  for (const Particle& p : tracker.particles(0)) {
    sum += p.weight;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SmcTracker, ImportanceSamplingOffGivesUniformWeights) {
  const World w(17);
  geom::Rng rng(18);
  SmcConfig cfg = fast_config();
  cfg.importance_sampling = false;
  SmcTracker tracker(w.field, 1, cfg, rng);
  const SparseObjective obj = w.observe({{20, 10}}, {2.0});
  tracker.step(1.0, obj, rng);
  for (const Particle& p : tracker.particles(0)) {
    EXPECT_NEAR(p.weight, 0.1, 1e-12);
  }
}

TEST(SmcTracker, HeadingEstimatedAfterTwoUpdates) {
  const World w(21);
  geom::Rng rng(22);
  SmcConfig cfg = fast_config();
  cfg.heading_aware = true;
  SmcTracker tracker(w.field, 1, cfg, rng);
  EXPECT_EQ(tracker.heading(0), geom::Vec2());
  for (int round = 1; round <= 6; ++round) {
    const geom::Vec2 truth{3.0 + 3.0 * round, 15.0};
    const SparseObjective obj = w.observe({truth}, {2.0});
    tracker.step(static_cast<double>(round), obj, rng);
  }
  const geom::Vec2 h = tracker.heading(0);
  ASSERT_GT(h.norm(), 0.0);
  EXPECT_NEAR(h.norm(), 1.0, 1e-9);
  // Moving in +x: heading should point mostly along +x.
  EXPECT_GT(h.x, 0.6);
}

TEST(SmcTracker, HeadingAwareTracksAtLeastAsWell) {
  const World w(23);
  auto final_error = [&](bool heading) {
    geom::Rng rng(24);
    SmcConfig cfg = fast_config();
    cfg.heading_aware = heading;
    SmcTracker tracker(w.field, 1, cfg, rng);
    geom::Vec2 truth;
    for (int round = 1; round <= 10; ++round) {
      truth = {2.0 + 2.5 * round, 12.0};
      const SparseObjective obj = w.observe({truth}, {2.0});
      tracker.step(static_cast<double>(round), obj, rng);
    }
    return geom::distance(tracker.estimate(0), truth);
  };
  // Both configurations must track; the heading prior shouldn't hurt on a
  // straight trajectory.
  EXPECT_LT(final_error(false), 3.0);
  EXPECT_LT(final_error(true), 3.0);
}

TEST(SmcTracker, HeadingConfigValidation) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(25);
  SmcConfig bad = fast_config();
  bad.heading_mix = 1.5;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = fast_config();
  bad.heading_half_angle = 0.0;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = fast_config();
  bad.heading_mix = nan;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
  bad = fast_config();
  bad.heading_half_angle = nan;
  EXPECT_THROW(SmcTracker(f, 1, bad, rng), std::invalid_argument);
}

TEST(SmcTracker, WorksOnCircleField) {
  // The tracker is field-shape agnostic: same pipeline on a CircleField.
  const geom::CircleField field({15, 15}, 15.0);
  FluxModel model(field, 1.0);
  geom::Rng srng(26);
  const std::vector<geom::Vec2> samples =
      geom::uniform_points(field, 80, srng);
  auto observe = [&](geom::Vec2 sink) {
    std::vector<double> measured(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      measured[i] = 2.0 * model.shape(sink, samples[i]);
    }
    return SparseObjective(model, samples, measured);
  };
  geom::Rng rng(27);
  SmcTracker tracker(field, 1, fast_config(), rng);
  geom::Vec2 truth;
  for (int round = 1; round <= 8; ++round) {
    truth = {6.0 + 2.0 * round, 15.0};
    tracker.step(static_cast<double>(round), observe(truth), rng);
  }
  EXPECT_LT(geom::distance(tracker.estimate(0), truth), 3.0);
  EXPECT_TRUE(field.contains(tracker.estimate(0), 1e-9));
}

TEST(SmcTracker, FullyDeterministicGivenSeed) {
  // Reproducibility contract: identical seeds => identical trackers,
  // bit for bit, across construction and every step.
  const World w(32);
  auto run = [&]() {
    geom::Rng rng(33);
    SmcTracker tracker(w.field, 2, fast_config(), rng);
    for (int round = 1; round <= 5; ++round) {
      const SparseObjective obj = w.observe(
          {{5.0 + round, 10.0}, {25.0 - round, 20.0}}, {2.0, 2.5});
      tracker.step(static_cast<double>(round), obj, rng);
    }
    return std::make_pair(tracker.estimate(0), tracker.estimate(1));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SmcTracker, SingleUserSecondSweepChangesNothing) {
  // With one user the conditional fit has no fixed columns, so the step
  // runs one sweep whatever config.sweeps asks for. A tracker configured
  // for one sweep and one configured for two must agree bit for bit.
  const World w(34);
  const auto bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  SmcConfig one = fast_config();
  one.sweeps = 1;
  SmcConfig two = fast_config();
  two.sweeps = 2;
  geom::Rng rng_one(35);
  geom::Rng rng_two(35);
  SmcTracker a(w.field, 1, one, rng_one);
  SmcTracker b(w.field, 1, two, rng_two);
  for (int round = 1; round <= 20; ++round) {
    const geom::Vec2 truth{4.0 + 1.1 * round, 20.0 - 0.6 * round};
    const SparseObjective obj = w.observe({truth}, {2.0});
    const SmcStepResult ra = a.step(static_cast<double>(round), obj, rng_one);
    const SmcStepResult rb = b.step(static_cast<double>(round), obj, rng_two);
    EXPECT_TRUE(bits(ra.residual, rb.residual)) << "round " << round;
    EXPECT_TRUE(bits(a.estimate(0).x, b.estimate(0).x)) << "round " << round;
    EXPECT_TRUE(bits(a.estimate(0).y, b.estimate(0).y)) << "round " << round;
    const std::vector<Particle> pa = a.particles(0);
    const std::vector<Particle> pb = b.particles(0);
    ASSERT_EQ(pa.size(), pb.size()) << "round " << round;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(bits(pa[i].position.x, pb[i].position.x) &&
                  bits(pa[i].position.y, pb[i].position.y) &&
                  bits(pa[i].weight, pb[i].weight))
          << "round " << round << " particle " << i;
    }
  }
}

TEST(SmcTracker, CovarianceIsSymmetricPsd) {
  const World w(28);
  geom::Rng rng(29);
  SmcTracker tracker(w.field, 1, fast_config(), rng);
  const SparseObjective obj = w.observe({{12, 12}}, {2.0});
  tracker.step(1.0, obj, rng);
  const std::array<double, 4> c = tracker.covariance(0);
  EXPECT_DOUBLE_EQ(c[1], c[2]);
  EXPECT_GE(c[0], 0.0);
  EXPECT_GE(c[3], 0.0);
  // det >= 0 for a PSD 2x2.
  EXPECT_GE(c[0] * c[3] - c[1] * c[2], -1e-9);
}

TEST(SmcTracker, SpreadShrinksAsFilterConverges) {
  const World w(30);
  geom::Rng rng(31);
  SmcTracker tracker(w.field, 1, fast_config(), rng);
  const double initial = tracker.spread(0);  // uniform prior: large
  for (int round = 1; round <= 6; ++round) {
    const SparseObjective obj = w.observe({{14, 16}}, {2.0});
    tracker.step(static_cast<double>(round), obj, rng);
  }
  EXPECT_LT(tracker.spread(0), 0.8 * initial);
  EXPECT_GT(initial, 5.0);  // uniform over a 30x30 field is wide
}

// Divergence-recovery seam audit: a window with ZERO valid readings (all
// sniffers missing) must be a true no-op — no RNG draw, no divergence
// counting, no recovery grid scan, and a finite estimate — so a run that
// hits an outage round continues bit-identically to one whose outage round
// never arrived. geom::Rng is mt19937_64, so operator== compares the full
// engine state: any hidden draw on the empty path fails these directly.
TEST(SmcTracker, AllMissingWindowConsumesNoRngAndStaysFinite) {
  const World w(23);
  SmcConfig cfg = fast_config();
  cfg.divergence_recovery = true;  // the recovery path must NOT trigger
  cfg.recovery_grid = 12;
  cfg.divergence_rounds = 1;       // hair trigger: any counted bad round
  cfg.robust.loss = RobustLoss::kHuber;

  geom::Rng with_gap_rng(24);
  geom::Rng no_gap_rng(24);
  SmcTracker with_gap(w.field, 2, cfg, with_gap_rng);
  SmcTracker no_gap(w.field, 2, cfg, no_gap_rng);
  ASSERT_TRUE(with_gap_rng == no_gap_rng);

  const std::vector<geom::Vec2> truths{{8.0, 12.0}, {22.0, 18.0}};
  const SparseObjective good = w.observe(truths, {2.0, 2.5});
  with_gap.step(1.0, good, with_gap_rng);
  no_gap.step(1.0, good, no_gap_rng);

  // Round 2 of the gap run: every reading missing. The twin simply never
  // sees a round-2 window.
  std::vector<double> missing(w.samples.size(), net::kMissingReading);
  const SparseObjective empty(w.model, w.samples, std::move(missing));
  ASSERT_EQ(empty.sample_count(), 0u);
  const geom::Rng before_empty = with_gap_rng;
  const SmcStepResult gap_res = with_gap.step(2.0, empty, with_gap_rng);
  EXPECT_TRUE(with_gap_rng == before_empty) << "empty window drew from RNG";
  EXPECT_EQ(with_gap.consecutive_bad_rounds(), 0);
  for (std::size_t u = 0; u < 2; ++u) {
    EXPECT_FALSE(gap_res.updated[u]);
    EXPECT_TRUE(std::isfinite(gap_res.best[u].x));
    EXPECT_TRUE(std::isfinite(gap_res.best[u].y));
    EXPECT_EQ(gap_res.best[u], with_gap.estimate(u));
  }
  EXPECT_FALSE(gap_res.recovered);

  // Round 3 resumes: both runs must agree bit-exactly, RNG included.
  const std::vector<geom::Vec2> moved{{8.5, 12.4}, {21.5, 17.7}};
  const SparseObjective next = w.observe(moved, {2.0, 2.5});
  with_gap.step(3.0, next, with_gap_rng);
  no_gap.step(3.0, next, no_gap_rng);
  EXPECT_TRUE(with_gap_rng == no_gap_rng);
  for (std::size_t u = 0; u < 2; ++u) {
    EXPECT_EQ(with_gap.estimate(u), no_gap.estimate(u));
    EXPECT_EQ(with_gap.spread(u), no_gap.spread(u));
  }
}

TEST(SmcTracker, StepReportsStretches) {
  const World w(19);
  geom::Rng rng(20);
  SmcTracker tracker(w.field, 1, fast_config(), rng);
  SmcStepResult res;
  for (int round = 1; round <= 5; ++round) {
    const SparseObjective obj = w.observe({{15, 15}}, {2.5});
    res = tracker.step(static_cast<double>(round), obj, rng);
  }
  ASSERT_EQ(res.stretches.size(), 1u);
  EXPECT_NEAR(res.stretches[0], 2.5, 0.8);
}

}  // namespace
}  // namespace fluxfp::core
