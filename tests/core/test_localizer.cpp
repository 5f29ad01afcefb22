#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include "eval/metrics.hpp"

namespace fluxfp::core {
namespace {

struct Synthetic {
  geom::RectField field{30.0, 30.0};
  FluxModel model{field, 1.0};
  std::vector<geom::Vec2> samples;
  std::vector<geom::Vec2> sinks;
  std::vector<double> measured;

  Synthetic(std::uint64_t seed, std::size_t n, std::vector<geom::Vec2> s,
            std::vector<double> stretches)
      : sinks(std::move(s)) {
    geom::Rng rng(seed);
    samples = geom::uniform_points(field, n, rng);
    measured.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        measured[i] += stretches[j] * model.shape(sinks[j], samples[i]);
      }
    }
  }

  SparseObjective objective() const {
    return SparseObjective(model, samples, measured);
  }
};

TEST(InstantLocalizer, RejectsBadConfig) {
  const geom::RectField f(30.0, 30.0);
  LocalizerConfig bad;
  bad.candidates_per_user = 0;
  EXPECT_THROW(InstantLocalizer(f, bad), std::invalid_argument);
  bad = {};
  bad.sweeps = 0;
  EXPECT_THROW(InstantLocalizer(f, bad), std::invalid_argument);
}

TEST(InstantLocalizer, RejectsBadUserCount) {
  const Synthetic syn(1, 30, {{15, 15}}, {2.0});
  const SparseObjective obj = syn.objective();
  const InstantLocalizer loc(syn.field);
  geom::Rng rng(1);
  EXPECT_THROW(loc.localize(obj, 0, rng), std::invalid_argument);
  EXPECT_THROW(loc.localize(obj, kMaxGramUsers + 1, rng),
               std::invalid_argument);
}

TEST(InstantLocalizer, SingleUserRecovery) {
  const Synthetic syn(2, 60, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 5000;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng(7);
  const LocalizationResult res = loc.localize(obj, 1, rng);
  EXPECT_LT(geom::distance(res.positions[0], {12, 18}), 1.0);
  ASSERT_EQ(res.stretches.size(), 1u);
  EXPECT_NEAR(res.stretches[0], 2.0, 0.5);
}

TEST(InstantLocalizer, TopListSortedAndBounded) {
  const Synthetic syn(3, 60, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 2000;
  cfg.top_m = 10;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng(8);
  const LocalizationResult res = loc.localize(obj, 1, rng);
  ASSERT_EQ(res.top_positions.size(), 1u);
  EXPECT_LE(res.top_positions[0].size(), 10u);
  EXPECT_GE(res.top_positions[0].size(), 2u);
  for (std::size_t i = 1; i < res.top_residuals[0].size(); ++i) {
    EXPECT_LE(res.top_residuals[0][i - 1], res.top_residuals[0][i]);
  }
  // All top-10 candidates concentrate around the true sink (Fig. 5(a)).
  for (const geom::Vec2& p : res.top_positions[0]) {
    EXPECT_LT(geom::distance(p, {12, 18}), 3.0);
  }
}

TEST(InstantLocalizer, TwoUserRecovery) {
  const Synthetic syn(4, 80, {{6, 6}, {24, 22}}, {1.5, 2.5});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 4000;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng(9);
  const LocalizationResult res = loc.localize(obj, 2, rng);
  const double err = eval::matched_mean_error(res.positions, syn.sinks);
  EXPECT_LT(err, 1.5);
}

TEST(InstantLocalizer, ThreeUserRecovery) {
  const Synthetic syn(5, 90, {{5, 5}, {25, 8}, {14, 25}}, {2.0, 2.0, 2.0});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 4000;
  cfg.restarts = 4;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng(10);
  const LocalizationResult res = loc.localize(obj, 3, rng);
  const double err = eval::matched_mean_error(res.positions, syn.sinks);
  EXPECT_LT(err, 2.5);
}

TEST(InstantLocalizer, ConservativeKConvergesStretchesOfPhantoms) {
  // K chosen larger than the true user count (§4.A): the extra users'
  // stretches fit to ~0.
  const Synthetic syn(6, 70, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 3000;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng(11);
  const LocalizationResult res = loc.localize(obj, 2, rng);
  ASSERT_EQ(res.stretches.size(), 2u);
  const double smax = std::max(res.stretches[0], res.stretches[1]);
  const double smin = std::min(res.stretches[0], res.stretches[1]);
  EXPECT_NEAR(smax, 2.0, 0.6);
  EXPECT_LT(smin, 0.5);
}

TEST(InstantLocalizer, ResidualNeverExceedsMeasuredNorm) {
  const Synthetic syn(7, 40, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 500;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng(12);
  const LocalizationResult res = loc.localize(obj, 1, rng);
  EXPECT_LE(res.residual, obj.measured_norm() + 1e-9);
}

TEST(InstantLocalizer, DeterministicGivenSeed) {
  const Synthetic syn(8, 50, {{12, 18}}, {2.0});
  const SparseObjective obj = syn.objective();
  LocalizerConfig cfg;
  cfg.candidates_per_user = 1000;
  const InstantLocalizer loc(syn.field, cfg);
  geom::Rng rng_a(13);
  geom::Rng rng_b(13);
  const LocalizationResult a = loc.localize(obj, 1, rng_a);
  // The per-thread candidate scratch carries nothing between calls: a
  // larger search on this thread in between leaves b bit-identical.
  const Synthetic other(9, 90, {{5, 5}, {25, 20}}, {1.0, 3.0});
  cfg.candidates_per_user = 1500;
  geom::Rng rng_other(14);
  InstantLocalizer(other.field, cfg).localize(other.objective(), 2, rng_other);
  const LocalizationResult b = loc.localize(obj, 1, rng_b);
  EXPECT_EQ(a.positions[0], b.positions[0]);
  EXPECT_EQ(a.residual, b.residual);
}

}  // namespace
}  // namespace fluxfp::core
