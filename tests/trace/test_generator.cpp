#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

namespace fluxfp::trace {
namespace {

Trace make_trace(std::uint64_t seed, TraceGenConfig cfg = {}) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(seed);
  return generate_trace(grid_aps(f, 5, 10), cfg, rng);
}

TEST(TraceGenerator, ProducesAllUsers) {
  TraceGenConfig cfg;
  cfg.num_users = 20;
  const Trace t = make_trace(1, cfg);
  EXPECT_EQ(t.users().size(), 20u);
}

TEST(TraceGenerator, EventsAreTimeOrdered) {
  const Trace t = make_trace(2);
  for (std::size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_LE(t.events[i - 1].time, t.events[i].time);
  }
}

TEST(TraceGenerator, EventsWithinDuration) {
  TraceGenConfig cfg;
  cfg.duration = 50000.0;
  const Trace t = make_trace(3, cfg);
  for (const TraceEvent& e : t.events) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, cfg.duration);
  }
}

TEST(TraceGenerator, EveryUserHasAtLeastOneEvent) {
  const Trace t = make_trace(4);
  for (const std::string& u : t.users()) {
    EXPECT_FALSE(t.events_of(u).empty());
  }
}

TEST(TraceGenerator, ApIdsAreValid) {
  const Trace t = make_trace(5);
  for (const TraceEvent& e : t.events) {
    EXPECT_LT(e.ap, t.aps.size());
  }
}

TEST(TraceGenerator, MovementsPreferNearbyAps) {
  TraceGenConfig cfg;
  cfg.jump_prob = 0.0;
  cfg.hop_radius = 8.0;
  const Trace t = make_trace(6, cfg);
  // With jump_prob 0 every consecutive hop of a user is within hop_radius.
  for (const std::string& u : t.users()) {
    const auto ev = t.events_of(u);
    for (std::size_t i = 1; i < ev.size(); ++i) {
      const double d = geom::distance(t.aps[ev[i - 1].ap].position,
                                      t.aps[ev[i].ap].position);
      EXPECT_LE(d, 8.0 + 1e-9);
    }
  }
}

TEST(TraceGenerator, UsersAreAsynchronous) {
  // Distinct users should not share all event times.
  const Trace t = make_trace(7);
  const auto a = t.events_of("user0");
  const auto b = t.events_of("user1");
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.front().time, b.front().time);
}

TEST(TraceGenerator, DwellTimesAreHeavyTailed) {
  TraceGenConfig cfg;
  cfg.num_users = 5;
  cfg.duration = 500000.0;
  const Trace t = make_trace(8, cfg);
  std::vector<double> dwells;
  for (const std::string& u : t.users()) {
    const auto ev = t.events_of(u);
    for (std::size_t i = 1; i < ev.size(); ++i) {
      dwells.push_back(ev[i].time - ev[i - 1].time);
    }
  }
  ASSERT_GT(dwells.size(), 50u);
  std::sort(dwells.begin(), dwells.end());
  const double median = dwells[dwells.size() / 2];
  const double p95 = dwells[dwells.size() * 95 / 100];
  // Lognormal sigma=1.2: the 95th percentile is several times the median.
  EXPECT_GT(p95, 2.5 * median);
}

TEST(TraceGenerator, Deterministic) {
  const Trace a = make_trace(9);
  const Trace b = make_trace(9);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].user, b.events[i].user);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].ap, b.events[i].ap);
  }
}

TEST(TraceGenerator, RejectsBadInputs) {
  geom::Rng rng(10);
  TraceGenConfig cfg;
  EXPECT_THROW(generate_trace({}, cfg, rng), std::invalid_argument);
  cfg.num_users = 0;
  const geom::RectField f(10.0, 10.0);
  EXPECT_THROW(generate_trace(grid_aps(f, 2, 2), cfg, rng),
               std::invalid_argument);
}

TEST(TraceGenerator, RejectsBadDwellParameters) {
  const geom::RectField f(10.0, 10.0);
  for (const double sigma :
       {-0.1, -1e-300, std::numeric_limits<double>::quiet_NaN()}) {
    geom::Rng rng(10);
    TraceGenConfig cfg;
    cfg.dwell_sigma = sigma;
    EXPECT_THROW(generate_trace(grid_aps(f, 2, 2), cfg, rng),
                 std::invalid_argument)
        << "sigma " << sigma;
  }
  for (const double median :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN()}) {
    geom::Rng rng(10);
    TraceGenConfig cfg;
    cfg.median_dwell = median;
    EXPECT_THROW(generate_trace(grid_aps(f, 2, 2), cfg, rng),
                 std::invalid_argument)
        << "median " << median;
  }
}

TEST(TraceGenerator, ZeroSigmaDwellsExactlyTheMedian) {
  // The standard requires lognormal_distribution's sigma > 0, so sigma 0
  // is handled without one: every dwell is the median, with the 1 s
  // floor every dwell has, and takes no draw. With
  // hop_radius 0 no AP has a neighbour, so every move is one any-AP
  // draw and the whole trace can be replayed from the engine alone.
  const geom::RectField f(30.0, 30.0);
  for (const double median : {300.0, 0.25}) {
    TraceGenConfig cfg;
    cfg.num_users = 3;
    cfg.duration = 20000.0;
    cfg.median_dwell = median;
    cfg.dwell_sigma = 0.0;
    cfg.hop_radius = 0.0;
    geom::Rng rng(12);
    const Trace t = generate_trace(grid_aps(f, 5, 10), cfg, rng);
    const double gap = std::max(median, 1.0);

    geom::Rng oracle(12);
    std::uniform_int_distribution<std::size_t> any_ap(0, t.aps.size() - 1);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::size_t gaps = 0;
    for (std::size_t u = 0; u < cfg.num_users; ++u) {
      const auto ev = t.events_of("user" + std::to_string(u));
      ASSERT_FALSE(ev.empty());
      EXPECT_EQ(ev[0].ap, t.aps[any_ap(oracle)].id);
      double want = unit(oracle) * median;
      for (std::size_t i = 0; i < ev.size(); ++i) {
        if (i > 0) {
          EXPECT_NEAR(ev[i].time - ev[i - 1].time, gap, 1e-12 * ev[i].time);
          ++gaps;
          want += gap;
          EXPECT_EQ(ev[i].ap, t.aps[any_ap(oracle)].id);
        }
        EXPECT_EQ(ev[i].time, want);
      }
    }
    EXPECT_GT(gaps, 30u) << "median " << median;
    EXPECT_EQ(rng(), oracle()) << "median " << median;
  }
}

TEST(TraceGenerator, PositiveSigmaDrawsArePinned) {
  // Recorded before sigma 0 became legal: the sigma > 0 path must keep
  // its draw sequence (trace-driven experiments are generated with it).
  // Pins the event count, an FNV-1a hash of every (time bits, AP, user)
  // and the generator's next word, i.e. how many draws were taken.
  struct Pin {
    double sigma;
    std::size_t events;
    std::uint64_t hash;
    std::uint64_t next;
  };
  const Pin pins[] = {
      {1.2, 75, 0xa12615c3c4803d68ull, 0x1619672904770f73ull},
      {0.3, 128, 0xbca834dec37e5f30ull, 0xa88292f064ca1d06ull},
  };
  const geom::RectField f(30.0, 30.0);
  for (const Pin& pin : pins) {
    geom::Rng rng(11);
    TraceGenConfig cfg;
    cfg.num_users = 3;
    cfg.duration = 40000.0;
    cfg.median_dwell = 900.0;
    cfg.dwell_sigma = pin.sigma;
    const Trace t = generate_trace(grid_aps(f, 5, 10), cfg, rng);
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (const TraceEvent& e : t.events) {
      std::uint64_t bits;
      std::memcpy(&bits, &e.time, sizeof(bits));
      mix(bits);
      mix(e.ap);
      for (const char c : e.user) {
        mix(static_cast<unsigned char>(c));
      }
    }
    EXPECT_EQ(t.events.size(), pin.events) << "sigma " << pin.sigma;
    EXPECT_EQ(h, pin.hash) << "sigma " << pin.sigma;
    EXPECT_EQ(rng(), pin.next) << "sigma " << pin.sigma;
  }
}

}  // namespace
}  // namespace fluxfp::trace
