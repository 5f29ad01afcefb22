// Config-driven attack runner: the whole pipeline (deploy -> simulate ->
// sniff -> track) parameterized from `key = value` config files and/or
// --key value command-line overrides. A scriptable front door to the
// library for parameter studies beyond the canned benchmarks.
//
// Usage:
//   ./attack_cli [scenario.cfg] [--key value ...]
//
// Keys (defaults in parentheses):
//   nodes (900)        sensor count            radius (2.4)   comm radius
//   deployment (grid)  grid|random             users (2)      mobile users
//   rounds (10)        observation windows     fraction (0.1) sniffed nodes
//   vmax (5)           tracker max speed       seed (2010)    RNG seed
//   tracker (smc)      smc|instant|ekf         stretch (2.0)  traffic stretch
//   noise (0)          relative flux noise     dropout (0)    sniffer dropout
//   defense (none)     none|pad|dummy|jitter   pad_level (50) padding floor
//   dummy_count (2)    chaff trees per window  jitter_sigma (0.5)

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "core/baseline.hpp"
#include "core/nls.hpp"
#include "core/smc.hpp"
#include "eval/config.hpp"
#include "privacy/countermeasure.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/table.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"

namespace {

using fluxfp::eval::Config;

constexpr const char* kUsage =
    "usage: attack_cli [scenario.cfg] [--key value ...]\n"
    "  keys: nodes radius deployment users rounds fraction vmax seed\n"
    "        tracker stretch noise dropout defense pad_level dummy_count\n"
    "        jitter_sigma (see the header of examples/attack_cli.cpp)\n";

/// Every parse failure: "attack_cli: <message>", the usage, exit 2 — the
/// same contract as the tools built on support/cli.hpp.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "attack_cli: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Integer key in [lo, hi].
long count(const Config& cfg, const std::string& key, long fallback, long lo,
           long hi) {
  long v = 0;
  bool parsed = true;
  try {
    v = cfg.get_int(key, fallback);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed || v < lo || v > hi) {
    usage_error("--" + key + " needs an integer in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" +
                cfg.get_string(key) + "'");
  }
  return v;
}

/// Finite real key in [lo, hi], or in (lo, hi] when `lo_open`.
double real(const Config& cfg, const std::string& key, double fallback,
            double lo, double hi, bool lo_open = false) {
  double v = std::numeric_limits<double>::quiet_NaN();
  try {
    v = cfg.get_double(key, fallback);
  } catch (const std::exception&) {
  }
  if (!std::isfinite(v) || v < lo || (lo_open && v == lo) || v > hi) {
    char range[96];
    std::snprintf(range, sizeof range, "%c%g, %g]", lo_open ? '(' : '[', lo,
                  hi);
    usage_error("--" + key + " needs a number in " + range + ", got '" +
                cfg.get_string(key) + "'");
  }
  return v;
}

/// `key`'s value, which must be one of `choices`.
std::string choice(const Config& cfg, const std::string& key,
                   const std::string& fallback,
                   std::initializer_list<const char*> choices) {
  const std::string v = cfg.get_string(key, fallback);
  std::string all;
  for (const char* c : choices) {
    if (v == c) {
      return v;
    }
    all += all.empty() ? c : std::string("|") + c;
  }
  usage_error("--" + key + " needs one of " + all + ", got '" + v + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fluxfp;

  // Every key and value is checked here, before any work: an unknown key
  // (flag or config file), an out-of-range count or fraction, or a
  // malformed number exits 2 with the usage.
  eval::Config cfg;
  const eval::Config args = eval::Config::parse_args(argc, argv);
  try {
    for (const std::string& path : args.positional()) {
      cfg.merge(eval::Config::parse_file(path));
    }
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  cfg.merge(args);
  static const std::set<std::string> kKeys = {
      "nodes",  "radius",  "deployment", "users",     "rounds",
      "fraction", "vmax",  "seed",       "tracker",   "stretch",
      "noise",  "dropout", "defense",    "pad_level", "dummy_count",
      "jitter_sigma"};
  for (const std::string& key : cfg.keys()) {
    if (kKeys.count(key) == 0) {
      usage_error("unknown key '" + key + "'");
    }
  }

  const auto nodes = static_cast<std::size_t>(count(cfg, "nodes", 900, 1,
                                                    1'000'000));
  const double radius = real(cfg, "radius", 2.4, 0.0, 1e6, true);
  const std::string deployment =
      choice(cfg, "deployment", "grid", {"grid", "random"});
  const auto users = static_cast<std::size_t>(
      count(cfg, "users", 2, 1, static_cast<long>(core::kMaxGramUsers)));
  const int rounds = static_cast<int>(count(cfg, "rounds", 10, 1, INT_MAX));
  const double fraction = real(cfg, "fraction", 0.10, 0.0, 1.0, true);
  const double vmax = real(cfg, "vmax", 5.0, 0.0, 1e6, true);
  const auto seed =
      static_cast<std::uint64_t>(count(cfg, "seed", 2010, 0, LONG_MAX));
  const std::string tracker_kind =
      choice(cfg, "tracker", "smc", {"smc", "instant", "ekf"});
  const double stretch = real(cfg, "stretch", 2.0, 0.0, 1e6);
  sim::FluxNoise noise;
  noise.relative_sigma = real(cfg, "noise", 0.0, 0.0, 1e6);
  noise.dropout_prob = real(cfg, "dropout", 0.0, 0.0, 1.0);

  // Optional traffic-reshaping defense applied by the network each window.
  privacy::CountermeasureConfig def_cfg;
  const std::string defense =
      choice(cfg, "defense", "none", {"none", "pad", "dummy", "jitter"});
  const double pad_level = real(cfg, "pad_level", 50.0, 0.0, 1e12);
  const auto dummy_count =
      static_cast<std::size_t>(count(cfg, "dummy_count", 2, 0, 1000));
  const double jitter_sigma = real(cfg, "jitter_sigma", 0.5, 0.0, 1e6);
  if (defense == "pad") {
    def_cfg.kind = privacy::CountermeasureKind::kConstantPadding;
    def_cfg.pad_level = pad_level;
  } else if (defense == "dummy") {
    def_cfg.kind = privacy::CountermeasureKind::kDummyTrees;
    def_cfg.dummy_count = dummy_count;
    def_cfg.dummy_stretch = stretch;
  } else if (defense == "jitter") {
    def_cfg.kind = privacy::CountermeasureKind::kStretchJitter;
    def_cfg.jitter_sigma = jitter_sigma;
  }
  const privacy::Countermeasure defense_impl(def_cfg);

  geom::Rng rng(seed);
  const geom::RectField field(30.0, 30.0);
  eval::NetworkSpec spec;
  spec.nodes = nodes;
  spec.radius = radius;
  if (deployment == "random") {
    spec.kind = net::DeploymentKind::kUniformRandom;
  }
  const net::UnitDiskGraph graph =
      eval::build_connected_network(spec, field, rng);
  const core::FluxModel model(field,
                              eval::estimate_d_min(graph, field, rng));
  std::printf("network: %zu nodes (%s), avg degree %.1f | %zu users, "
              "%d rounds, %.0f%% sniffed, tracker=%s\n",
              graph.size(), deployment.c_str(), graph.average_degree(),
              users, rounds, 100.0 * fraction, tracker_kind.c_str());

  // Random straight-line users below vmax.
  std::vector<sim::SimUser> sim_users;
  for (std::size_t j = 0; j < users; ++j) {
    const geom::Vec2 from = geom::uniform_in_field(field, rng);
    geom::Vec2 to = geom::uniform_in_field(field, rng);
    const double d = geom::distance(from, to);
    const double max_d = 0.8 * vmax * rounds;
    if (d > max_d) {
      to = from + (to - from) * (max_d / d);
    }
    sim::SimUser u;
    u.stretch = stretch;
    u.mobility = std::make_shared<sim::PathMobility>(
        geom::Polyline({from, to}), geom::distance(from, to) / rounds);
    sim_users.push_back(std::move(u));
  }

  sim::ScenarioConfig scfg;
  scfg.rounds = rounds;
  scfg.noise = noise;
  const auto observations = sim::run_scenario(graph, sim_users, scfg, rng);
  const auto sniffed = sim::sample_nodes_fraction(graph.size(), fraction, rng);

  // Tracker selection.
  std::unique_ptr<core::SmcTracker> smc;
  std::unique_ptr<core::InstantNlsTracker> instant;
  std::unique_ptr<core::EkfTracker> ekf;
  if (tracker_kind == "smc") {
    core::SmcConfig tcfg;
    tcfg.vmax = vmax;
    smc = std::make_unique<core::SmcTracker>(field, users, tcfg, rng);
  } else if (tracker_kind == "instant") {
    instant = std::make_unique<core::InstantNlsTracker>(field, users);
  } else {
    ekf = std::make_unique<core::EkfTracker>(field, users);
  }

  eval::Table table({"round", "mean err", "max err"});
  double final_err = 0.0;
  double defense_overhead = 0.0;
  for (const auto& obs : observations) {
    net::FluxMap flux = obs.flux;
    defense_impl.apply(flux, graph, rng);
    defense_overhead += defense_impl.last_overhead();
    const core::SparseObjective objective =
        eval::make_objective(model, graph, flux, sniffed);
    std::vector<geom::Vec2> est;
    if (smc) {
      smc->step(obs.time, objective, rng);
      for (std::size_t j = 0; j < users; ++j) {
        est.push_back(smc->estimate(j));
      }
    } else if (instant) {
      est = instant->step(objective, rng);
    } else {
      est = ekf->step(objective, 1.0, rng);
    }
    final_err = eval::matched_mean_error(est, obs.true_positions);
    table.add_row({eval::Table::fmt(obs.time, 0),
                   eval::Table::fmt(final_err),
                   eval::Table::fmt(
                       eval::matched_max_error(est, obs.true_positions))});
  }
  table.print(std::cout);
  std::printf("final identity-free error: %.2f (field diameter %.1f)\n",
              final_err, field.diameter());
  if (def_cfg.kind != privacy::CountermeasureKind::kNone) {
    std::printf("defense '%s': total reshaping overhead %.0f flux units "
                "across %d windows\n",
                defense.c_str(), defense_overhead, rounds);
  }
  return 0;
}
