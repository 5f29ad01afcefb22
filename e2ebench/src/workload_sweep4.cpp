// sweep4 — the fig6(a) and fig8(a) points at 10% and 5% sniffers, 1-4
// users. Each trial localizes its users once with core::InstantLocalizer on
// the first window, then tracks them for 10 rounds with core::SmcTracker
// over eval::make_objective windows. Trials fan out through
// eval::run_trials, so the calls inside a trial run nested-serial.

#include <array>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "core/flux_model.hpp"
#include "core/localizer.hpp"
#include "core/smc.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "geom/field.hpp"
#include "numeric/parallel.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace fluxfp;

constexpr std::array<double, 2> kFractions = {0.10, 0.05};
constexpr std::size_t kMaxUsers = 4;
constexpr std::size_t kTrialsPerPoint = 32;
constexpr int kRounds = 10;

const geom::RectField& paper_field() {
  static const geom::RectField field(30.0, 30.0);
  return field;
}

struct Trial {
  std::uint64_t seed = 0;
  std::size_t users = 0;
  std::optional<net::UnitDiskGraph> graph;
  std::optional<core::FluxModel> model;
  std::vector<std::size_t> sniffers;
  std::vector<sim::RoundObservation> windows;
};

/// Straight random paths whose per-round step stays below vmax = 5
/// (exp_fig8_tracking_sweep's users).
std::vector<sim::SimUser> random_users(std::size_t k, geom::Rng& rng) {
  const geom::RectField& field = paper_field();
  std::uniform_real_distribution<double> stretch(1.0, 3.0);
  std::vector<sim::SimUser> users;
  for (std::size_t j = 0; j < k; ++j) {
    const geom::Vec2 from = geom::uniform_in_field(field, rng);
    geom::Vec2 to = geom::uniform_in_field(field, rng);
    const double d = geom::distance(from, to);
    const double max_d = 4.0 * kRounds;
    if (d > max_d) {
      to = from + (to - from) * (max_d / d);
    }
    sim::SimUser u;
    u.stretch = stretch(rng);
    u.mobility = std::make_shared<sim::PathMobility>(
        geom::Polyline({from, to}), geom::distance(from, to) / kRounds);
    users.push_back(std::move(u));
  }
  return users;
}

Trial build_trial(std::uint64_t seed, std::size_t users, double fraction) {
  Trial t;
  t.seed = seed;
  t.users = users;
  geom::Rng rng(seed);
  const geom::RectField& field = paper_field();
  {
    ScopedSpan span("net.build");
    t.graph = eval::build_connected_network({}, field, rng);
    t.model.emplace(field, eval::estimate_d_min(*t.graph, field, rng));
  }
  const std::vector<sim::SimUser> sim_users = random_users(users, rng);
  {
    ScopedSpan span("sim.scenario");
    sim::ScenarioConfig scfg;
    scfg.rounds = kRounds;
    t.windows = sim::run_scenario(*t.graph, sim_users, scfg, rng);
  }
  t.sniffers = sim::sample_nodes_fraction(t.graph->size(), fraction, rng);
  return t;
}

std::vector<Trial> build_trials(std::uint64_t seed) {
  const std::size_t per_fraction = kMaxUsers * kTrialsPerPoint;
  std::vector<Trial> trials(kFractions.size() * per_fraction);
  numeric::parallel_for(0, trials.size(), [&](std::size_t i) {
    const std::size_t f = i / per_fraction;
    const std::size_t k = 1 + (i % per_fraction) / kTrialsPerPoint;
    trials[i] = build_trial(eval::derive_seed(seed, {4, i}), k, kFractions[f]);
  });
  return trials;
}

bool finite(const std::vector<geom::Vec2>& points) {
  for (const geom::Vec2& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return false;
    }
  }
  return true;
}

/// What one trial measured.
struct TrialResult {
  double err = 0.0;  ///< mean of the localization and final tracking error
  std::uint64_t readings = 0;
  std::uint64_t results = 0;
  std::uint64_t non_finite = 0;
  bool thrown = false;  ///< counted as one failed result
};

TrialResult run_trial(const Trial& t) {
  TrialResult r;
  geom::Rng rng(eval::derive_seed(t.seed, {1}));
  auto objective = [&](const sim::RoundObservation& w) {
    ScopedSpan span("core.objective");
    r.readings += t.sniffers.size();
    return eval::make_objective(*t.model, *t.graph, w.flux, t.sniffers);
  };

  core::SparseObjective first = objective(t.windows.front());
  const core::InstantLocalizer localizer(paper_field());
  core::LocalizationResult loc;
  {
    ScopedSpan span("core.localize");
    loc = localizer.localize(first, t.users, rng);
  }
  ++r.results;
  r.non_finite += finite(loc.positions) ? 0 : 1;
  const double loc_err =
      eval::matched_mean_error(loc.positions, t.windows.front().true_positions);

  core::SmcTracker tracker(paper_field(), t.users, core::SmcConfig{}, rng);
  double track_err = 0.0;
  for (std::size_t w = 0; w < t.windows.size(); ++w) {
    const core::SparseObjective obj =
        w == 0 ? std::move(first) : objective(t.windows[w]);
    {
      ScopedSpan span("core.smc_step");
      tracker.step(t.windows[w].time, obj, rng);
    }
    ++r.results;
    std::vector<geom::Vec2> est;
    for (std::size_t u = 0; u < t.users; ++u) {
      est.push_back(tracker.estimate(u));
    }
    r.non_finite += finite(est) ? 0 : 1;
    track_err = eval::matched_mean_error(est, t.windows[w].true_positions);
  }
  r.err = 0.5 * (loc_err + track_err);
  return r;
}

struct Pass {
  double err_mean = 0.0;
  std::uint64_t readings = 0;
  std::uint64_t results = 0;
  std::uint64_t non_finite = 0;
  std::uint64_t thrown = 0;
};

Pass run_pass(const std::vector<Trial>& trials) {
  std::vector<TrialResult> results(trials.size());
  const std::vector<double> errs =
      eval::run_trials(trials.size(), [&](std::size_t i) {
        try {
          results[i] = run_trial(trials[i]);
        } catch (const std::exception&) {
          results[i] = TrialResult{};
          results[i].results = 1;
          results[i].thrown = true;
        }
        return results[i].err;
      });
  Pass pass;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    pass.err_mean += errs[i];
    pass.readings += results[i].readings;
    pass.results += results[i].results;
    pass.non_finite += results[i].non_finite;
    pass.thrown += results[i].thrown ? 1 : 0;
  }
  pass.err_mean /= static_cast<double>(trials.size());
  return pass;
}

}  // namespace

Outcome run_sweep4(const Options& opts) {
  Outcome out;
  numeric::set_thread_count(0);  // trial-level fan-out over nproc threads
  out.pool_threads = numeric::thread_count();

  std::vector<Trial> trials;
  const BatchRun<Pass> r = run_batch<Pass>(
      opts, out,
      [&] {
        trials.clear();
        trials = build_trials(opts.seed);
      },
      [&] { return run_pass(trials); });

  const Pass& first = r.passes.front();
  out.attempted = first.results;
  out.failed = first.non_finite + first.thrown;
  out.check(first.non_finite == 0, "non-finite estimates");
  out.check(first.thrown == 0, "a trial threw");
  add_common_metrics(out, r.setup_times, r.pass_times, first.err_mean,
                     static_cast<double>(first.readings));
  out.note("passes", static_cast<double>(r.passes.size()), "count");
  out.note("trials_per_pass", static_cast<double>(trials.size()), "count");
  if (!opts.trace) {
    return out;
  }

  std::size_t nodes = 0;
  std::size_t windows = 0;
  for (const Trial& t : trials) {
    nodes += t.graph->size();
    windows += t.windows.size();
  }
  out.layer("net.build_s", setup_span_s(r.setup_spans, "net.build"), "s");
  out.layer("net.nodes", static_cast<double>(nodes), "count");
  out.layer("sim.scenario_s", setup_span_s(r.setup_spans, "sim.scenario"),
            "s");
  out.layer("sim.windows", static_cast<double>(windows), "count");
  const std::vector<double> step_ms = durations(r.spans, "core.smc_step", 1e6);
  const std::vector<double> loc_ms = durations(r.spans, "core.localize", 1e6);
  out.layer("core.smc_step_ms.p50", median(step_ms), "ms");
  out.layer("core.smc_step_ms.p99", quantile(step_ms, 0.99), "ms");
  out.layer("core.localize_ms.p50", median(loc_ms), "ms");
  out.layer("core.localize_ms.p99", quantile(loc_ms, 0.99), "ms");
  out.layer("core.objective_us.p50",
            median(durations(r.spans, "core.objective", 1e3)), "us");
  finish_layers(out, r);
  return out;
}

}  // namespace e2ebench
