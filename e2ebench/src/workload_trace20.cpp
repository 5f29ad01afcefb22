// trace20 — the fig10(a) configuration through the streaming tracker.
//
// A fixed list of trials alternates perturbed-grid and random deployments
// on the paper's 30 x 30 field. Each trial tracks 20 trace-driven users
// jointly with one stream::StreamTracker fed from stream::scenario_events
// (10% sniffers, vmax 5, 400 predictions). Trials run one after another;
// the numeric pool parallelises inside each SMC step.

#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "core/flux_model.hpp"
#include "core/smc.hpp"
#include "eval/experiment.hpp"
#include "geom/field.hpp"
#include "numeric/parallel.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "spans.hpp"
#include "stream/emit.hpp"
#include "stream/stream_tracker.hpp"
#include "trace/ap.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace fluxfp;

constexpr std::size_t kTrials = 24;
constexpr int kMaxRounds = 20;
constexpr std::size_t kUsers = 20;
constexpr double kSnifferFraction = 0.10;

const geom::RectField& paper_field() {
  static const geom::RectField field(30.0, 30.0);
  return field;
}

/// Inputs of one trial, built before the timed phase.
struct Trial {
  std::uint64_t seed = 0;
  std::optional<net::UnitDiskGraph> graph;
  std::optional<core::FluxModel> model;
  std::vector<std::size_t> sniffers;
  std::vector<geom::Polyline> paths;  ///< ground-truth trajectories
  std::vector<stream::FluxEvent> events;
  std::size_t windows = 0;
};

Trial build_trial(std::uint64_t seed, bool grid) {
  Trial t;
  t.seed = seed;
  geom::Rng rng(seed);
  const geom::RectField& field = paper_field();
  {
    ScopedSpan span("net.build");
    eval::NetworkSpec spec;
    spec.kind = grid ? net::DeploymentKind::kPerturbedGrid
                     : net::DeploymentKind::kUniformRandom;
    t.graph = eval::build_connected_network(spec, field, rng);
    t.model.emplace(field, eval::estimate_d_min(*t.graph, field, rng));
  }
  std::vector<trace::ReplayedUser> replayed;
  {
    ScopedSpan span("trace.gen");
    trace::TraceGenConfig gcfg;
    gcfg.num_users = kUsers;
    gcfg.duration = 30000.0;
    gcfg.median_dwell = 300.0;
    const trace::Trace tr =
        trace::generate_trace(trace::grid_aps(field, 5, 10), gcfg, rng);
    replayed = trace::replay_users(tr, {}, rng);
  }
  std::vector<sim::SimUser> users;
  for (const auto& u : replayed) {
    users.push_back(u.sim);
    t.paths.push_back(u.path);
  }
  std::vector<sim::RoundObservation> obs;
  {
    ScopedSpan span("sim.scenario");
    sim::ScenarioConfig scfg;
    scfg.rounds = std::min(
        kMaxRounds,
        static_cast<int>(trace::compressed_end_time(replayed)) + 1);
    obs = sim::run_scenario(*t.graph, users, scfg, rng);
  }
  t.windows = obs.size();
  t.sniffers =
      sim::sample_nodes_fraction(t.graph->size(), kSnifferFraction, rng);
  {
    ScopedSpan span("stream.emit");
    t.events = stream::scenario_events(*t.graph, obs, t.sniffers, 0);
  }
  return t;
}

std::vector<Trial> build_trials(std::uint64_t seed) {
  std::vector<Trial> trials;
  for (std::size_t i = 0; i < kTrials; ++i) {
    trials.push_back(
        build_trial(eval::derive_seed(seed, {20, i}), /*grid=*/i % 2 == 0));
  }
  return trials;
}

/// What one pass over every trial measured.
struct Pass {
  double err_mean = 0.0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t failed = 0;       ///< dropped events + non-finite estimates
  std::uint64_t non_finite = 0;
  std::uint64_t thrown = 0;  ///< trials whose tracking threw
};

/// Tracks one trial; returns the mean distance from each user's estimate
/// to its trajectory (fig10's metric) over the epochs after its first
/// update.
double track(const Trial& t, Pass& pass) {
  core::SmcConfig smc;
  smc.num_predictions = 400;
  smc.vmax = 5.0;
  stream::StreamTrackerConfig cfg;
  cfg.smc = smc;
  cfg.expected_readings = t.sniffers.size();
  std::vector<stream::EpochResult> fired;
  // A call's span is named after what it did: folded an event, or fired
  // one or more epochs.
  auto traced_call = [&](auto&& call) {
    const std::int64_t t0 = tracing() ? now_ns() : 0;
    std::vector<stream::EpochResult> out = call();
    if (tracing()) {
      record_span(out.empty() ? "stream.fold" : "stream.epoch", t0, now_ns());
    }
    for (auto& r : out) {
      fired.push_back(std::move(r));
    }
  };
  std::unique_ptr<stream::StreamTracker> tracker;
  {
    ScopedSpan span("stream.open");
    tracker = std::make_unique<stream::StreamTracker>(
        *t.model, *t.graph, t.sniffers, kUsers, cfg, t.seed);
  }
  for (const stream::FluxEvent& e : t.events) {
    traced_call([&] { return tracker->on_event(e); });
  }
  traced_call([&] { return tracker->flush(); });

  const stream::StreamStats& st = tracker->stats();
  pass.epochs += fired.size();
  pass.failed += st.unknown_node + st.late;
  double sum = 0.0;
  std::size_t n = 0;
  std::vector<bool> seen(kUsers, false);
  for (const stream::EpochResult& r : fired) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      const geom::Vec2 p = r.estimates[u];
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
        ++pass.failed;
        ++pass.non_finite;
        continue;
      }
      seen[u] = seen[u] || r.step.updated[u];
      if (seen[u]) {
        sum += t.paths[u].distance_to(p);
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

Pass run_pass(const std::vector<Trial>& trials) {
  Pass pass;
  double err_sum = 0.0;
  for (const Trial& t : trials) {
    pass.events += t.events.size();
    try {
      err_sum += track(t, pass);
    } catch (const std::exception&) {
      // The trial's events were never tracked.
      pass.failed += t.events.size();
      ++pass.thrown;
    }
  }
  pass.err_mean = err_sum / static_cast<double>(trials.size());
  return pass;
}

}  // namespace

Outcome run_trace20(const Options& opts) {
  Outcome out;
  numeric::set_thread_count(0);  // nproc threads inside each SMC step
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
  out.attempted = first.events + first.epochs * kUsers;
  out.failed = first.failed;
  out.check(first.non_finite == 0, "non-finite estimates");
  out.check(first.thrown == 0, "a trial threw");
  add_common_metrics(out, r.setup_times, r.pass_times, first.err_mean,
                     static_cast<double>(first.events));
  out.note("passes", static_cast<double>(r.passes.size()), "count");
  out.note("epochs_per_pass", static_cast<double>(first.epochs), "count");
  if (!opts.trace) {
    return out;
  }

  std::size_t nodes = 0;
  std::size_t windows = 0;
  for (const Trial& t : trials) {
    nodes += t.graph->size();
    windows += t.windows;
  }
  out.layer("net.build_s", setup_span_s(r.setup_spans, "net.build"), "s");
  out.layer("net.nodes", static_cast<double>(nodes), "count");
  out.layer("trace.gen_s", setup_span_s(r.setup_spans, "trace.gen"), "s");
  out.layer("sim.scenario_s", setup_span_s(r.setup_spans, "sim.scenario"),
            "s");
  out.layer("sim.windows", static_cast<double>(windows), "count");
  const std::vector<double> epoch_span_ms =
      durations(r.spans, "stream.epoch", 1e6);
  out.layer("stream.fold_us.p50",
            median(durations(r.spans, "stream.fold", 1e3)), "us");
  out.layer("stream.epoch_ms.p50", median(epoch_span_ms), "ms");
  out.layer("stream.epoch_ms.p99", quantile(epoch_span_ms, 0.99), "ms");
  out.layer("stream.epochs",
            obs_per_pass("fluxfp_stream_epochs_fired_total", r.traced.size()),
            "count");
  out.layer("stream.events",
            obs_per_pass("fluxfp_stream_fold_events_total", r.traced.size()),
            "count");
  finish_layers(out, r);
  return out;
}

}  // namespace e2ebench
