// Per-layer helpers shared by the workloads: obs counter reads, set-up
// span totals, the attribution report, and the canonical per-layer list.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "numeric/parallel.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports it as 0 so all workloads share one name set.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"net.build_s", "s"},
    {"net.nodes", "count"},
    {"trace.gen_s", "s"},
    {"sim.scenario_s", "s"},
    {"sim.windows", "count"},
    {"stream.fold_us.p50", "us"},
    {"stream.epoch_ms.p50", "ms"},
    {"stream.epoch_ms.p99", "ms"},
    {"stream.epochs", "count"},
    {"stream.events", "count"},
    {"core.smc_step_ms.p50", "ms"},
    {"core.smc_step_ms.p99", "ms"},
    {"core.localize_ms.p50", "ms"},
    {"core.localize_ms.p99", "ms"},
    {"core.objective_us.p50", "us"},
    {"core.smc_steps", "count"},
    {"core.smc_recoveries", "count"},
    {"core.smc_bad_rounds", "count"},
    {"core.irls_rounds", "count"},
    {"core.recovery_frac", "ratio"},
    {"numeric.cpu_util", "ratio"},
    {"numeric.parallel_calls", "count"},
    {"numeric.pooled_frac", "ratio"},
    {"stream.offer_us.p50", "us"},
    {"stream.offer_us.p99", "us"},
    {"stream.checkpoint_ms.p50", "ms"},
    {"stream.checkpoint_ms.p99", "ms"},
    {"stream.checkpoints", "count"},
    {"stream.checkpoint_mb", "MiB"},
    {"stream.quiesce_ms.p50", "ms"},
    {"stream.quiesce_ms.p99", "ms"},
    {"stream.queue_max_depth", "count"},
    {"netio.batch_ms.p50", "ms"},
    {"netio.batch_ms.p99", "ms"},
    {"netio.query_ms.p50", "ms"},
    {"netio.query_ms.p90", "ms"},
    {"netio.server_ingest_p50_ms", "ms"},
    {"netio.server_ingest_p99_ms", "ms"},
    {"netio.error_frames", "count"},
    {"netio.gen_lag_ms.max", "ms"},
    {"trace_overhead_frac", "ratio"},
    {"other_frac", "ratio"},
};

void add_core_numeric_layers(Outcome& out, std::size_t passes, double wall_s,
                             double cpu_s) {
  const double steps = obs_per_pass("fluxfp_core_smc_steps_total", passes);
  const double recoveries =
      obs_per_pass("fluxfp_core_smc_recoveries_total", passes);
  out.layer("core.smc_steps", steps, "count");
  out.layer("core.smc_recoveries", recoveries, "count");
  out.layer("core.smc_bad_rounds",
            obs_per_pass("fluxfp_core_smc_bad_rounds_total", passes), "count");
  out.layer("core.irls_rounds",
            obs_per_pass("fluxfp_core_localizer_irls_rounds_total", passes),
            "count");
  out.layer("core.recovery_frac", steps > 0.0 ? recoveries / steps : 0.0,
            "ratio");
  const double threads = static_cast<double>(fluxfp::numeric::thread_count());
  out.layer("numeric.cpu_util", wall_s > 0.0 ? cpu_s / (wall_s * threads) : 0.0,
            "ratio");
  const double calls =
      obs_per_pass("fluxfp_numeric_parallel_calls_total", passes);
  const double pooled =
      obs_per_pass("fluxfp_numeric_parallel_pooled_calls_total", passes);
  out.layer("numeric.parallel_calls", calls, "count");
  out.layer("numeric.pooled_frac", calls > 0.0 ? pooled / calls : 0.0,
            "ratio");
}

/// Every per-layer metric in report order; absent ones read 0.
void fill_missing_layers(Outcome& out) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it =
        std::find_if(out.per_layer.begin(), out.per_layer.end(),
                     [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != out.per_layer.end() ? *it
                                                : Metric{name, 0.0, unit});
  }
  for (const Metric& m : out.per_layer) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const auto& entry) { return m.name == entry.first; });
    if (!known) {
      out.problems.push_back("per-layer metric '" + m.name +
                             "' missing from the canonical list");
    }
  }
  out.per_layer = std::move(ordered);
}

}  // namespace

void reset_obs_counters() {
  fluxfp::obs::MetricsRegistry::global().reset_values();
}

double obs_per_pass(const char* name, std::size_t passes) {
  const std::uint64_t total =
      fluxfp::obs::MetricsRegistry::global()
          .counter(name, "", fluxfp::obs::Determinism::kScheduling)
          .value();
  return static_cast<double>(total) /
         static_cast<double>(std::max<std::size_t>(passes, 1));
}

void save_spans(const Options& opts, const std::vector<Span>& setup_spans,
                const std::vector<Span>& spans) {
  ::mkdir(kRunDir, 0755);
  const std::string path = std::string(kRunDir) + "/spans-" + opts.workload +
                           "-" + std::to_string(opts.seed) + ".tsv";
  std::vector<Span> all = setup_spans;
  all.insert(all.end(), spans.begin(), spans.end());
  if (write_spans(path, all)) {
    std::fprintf(stderr, "e2ebench: %zu spans written to %s\n", all.size(),
                 path.c_str());
  } else {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
  }
}

double setup_span_s(const std::vector<Span>& setup_spans, const char* name) {
  double total = 0.0;
  for (double s : durations(setup_spans, name, 1e9)) {
    total += s;
  }
  return total / kSetupReps;
}


void finish_layers(Outcome& out, const std::vector<Span>& spans,
                   const std::vector<Window>& windows, const Timing& untraced,
                   const Timing& traced) {
  std::int64_t total = 0;
  std::int64_t covered = 0;
  for (const auto& [from, to] : windows) {
    total += to - from;
    covered += covered_ns(spans, from, to);
  }
  double cpu_s = 0.0;
  for (double s : traced.cpu_s) {
    cpu_s += s;
  }
  add_core_numeric_layers(out, traced.cpu_s.size(),
                          static_cast<double>(total) / 1e9, cpu_s);
  out.layer("trace_overhead_frac",
            median(traced.cpu_s) / median(untraced.cpu_s) - 1.0, "ratio");
  out.layer("other_frac",
            total > 0 ? 1.0 - static_cast<double>(covered) /
                                  static_cast<double>(total)
                      : 0.0,
            "ratio");
  fill_missing_layers(out);
}

}  // namespace e2ebench
