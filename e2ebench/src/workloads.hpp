#pragma once

// The benchmark's workloads. Each builds its inputs from opts.seed, runs
// its timed phase with tracing off, and — with opts.trace — a second,
// traced phase on the same inputs that yields the per-layer metrics.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace e2ebench {

/// fig10(a): 20 trace-driven users per trial, one StreamTracker each.
Outcome run_trace20(const Options& opts);
/// fig6(a)/fig8(a): localize + 10-round SMC track, 1-4 users, trial-level
/// parallelism.
Outcome run_sweep4(const Options& opts);
/// The FXN1 service: 256 sessions replayed open loop over a Unix socket.
Outcome run_serve(const Options& opts);

/// Setup builds per run; setup_s is their median.
constexpr int kSetupReps = 3;

using Window = std::pair<std::int64_t, std::int64_t>;  ///< now_ns() times

/// Zeroes the library's obs counters before a traced phase.
void reset_obs_counters();
/// One of the library's obs counters divided by `passes` (counters cover
/// every traced pass; the report gives them per pass).
double obs_per_pass(const char* name, std::size_t passes);

/// Writes the traced run's set-up and timed-phase spans to
/// <kRunDir>/spans-<workload>-<seed>.tsv.
void save_spans(const Options& opts, const std::vector<Span>& setup_spans,
                const std::vector<Span>& spans);

/// Seconds the set-up spans named `name` took per set-up build, summed
/// over threads.
double setup_span_s(const std::vector<Span>& setup_spans, const char* name);

/// Adds the core and numeric counters of the traced passes (`traced`,
/// whose [start, end) are `windows`), and their attribution: the trace
/// overhead, as median CPU seconds per traced pass against `untraced`,
/// and the share of the windows no span in `spans` covers. Then adds a
/// zero for every per-layer metric the workload did not report, so every
/// workload reports the same names.
void finish_layers(Outcome& out, const std::vector<Span>& spans,
                   const std::vector<Window>& windows, const Timing& untraced,
                   const Timing& traced);

/// What a batch workload (trace20, sweep4) measured.
template <class Pass>
struct BatchRun {
  Timing setup_times;
  std::vector<Span> setup_spans;  ///< traced run only
  std::vector<Pass> passes;       ///< untraced
  Timing pass_times;
  std::vector<Pass> traced;  ///< traced run only, like the rest below
  Timing traced_times;
  std::vector<Window> traced_windows;
  std::vector<Span> spans;  ///< recorded by the traced passes
};

/// Runs `setup` kSetupReps times, then untraced passes for the budget and,
/// with opts.trace, traced passes for as long again (the budget is then
/// half of --seconds each). Checks that every pass reads the first
/// untraced pass's err_mean bit for bit.
template <class Pass>
BatchRun<Pass> run_batch(const Options& opts, Outcome& out,
                         const std::function<void()>& setup,
                         const std::function<Pass()>& pass) {
  BatchRun<Pass> r;
  set_tracing(opts.trace);
  r.setup_times = repeat_setup(kSetupReps, setup);
  set_tracing(false);
  r.setup_spans = collect_spans();
  clear_spans();

  const double budget = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  r.pass_times = run_passes(budget, [&] { r.passes.push_back(pass()); });
  const double err = r.passes.front().err_mean;
  for (const Pass& p : r.passes) {
    out.check(p.err_mean == err,
              "err_mean differs between passes over the same inputs");
  }
  if (!opts.trace) {
    return r;
  }
  reset_obs_counters();
  set_tracing(true);
  r.traced_times = run_passes(budget, [&] {
    const std::int64_t t0 = now_ns();
    r.traced.push_back(pass());
    r.traced_windows.emplace_back(t0, now_ns());
  });
  set_tracing(false);
  r.spans = collect_spans();
  for (const Pass& p : r.traced) {
    out.check(p.err_mean == err,
              "traced err_mean differs from the untraced run");
  }
  save_spans(opts, r.setup_spans, r.spans);
  return r;
}

/// finish_layers() for a batch run.
template <class Pass>
void finish_layers(Outcome& out, const BatchRun<Pass>& r) {
  finish_layers(out, r.spans, r.traced_windows, r.pass_times,
                r.traced_times);
}

}  // namespace e2ebench
