#pragma once

// Result record shared by the workloads: metrics, failure accounting,
// correctness problems, and the run context printed beside every number.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When non-empty, the full record (context, every metric, notes) is
  /// also written here as JSON for compare.py.
  std::string out_path;
};

/// Directory, relative to the checkout root the benchmark runs from, for
/// what a run leaves behind: the serve socket and the traced run's spans.
inline constexpr const char* kRunDir = ".bench_build";

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Outcome {
  std::vector<Metric> end_to_end;  ///< filled by every run
  std::vector<Metric> per_layer;   ///< filled by the traced run
  /// Printed beside the metrics but not part of the JSON result: serve's
  /// ack/query aliases, failed_frac, percentiles used and sample counts.
  std::vector<Metric> extra;
  std::vector<std::string> problems;  ///< failed correctness checks
  /// Reasons the measurement itself is invalid (e.g. the load generator
  /// fell behind its schedule); the run then reports no numbers.
  std::vector<std::string> invalid;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t pool_threads = 0;
  std::size_t server_workers = 0;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  }
};

/// Wall-clock and process CPU seconds of each of several timed runs of
/// one piece of work (set-up builds or timed passes).
struct Timing {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Adds the metrics every workload shares. End-to-end: setup_s (median
/// set-up CPU seconds), cpu_s (median pass CPU seconds), err_mean, ok_frac
/// (from out.attempted and out.failed) and peak_rss_mb. Report-only:
/// setup_wall_s, run_s (median pass wall seconds), events_per_s
/// (`events` / run_s) and failed_frac.
void add_common_metrics(Outcome& out, const Timing& setup,
                        const Timing& passes, double err_mean, double events);

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();
/// CPU seconds all threads of this process have run so far. The kernel
/// keeps time the hypervisor stole from a vCPU out of it, so it holds
/// still when other tenants load the host; wall time does not.
double process_cpu_seconds();

/// Runs `pass` at least once and again while the next pass is expected to
/// end within `budget_s` of the first start, timing each pass.
Timing run_passes(double budget_s, const std::function<void()>& pass);

/// Builds the workload's inputs `reps` times, timing each, and keeps the
/// last build.
Timing repeat_setup(int reps, const std::function<void()>& build);

/// The fields a result must carry to be compared with another.
struct Context {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string simd_backend;
  std::string build_type;
  bool optimized = false;
  bool sanitized = false;
};
Context build_context();

/// Why numbers from this binary must not be reported, or empty.
std::string refuse_reason(const Context& ctx);

/// Prints the human-readable report and, as the last stdout line, the
/// result JSON; writes the full record to opts.out_path when set.
void print_result(const Options& opts, const Context& ctx,
                  const Outcome& outcome);

}  // namespace e2ebench
