#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "numeric/simd/kernels.hpp"

namespace e2ebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void add_common_metrics(Outcome& out, const Timing& setup,
                        const Timing& passes, double err_mean, double events) {
  const double failed_frac = static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted);
  const double run_s = median(passes.wall_s);
  out.e2e("setup_s", median(setup.cpu_s), "s");
  out.e2e("cpu_s", median(passes.cpu_s), "s");
  out.e2e("err_mean", err_mean, "field_units");
  out.e2e("ok_frac", 1.0 - failed_frac, "ratio");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  out.note("setup_wall_s", median(setup.wall_s), "s");
  out.note("run_s", run_s, "s");
  out.note("events_per_s", events / run_s, "1/s");
  out.note("failed_frac", failed_frac, "ratio");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Timing run_passes(double budget_s, const std::function<void()>& pass) {
  Timing t;
  const double start = wall_seconds();
  do {
    const double wall0 = wall_seconds();
    const double cpu0 = process_cpu_seconds();
    pass();
    t.cpu_s.push_back(process_cpu_seconds() - cpu0);
    t.wall_s.push_back(wall_seconds() - wall0);
  } while (wall_seconds() - start + median(t.wall_s) <= budget_s);
  return t;
}

Timing repeat_setup(int reps, const std::function<void()>& build) {
  Timing t;
  for (int r = 0; r < reps; ++r) {
    const double wall0 = wall_seconds();
    const double cpu0 = process_cpu_seconds();
    build();
    t.cpu_s.push_back(process_cpu_seconds() - cpu0);
    t.wall_s.push_back(wall_seconds() - wall0);
  }
  return t;
}

namespace {

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') {
        ++start;
      }
      return line.substr(start);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-tripping decimal; JSON has no NaN/inf, so those print
/// as null (and fail the run's validity check before we get here).
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string context_json(const Options& opts, const Context& ctx,
                         const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opts.workload)
      << ", \"seed\": " << opts.seed << ", \"seconds\": "
      << json_number(opts.seconds) << ", \"trace\": " << (opts.trace ? 1 : 0)
      << ", \"cpu_model\": " << json_string(ctx.cpu_model)
      << ", \"nproc\": " << ctx.nproc
      << ", \"simd_backend\": " << json_string(ctx.simd_backend)
      << ", \"build_type\": " << json_string(ctx.build_type)
      << ", \"fluxfp_obs\": 1"
      << ", \"pool_threads\": " << outcome.pool_threads
      << ", \"server_workers\": " << outcome.server_workers << "}";
  return out.str();
}

}  // namespace

Context build_context() {
  Context ctx;
  ctx.cpu_model = cpu_model_name();
  ctx.nproc = std::thread::hardware_concurrency();
  ctx.simd_backend = fluxfp::numeric::simd::backend_name();
  ctx.build_type = E2EBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  ctx.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(E2EBENCH_SANITIZED)
  ctx.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  ctx.sanitized = true;
#endif
#endif
  return ctx;
}

std::string refuse_reason(const Context& ctx) {
  if (!ctx.optimized) {
    return "unoptimised build (build type '" + ctx.build_type +
           "'); configure with -DCMAKE_BUILD_TYPE=Release";
  }
  if (ctx.sanitized) {
    return "sanitizer build; timings from it are not comparable";
  }
  return {};
}

void print_result(const Options& opts, const Context& ctx,
                  const Outcome& outcome) {
  std::printf("context %s\n", context_json(opts, ctx, outcome).c_str());
  auto print_list = [](const char* title, const std::vector<Metric>& list) {
    for (const Metric& m : list) {
      std::printf("%-10s %-32s %16.6g %s\n", title, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print_list("e2e", outcome.end_to_end);
  print_list("layer", outcome.per_layer);
  print_list("also", outcome.extra);
  for (const std::string& p : outcome.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = outcome.problems.empty();
  const std::vector<Metric>& reported =
      opts.trace ? outcome.per_layer : outcome.end_to_end;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + metrics_json(reported) + "}";
  if (!opts.out_path.empty()) {
    std::ofstream out(opts.out_path, std::ios::trunc);
    out << "{\"context\": " << context_json(opts, ctx, outcome)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << outcome.attempted
        << ", \"failed\": " << outcome.failed
        << ", \"end_to_end\": " << metrics_json(outcome.end_to_end)
        << ", \"per_layer\": " << metrics_json(outcome.per_layer)
        << ", \"extra\": " << metrics_json(outcome.extra) << "}\n";
    if (!out) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n",
                   opts.out_path.c_str());
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace e2ebench
