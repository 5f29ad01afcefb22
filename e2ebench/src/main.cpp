// e2ebench — end-to-end benchmark of the fluxfp tracker and service.
//
//   e2ebench --workload trace20|sweep4|serve --seed N --seconds S
//            --trace 0|1 [--out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload untraced and then traced and reports the per-layer metrics.
// The last stdout line is the result JSON. Exit status: 0 measured (the
// JSON's "correct" tells whether every output check passed), 1 runtime
// failure, 2 usage error or a build that must not be measured, 3 invalid
// measurement (the load generator fell behind its own schedule).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench --workload trace20|sweep4|serve --seed N "
               "--seconds S --trace 0|1 [--out FILE]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    usage(std::string(flag) + " needs a non-negative integer");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) {
      usage(std::string("missing value for ") + a);
    }
    const char* v = argv[++i];
    if (!std::strcmp(a, "--workload")) {
      opts.workload = v;
    } else if (!std::strcmp(a, "--seed")) {
      opts.seed = parse_u64(a, v);
      have_seed = true;
    } else if (!std::strcmp(a, "--seconds")) {
      char* end = nullptr;
      opts.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opts.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (!std::strcmp(a, "--trace")) {
      opts.trace = parse_u64(a, v) != 0;
    } else if (!std::strcmp(a, "--out")) {
      opts.out_path = v;
    } else {
      usage(std::string("unknown flag ") + a);
    }
  }
  if (!have_seed) {
    usage("--seed is required");
  }

  const e2ebench::Context ctx = e2ebench::build_context();
  if (const std::string why = e2ebench::refuse_reason(ctx); !why.empty()) {
    std::fprintf(stderr, "e2ebench: refusing to measure: %s\n", why.c_str());
    return 2;
  }

  e2ebench::Outcome outcome;
  try {
    if (opts.workload == "trace20") {
      outcome = e2ebench::run_trace20(opts);
    } else if (opts.workload == "sweep4") {
      outcome = e2ebench::run_sweep4(opts);
    } else if (opts.workload == "serve") {
      outcome = e2ebench::run_serve(opts);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!outcome.invalid.empty()) {
    for (const std::string& why : outcome.invalid) {
      std::fprintf(stderr, "e2ebench: invalid run: %s\n", why.c_str());
    }
    return 3;
  }
  e2ebench::print_result(opts, ctx, outcome);
  return 0;
}
