#pragma once

// Shared fixtures for the experiment harnesses. Each exp_* binary
// regenerates one of the paper's figures as a printed table; absolute
// numbers come from our simulator, the *shape* (who wins, where the knees
// are) is what reproduces the paper. All binaries are deterministic for a
// fixed --seed.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "core/flux_model.hpp"
#include "eval/table.hpp"
#include "eval/experiment.hpp"
#include "geom/field.hpp"
#include "numeric/parallel.hpp"
#include "support/cli.hpp"

namespace fluxfp::bench {

/// Command-line options shared by every experiment binary.
struct Options {
  std::uint64_t seed = 2010;
  /// Scales trial counts down for smoke runs (--quick).
  bool quick = false;
  /// When set (--csv DIR), sweep tables are also written to DIR/<name>.csv.
  std::string csv_dir;
};

/// Parses the shared flags; anything else, or a malformed value, is a
/// usage error (exit 2) before any work starts.
inline Options parse_options(int argc, char** argv) {
  std::string program = argc > 0 ? argv[0] : "exp";
  program.erase(0, program.find_last_of('/') + 1);
  const std::string usage = "usage: " + program +
                            " [--quick] [--seed N] [--csv DIR] "
                            "[--threads N]\n";
  cli::Args args(argc, argv, 1, program, usage);
  Options opts;
  while (args.next()) {
    if (args.is("--quick")) {
      opts.quick = true;
    } else if (args.is("--seed")) {
      opts.seed = args.integer<std::uint64_t>();
    } else if (args.is("--csv")) {
      opts.csv_dir = args.value();
    } else if (args.is("--threads")) {
      // Worker count for the candidate-evaluation engine (0 = hardware
      // concurrency, 1 = serial). Results are bit-identical either way;
      // this knob trades wall-clock only.
      numeric::set_thread_count(args.integer<std::size_t>());
    } else {
      args.unknown_flag();
    }
  }
  return opts;
}

/// Prints the table and, when --csv was given, also dumps it to
/// <csv_dir>/<name>.csv for plotting.
inline void emit_table(const eval::Table& table, const Options& opts,
                       const char* name) {
  table.print(std::cout);
  if (!opts.csv_dir.empty()) {
    const std::string path = opts.csv_dir + "/" + name + ".csv";
    std::ofstream out(path);
    if (out) {
      table.write_csv(out);
      std::cout << "  [csv written to " << path << "]\n";
    } else {
      std::cerr << "  [failed to open " << path << "]\n";
    }
  }
}

/// The paper's standard field (30 x 30, §5.A).
inline geom::RectField paper_field() { return geom::RectField(30.0, 30.0); }

/// Builds the standard network and a matching flux model in one go.
struct Testbed {
  net::UnitDiskGraph graph;
  core::FluxModel model;

  Testbed(const eval::NetworkSpec& spec, const geom::Field& field,
          geom::Rng& rng)
      : graph(eval::build_connected_network(spec, field, rng)),
        model(field, eval::estimate_d_min(graph, field, rng)) {}
};

}  // namespace fluxfp::bench
