#pragma once

#include "geom/sampling.hpp"
#include "trace/format.hpp"

namespace fluxfp::trace {

/// Parameters of the synthetic Dartmouth-style trace generator. Substitutes
/// for the proprietary dartmouth/campus/movement v1.3 data set (see
/// DESIGN.md): it reproduces the properties the paper's experiment
/// consumes — per-user AP-association sequences with heavy-tailed dwell
/// times, movements between nearby APs, and mutually asynchronous activity.
struct TraceGenConfig {
  std::size_t num_users = 20;
  /// Raw trace duration in seconds (before timeline compression).
  double duration = 360000.0;
  /// Median AP dwell time (seconds, > 0); dwell is lognormal around this,
  /// giving the bursty association pattern of real syslog traces.
  double median_dwell = 1800.0;
  /// Lognormal sigma of the dwell distribution (heavier tail for larger;
  /// >= 0, and 0 makes every dwell exactly median_dwell).
  double dwell_sigma = 1.2;
  /// Users move to an AP within this radius of the current one (field
  /// units); if none, any AP may be chosen.
  double hop_radius = 12.0;
  /// Probability that a movement jumps to a uniformly random AP instead of
  /// a nearby one (models building changes across campus).
  double jump_prob = 0.1;
};

/// Generates a synthetic association trace over the given AP set.
/// Each user: start at a random AP at a random offset within the first
/// dwell, then alternate (dwell, move) forever until `duration`; each
/// arrival emits a TraceEvent. Events are returned time-ordered. Every
/// dwell lasts at least 1 s. Throws std::invalid_argument on no APs, no
/// users, a non-positive duration or median_dwell, or a negative or NaN
/// dwell_sigma.
Trace generate_trace(std::vector<AccessPoint> aps, const TraceGenConfig& config,
                     geom::Rng& rng);

}  // namespace fluxfp::trace
