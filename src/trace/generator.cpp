#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace fluxfp::trace {

Trace generate_trace(std::vector<AccessPoint> aps,
                     const TraceGenConfig& config, geom::Rng& rng) {
  if (aps.empty() || config.num_users == 0 || !(config.duration > 0.0) ||
      !(config.median_dwell > 0.0) || !(config.dwell_sigma >= 0.0)) {
    throw std::invalid_argument("generate_trace: bad inputs");
  }
  Trace trace;
  trace.aps = std::move(aps);

  // lognormal_distribution requires sigma > 0; sigma 0 is a fixed dwell
  // of median_dwell and draws nothing.
  std::optional<std::lognormal_distribution<double>> dwell;
  if (config.dwell_sigma > 0.0) {
    dwell.emplace(std::log(config.median_dwell), config.dwell_sigma);
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> any_ap(0, trace.aps.size() - 1);

  for (std::size_t u = 0; u < config.num_users; ++u) {
    const std::string name = "user" + std::to_string(u);
    std::size_t cur = any_ap(rng);
    // Random phase so users are mutually asynchronous from the start.
    double t = unit(rng) * config.median_dwell;
    trace.events.push_back({name, t, trace.aps[cur].id});
    while (true) {
      t += std::max(dwell ? (*dwell)(rng) : config.median_dwell, 1.0);
      if (t >= config.duration) {
        break;
      }
      std::size_t next;
      const std::vector<std::size_t> nearby =
          ap_neighbors(trace.aps, cur, config.hop_radius);
      if (nearby.empty() || unit(rng) < config.jump_prob) {
        next = any_ap(rng);
      } else {
        std::uniform_int_distribution<std::size_t> pick(0, nearby.size() - 1);
        next = nearby[pick(rng)];
      }
      cur = next;
      trace.events.push_back({name, t, trace.aps[cur].id});
    }
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.time < b.time;
            });
  return trace;
}

}  // namespace fluxfp::trace
