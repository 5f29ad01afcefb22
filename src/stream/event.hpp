#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/flux.hpp"

namespace fluxfp::stream {

/// One sniffed flux reading arriving at the tracking service: at event time
/// `time`, the sniffer at graph node `node` reports `reading` for the
/// collection epoch `epoch` of tracking stream `user`.
///
/// This is the unit of the online runtime — where the batch harnesses hand
/// the tracker a complete FluxMap per round, the streaming path receives
/// these asynchronously, folds them into per-epoch observation windows
/// (StreamTracker) and only then runs the SMC filtering step. A reading may
/// be net::kMissingReading (the sniffer explicitly reported "heard
/// nothing"); a sniffer that never reports at all simply produces no event,
/// and its slot stays missing when the window closes. Both cases end up
/// masked out of the fit by SparseObjective.
///
/// `user` identifies the tracking session the event belongs to — one
/// mobile user in the common single-user-per-session case, or a small
/// jointly-tracked group. The TrackerManager shards sessions across worker
/// threads by this key, so per-user event order is all that matters for
/// determinism (see DESIGN.md "Streaming runtime").
struct FluxEvent {
  double time = 0.0;        ///< measurement timestamp (event time)
  std::uint32_t user = 0;   ///< tracking session / shard key
  std::uint32_t epoch = 0;  ///< collection epoch (observation window id)
  std::uint32_t node = 0;   ///< sniffed node index (original graph indexing)
  double reading = 0.0;     ///< flux value; may be net::kMissingReading

  friend bool operator==(const FluxEvent& a, const FluxEvent& b) {
    // Missing readings compare equal (NaN != NaN would make every recorded
    // outage break trace round-trip comparisons).
    const bool readings_equal =
        a.reading == b.reading ||
        (net::is_missing(a.reading) && net::is_missing(b.reading));
    return a.time == b.time && a.user == b.user && a.epoch == b.epoch &&
           a.node == b.node && readings_equal;
  }
};

/// Merges several already time-ordered event sequences into one stream
/// ordered by event time (stable across inputs: ties keep the earlier
/// input's events first, so the merged order is deterministic). O(N log k)
/// for N events over k streams. Precondition: no event time is NaN (no
/// producer emits one, and NaN has no place in a time order); throws
/// std::invalid_argument on one.
std::vector<FluxEvent> merge_by_time(
    std::span<const std::vector<FluxEvent>> streams);

}  // namespace fluxfp::stream
