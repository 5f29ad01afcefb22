#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "stream/stream_tracker.hpp"
#include "support/bytes.hpp"

namespace fluxfp::stream {

/// FLUXFPC1 — versioned binary snapshot of a tracking service: every
/// session's complete mutable state (SMC particles and weights, RNG stream
/// position, open epoch windows, virtual-time cursors, ingestion counters)
/// plus the shard layout hint. A service rebuilt from a checkpoint folds
/// every subsequent event bit-identically to one that never stopped.
///
/// Fixed 24-byte header:
///   bytes 0..7   magic "FLUXFPC1"
///   bytes 8..11  u32 version (1)
///   bytes 12..15 u32 CRC-32 (IEEE 802.3, reflected) of the payload bytes
///   bytes 16..23 u64 payload byte count
/// The payload is little-endian like FLUXFPT1 (support/bytes.hpp, enforced
/// at compile time), so f64 fields — readings, weights, timestamps —
/// round-trip BIT-exactly, including the NaN payload of
/// net::kMissingReading. The CRC guards
/// against torn writes and bit rot: a checkpoint either decodes whole or
/// is rejected with a typed error, never half-applied.
inline constexpr char kCheckpointMagic[8] = {'F', 'L', 'U', 'X',
                                             'F', 'P', 'C', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::size_t kCheckpointHeaderBytes = 24;

/// One session's snapshot. `sniffer_nodes` and `num_users` echo the
/// construction inputs so restore can reject a checkpoint taken against a
/// different deployment instead of silently poisoning the filter.
struct SessionCheckpoint {
  std::uint32_t user = 0;
  std::uint32_t num_users = 1;
  std::vector<std::uint64_t> sniffer_nodes;
  StreamTrackerState state;
};

/// A whole service snapshot, sessions in registration order. `workers` is
/// a layout hint only — restoring under a different worker count is legal
/// and bit-identical (sessions own their RNG and event order).
struct ManagerCheckpoint {
  std::uint32_t workers = 1;
  std::vector<SessionCheckpoint> sessions;
};

/// Typed decode failure: what went wrong, at which byte offset of the
/// checkpoint image, and why. Returned (not thrown) so supervision code
/// can fall back to an older snapshot without exception plumbing. The same
/// type as stream::TraceError and netio::WireError.
using CheckpointError = support::DecodeError;

/// Serializes a snapshot into one in-memory FLUXFPC1 image (header +
/// payload). This is the supervision hot path — one buffer build, no
/// stream round-trip.
std::string encode_checkpoint(const ManagerCheckpoint& cp);

/// Serializes a snapshot. Returns the total bytes written (header +
/// payload). Throws std::runtime_error when the stream rejects a write —
/// an I/O failure, not a format condition, so it stays an exception.
std::uint64_t write_checkpoint(std::ostream& os, const ManagerCheckpoint& cp);

/// Decodes a snapshot. On success returns std::nullopt and fills `out`;
/// on any malformation — truncation, corruption, garbage — returns the
/// typed error and leaves `out` unspecified. Never throws on bad input and
/// never reads uninitialized bytes: every field is bounds-checked against
/// the bytes actually obtained.
std::optional<CheckpointError> read_checkpoint(std::istream& is,
                                               ManagerCheckpoint& out);

/// File conveniences. An unopenable file reports Kind::kBadStream; the
/// writer throws std::runtime_error like write_checkpoint.
std::uint64_t write_checkpoint_file(const std::string& path,
                                    const ManagerCheckpoint& cp);
std::optional<CheckpointError> read_checkpoint_file(const std::string& path,
                                                    ManagerCheckpoint& out);

}  // namespace fluxfp::stream
