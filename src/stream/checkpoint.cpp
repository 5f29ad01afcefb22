#include "stream/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "support/crc32.hpp"

namespace fluxfp::stream {

namespace {

using support::ByteReader;
using support::ByteWriter;
using support::crc32;
using Kind = CheckpointError::Kind;

constexpr std::string_view kFormat(kCheckpointMagic, sizeof(kCheckpointMagic));

void encode_session(ByteWriter& w, const SessionCheckpoint& s) {
  w.u32(s.user);
  w.u32(s.num_users);
  w.u64(s.sniffer_nodes.size());
  for (const std::uint64_t node : s.sniffer_nodes) {
    w.u64(node);
  }
  const StreamTrackerState& st = s.state;
  w.u64(st.rng.size());
  w.bytes(st.rng);
  w.u64(st.smc.users.size());
  for (const core::SmcUserState& us : st.smc.users) {
    w.u64(us.particles.size());
    for (const core::Particle& p : us.particles) {
      w.f64(p.position.x);
      w.f64(p.position.y);
      w.f64(p.weight);
    }
    w.f64(us.t_last);
    w.f64(us.prev_estimate.x);
    w.f64(us.prev_estimate.y);
    w.f64(us.heading.x);
    w.f64(us.heading.y);
  }
  w.u32(static_cast<std::uint32_t>(st.smc.bad_rounds));
  w.u64(st.open.size());
  for (const WindowState& ws : st.open) {
    w.u32(ws.epoch);
    w.f64(ws.newest_time);
    w.u64(ws.seen_count);
    w.u64(ws.readings.size());
    for (const double r : ws.readings) {
      w.f64(r);
    }
    for (std::size_t i = 0; i < ws.seen.size(); ++i) {
      w.u8(ws.seen[i] ? 1 : 0);
    }
  }
  w.f64(st.now);
  w.f64(st.last_step_time);
  w.u8(st.fired_any ? 1 : 0);
  w.u32(st.last_fired_epoch);
  const StreamStats& ss = st.stats;
  w.u64(ss.events);
  w.u64(ss.duplicates);
  w.u64(ss.late);
  w.u64(ss.out_of_order);
  w.u64(ss.unknown_node);
  w.u64(ss.epochs_fired);
  w.u64(ss.forced_closes);
  w.u64(ss.filter_micros.size());
  for (const double m : ss.filter_micros) {
    w.f64(m);
  }
}

bool decode_session(ByteReader& r, SessionCheckpoint& s) {
  if (!r.u32(s.user) || !r.u32(s.num_users)) {
    return false;
  }
  std::uint64_t n = 0;
  if (!r.count(n, 8)) {
    return false;
  }
  s.sniffer_nodes.resize(static_cast<std::size_t>(n));
  for (std::uint64_t& node : s.sniffer_nodes) {
    if (!r.u64(node)) {
      return false;
    }
  }
  StreamTrackerState& st = s.state;
  if (!r.count(n, 1) || !r.str(st.rng, n, "rng state")) {
    return false;
  }
  if (!r.count(n, 8)) {
    return false;
  }
  st.smc.users.resize(static_cast<std::size_t>(n));
  for (core::SmcUserState& us : st.smc.users) {
    std::uint64_t particles = 0;
    if (!r.count(particles, 24)) {
      return false;
    }
    us.particles.resize(static_cast<std::size_t>(particles));
    for (core::Particle& p : us.particles) {
      if (!r.f64(p.position.x) || !r.f64(p.position.y) ||
          !r.f64(p.weight)) {
        return false;
      }
    }
    if (!r.f64(us.t_last) || !r.f64(us.prev_estimate.x) ||
        !r.f64(us.prev_estimate.y) || !r.f64(us.heading.x) ||
        !r.f64(us.heading.y)) {
      return false;
    }
  }
  std::uint32_t bad_rounds = 0;
  if (!r.u32(bad_rounds)) {
    return false;
  }
  if (bad_rounds > static_cast<std::uint32_t>(
                       std::numeric_limits<int>::max())) {
    return r.fail("bad_rounds out of range");
  }
  st.smc.bad_rounds = static_cast<int>(bad_rounds);
  if (!r.count(n, 28)) {
    return false;
  }
  st.open.resize(static_cast<std::size_t>(n));
  for (WindowState& ws : st.open) {
    std::uint64_t slots = 0;
    if (!r.u32(ws.epoch) || !r.f64(ws.newest_time) ||
        !r.u64(ws.seen_count) || !r.count(slots, 9)) {
      return false;
    }
    ws.readings.resize(static_cast<std::size_t>(slots));
    for (double& reading : ws.readings) {
      if (!r.f64(reading)) {
        return false;
      }
    }
    ws.seen.assign(static_cast<std::size_t>(slots), false);
    for (std::size_t i = 0; i < ws.seen.size(); ++i) {
      std::uint8_t bit = 0;
      if (!r.u8(bit)) {
        return false;
      }
      if (bit > 1) {
        return r.fail("seen flag is neither 0 nor 1");
      }
      ws.seen[i] = bit != 0;
    }
  }
  std::uint8_t fired = 0;
  if (!r.f64(st.now) || !r.f64(st.last_step_time) || !r.u8(fired) ||
      !r.u32(st.last_fired_epoch)) {
    return false;
  }
  if (fired > 1) {
    return r.fail("fired_any flag is neither 0 nor 1");
  }
  st.fired_any = fired != 0;
  StreamStats& ss = st.stats;
  if (!r.u64(ss.events) || !r.u64(ss.duplicates) || !r.u64(ss.late) ||
      !r.u64(ss.out_of_order) || !r.u64(ss.unknown_node) ||
      !r.u64(ss.epochs_fired) || !r.u64(ss.forced_closes)) {
    return false;
  }
  if (!r.count(n, 8)) {
    return false;
  }
  ss.filter_micros.resize(static_cast<std::size_t>(n));
  for (double& m : ss.filter_micros) {
    if (!r.f64(m)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string encode_checkpoint(const ManagerCheckpoint& cp) {
  ByteWriter w;
  w.bytes(kFormat);
  w.u32(kCheckpointVersion);
  w.u32(0);  // CRC, patched below
  w.u64(0);  // payload byte count, patched below
  w.u32(cp.workers);
  w.u64(cp.sessions.size());
  for (const SessionCheckpoint& s : cp.sessions) {
    encode_session(w, s);
  }
  const std::size_t payload_bytes = w.size() - kCheckpointHeaderBytes;
  support::put<std::uint32_t>(
      w.at(12), crc32({w.at(kCheckpointHeaderBytes), payload_bytes}));
  support::put<std::uint64_t>(w.at(16), payload_bytes);
  return w.take();
}

std::uint64_t write_checkpoint(std::ostream& os,
                               const ManagerCheckpoint& cp) {
  const std::string image = encode_checkpoint(cp);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  if (!os) {
    throw std::runtime_error("write_checkpoint: stream write failed");
  }
  return image.size();
}

std::optional<CheckpointError> read_checkpoint(std::istream& is,
                                               ManagerCheckpoint& out) {
  char header[kCheckpointHeaderBytes];
  is.read(header, sizeof(header));
  const auto got = static_cast<std::uint64_t>(is.gcount());
  if (got != sizeof(header)) {
    return CheckpointError{kFormat, Kind::kTruncatedHeader, got,
                           "got " + std::to_string(got) + " of " +
                               std::to_string(kCheckpointHeaderBytes) +
                               " header bytes"};
  }
  if (std::memcmp(header, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return CheckpointError{kFormat, Kind::kBadMagic, 0,
                           "not a FLUXFPC1 checkpoint"};
  }
  const auto version = support::get<std::uint32_t>(header + 8);
  if (version != kCheckpointVersion) {
    return CheckpointError{kFormat, Kind::kBadVersion, 8,
                           "checkpoint version " + std::to_string(version)};
  }
  const auto want_crc = support::get<std::uint32_t>(header + 12);
  const auto payload_bytes = support::get<std::uint64_t>(header + 16);

  // Read the payload in bounded chunks: a corrupt length field must not
  // translate into a giant up-front allocation.
  std::string payload;
  char chunk[1 << 16];
  while (payload.size() < payload_bytes) {
    const std::uint64_t want =
        std::min<std::uint64_t>(sizeof(chunk),
                                payload_bytes - payload.size());
    is.read(chunk, static_cast<std::streamsize>(want));
    const auto n = static_cast<std::uint64_t>(is.gcount());
    payload.append(chunk, static_cast<std::size_t>(n));
    if (n < want) {
      return CheckpointError{
          kFormat, Kind::kTruncatedPayload,
          kCheckpointHeaderBytes + payload.size(),
          "got " + std::to_string(payload.size()) + " of " +
              std::to_string(payload_bytes) + " payload bytes"};
    }
  }
  if (crc32(payload) != want_crc) {
    return CheckpointError{kFormat, Kind::kCrcMismatch, 12,
                           "torn write or corruption"};
  }

  ManagerCheckpoint cp;
  ByteReader r(payload, kFormat, kCheckpointHeaderBytes);
  std::uint64_t sessions = 0;
  if (r.u32(cp.workers) && r.count(sessions, 16)) {
    cp.sessions.resize(static_cast<std::size_t>(sessions));
    for (SessionCheckpoint& s : cp.sessions) {
      if (!decode_session(r, s)) {
        break;
      }
    }
  }
  if (!r.done()) {
    return r.error();
  }
  out = std::move(cp);
  return std::nullopt;
}

std::uint64_t write_checkpoint_file(const std::string& path,
                                    const ManagerCheckpoint& cp) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("write_checkpoint_file: cannot open " + path);
  }
  return write_checkpoint(os, cp);
}

std::optional<CheckpointError> read_checkpoint_file(const std::string& path,
                                                    ManagerCheckpoint& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return CheckpointError{kFormat, Kind::kBadStream, 0,
                           "cannot open " + path};
  }
  return read_checkpoint(is, out);
}

}  // namespace fluxfp::stream
