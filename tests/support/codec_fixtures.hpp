#pragma once

// Fixed inputs for the byte goldens of the three binary formats (FLUXFPT1
// traces, FLUXFPC1 checkpoints, FXN1 frames), plus the hex fixture codec
// and the bit-level comparisons the golden and fuzz tests share. Every
// input is hand-built, so the encoded bytes depend on nothing but the
// codecs: no RNG stream, no SIMD backend, no filter run.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/flux.hpp"
#include "netio/wire.hpp"
#include "stream/checkpoint.hpp"
#include "stream/trace_io.hpp"

namespace fluxfp::codec_fixtures {

/// Bit-pattern equality: NaN payloads and the sign of zero both count.
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Trace records covering the readings a naive codec would mangle: the
/// missing-reading NaN, negative zero, both infinities and subnormals.
inline std::vector<stream::FluxEvent> trace_events() {
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  return {
      {0.0, 0, 0, 3, 12.5},
      {0.25, 1, 0, 7, net::kMissingReading},
      {0.5, 0, 1, 3, -0.0},
      {0.75, 2, 1, 11, inf},
      {1.0, 0xFFFFFFFFu, 2, 0xFFFFFFFFu, -inf},
      {1.25, 3, 2, 4, subnormal},
      {subnormal, 3, 0xFFFFFFFFu, 5, -3.0 * subnormal},
      {-2.5, 4, 3, 6, 0.0},
  };
}

/// A whole FLUXFPT1 trace of trace_events() tagged with `model_id`
/// (0 writes version 1, anything else version 2).
inline std::string trace_image(std::uint8_t model_id) {
  std::ostringstream os;
  stream::TraceRecorder recorder(os, model_id);
  recorder.write(trace_events());
  return os.str();
}

/// Two sessions: the first mid-stream (two users' particles, two open
/// windows with partial `seen` flags and missing-reading NaN slots, fired
/// epochs and timings), the second freshly registered (no open windows,
/// no timings).
inline stream::ManagerCheckpoint checkpoint() {
  const double nan = net::kMissingReading;
  stream::ManagerCheckpoint cp;
  cp.workers = 3;

  stream::SessionCheckpoint a;
  a.user = 7;
  a.num_users = 2;
  a.sniffer_nodes = {1, 5, 9};
  a.state.rng = "5489 42 17 0xfeed";
  a.state.smc.users.resize(2);
  a.state.smc.users[0].particles = {{{1.5, 2.25}, 0.5},
                                    {{-0.0, 3.0}, 0.25},
                                    {{4.75, 0.125}, 0.25}};
  a.state.smc.users[0].t_last = 3.5;
  a.state.smc.users[0].prev_estimate = {2.0, 2.5};
  a.state.smc.users[0].heading = {0.6, -0.8};
  a.state.smc.users[1].particles = {{{9.0, 9.5}, 1.0}};
  a.state.smc.users[1].t_last = 2.75;
  a.state.smc.users[1].prev_estimate = {9.0, 9.5};
  a.state.smc.bad_rounds = 1;
  stream::WindowState w4;
  w4.epoch = 4;
  w4.newest_time = 4.5;
  w4.seen_count = 2;
  w4.readings = {1.5, nan, 0.25};
  w4.seen = {true, false, true};
  stream::WindowState w5;
  w5.epoch = 5;
  w5.newest_time = 5.125;
  w5.seen_count = 1;
  w5.readings = {nan, nan, 3.0};
  w5.seen = {false, false, true};
  a.state.open = {w4, w5};
  a.state.now = 5.125;
  a.state.last_step_time = 3.875;
  a.state.fired_any = true;
  a.state.last_fired_epoch = 3;
  a.state.stats.events = 17;
  a.state.stats.duplicates = 2;
  a.state.stats.late = 1;
  a.state.stats.out_of_order = 3;
  a.state.stats.epochs_fired = 4;
  a.state.stats.filter_micros = {120.5, 98.25, 101.0, 99.5};

  stream::SessionCheckpoint b;
  b.user = 8;
  b.num_users = 1;
  b.sniffer_nodes = {2, 6};
  b.state.rng = "1 2 3";
  b.state.smc.users.resize(1);
  b.state.smc.users[0].particles = {{{0.5, 0.5}, 1.0}};

  cp.sessions = {a, b};
  return cp;
}

inline netio::HelloMsg hello(std::uint8_t model) {
  netio::HelloMsg m;
  m.version = netio::kWireVersion;
  m.tenant = 3;
  m.token = 0xDEADBEEFCAFEF00Dull;
  m.model = model;
  return m;
}

inline netio::WelcomeMsg welcome() { return {netio::kWireVersion, 4, 42}; }

inline netio::BatchAckMsg batch_ack() { return {5, 1, 0, 2, 0}; }

inline netio::QueryMsg query() { return {7}; }

inline netio::EstimateMsg estimate() {
  netio::EstimateMsg m;
  m.user = 7;
  m.epochs_fired = 12;
  m.events_folded = 340;
  m.time = 6.5;
  m.estimates = {{1.25, -2.5}, {net::kMissingReading, -0.0}};
  return m;
}

inline netio::MetricsMsg metrics() {
  netio::MetricsMsg m;
  m.events_accepted = 1000;
  m.events_processed = 990;
  m.events_shed = 4;
  m.events_unknown = 3;
  m.events_foreign = 2;
  m.batches = 17;
  m.frames_in = 40;
  m.error_frames = 1;
  m.connections_opened = 5;
  m.connections_active = 2;
  m.checkpoints = 6;
  m.restarts = 1;
  m.sessions = 8;
  m.wall_seconds = 12.5;
  m.events_per_second = 79.2;
  m.ingest_p50_us = 310.5;
  m.ingest_p99_us = 2048.25;
  m.ingest_max_us = 9001.0;
  m.ingest_samples = 990;
  return m;
}

inline netio::ErrorMsg error_msg() {
  return {netio::ErrorCode::kModelMismatch, 1234,
          "observation model mismatch: server tracks flux"};
}

/// Named fixture entry: a whole encoded image or frame.
struct Entry {
  std::string name;
  std::string bytes;
};

/// One FXN1 frame per message type (HELLO twice: the 16-byte flux form and
/// the form with the trailing model byte).
inline std::vector<Entry> frames() {
  using netio::FrameType;
  using netio::encode_frame;
  const std::vector<stream::FluxEvent> events = trace_events();
  return {
      {"HELLO",
       encode_frame(FrameType::kHello, netio::encode_hello(hello(0)))},
      {"HELLO_MODEL",
       encode_frame(FrameType::kHello, netio::encode_hello(hello(2)))},
      {"WELCOME",
       encode_frame(FrameType::kWelcome, netio::encode_welcome(welcome()))},
      {"EVENT_BATCH", encode_frame(FrameType::kEventBatch,
                                   netio::encode_event_batch(events))},
      {"BATCH_ACK", encode_frame(FrameType::kBatchAck,
                                 netio::encode_batch_ack(batch_ack()))},
      {"QUERY_ESTIMATE",
       encode_frame(FrameType::kQueryEstimate, netio::encode_query(query()))},
      {"ESTIMATE",
       encode_frame(FrameType::kEstimate, netio::encode_estimate(estimate()))},
      {"SNAPSHOT_REQUEST", encode_frame(FrameType::kSnapshotRequest, "")},
      {"SNAPSHOT_IMAGE", encode_frame(FrameType::kSnapshotImage,
                                      stream::encode_checkpoint(checkpoint()))},
      {"METRICS_REQUEST", encode_frame(FrameType::kMetricsRequest, "")},
      {"METRICS_REPORT", encode_frame(FrameType::kMetricsReport,
                                      netio::encode_metrics(metrics()))},
      {"GOODBYE", encode_frame(FrameType::kGoodbye, "")},
      {"GOODBYE_OK", encode_frame(FrameType::kGoodbyeOk, "")},
      {"ERROR",
       encode_frame(FrameType::kError, netio::encode_error(error_msg()))},
  };
}

/// The FLUXFPT1 and FLUXFPC1 images, in stream/testdata/codec_goldens.hex.
inline std::vector<Entry> stream_images() {
  return {
      {"TRACE_FLUX_V1", trace_image(0)},
      {"TRACE_PASSIVE_V2", trace_image(2)},
      {"CHECKPOINT", stream::encode_checkpoint(checkpoint())},
  };
}

/// ByteSource over a string the caller keeps alive, at most `chunk` bytes
/// per read so FrameReader's partial-read loop runs as it does on a socket.
class StringSource : public netio::ByteSource {
 public:
  explicit StringSource(const std::string& data, std::size_t chunk = 5)
      : data_(data), chunk_(chunk) {}
  long read_some(char* buf, std::size_t n) override {
    const std::size_t take = std::min({n, chunk_, data_.size() - pos_});
    std::memcpy(buf, data_.data() + pos_, take);
    pos_ += take;
    return static_cast<long>(take);
  }

 private:
  const std::string& data_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Hex fixture files: "# comment" lines, "[NAME]" opens an entry, and the
// lines after it hold that entry's bytes as lowercase hex, 32 bytes a line.
// ---------------------------------------------------------------------------

inline std::string to_hex_file(std::string_view header,
                               const std::vector<Entry>& entries) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(header);
  for (const Entry& e : entries) {
    out += "[" + e.name + "]\n";
    for (std::size_t i = 0; i < e.bytes.size(); ++i) {
      const auto b = static_cast<unsigned char>(e.bytes[i]);
      out += kDigits[b >> 4];
      out += kDigits[b & 15];
      if (i % 32 == 31 || i + 1 == e.bytes.size()) {
        out += '\n';
      }
    }
  }
  return out;
}

inline std::vector<Entry> parse_hex_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open fixture " + path);
  }
  const auto nibble = [&](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw std::runtime_error("bad hex digit in " + path);
  };
  std::vector<Entry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line[0] == '[') {
      entries.push_back({line.substr(1, line.find(']') - 1), ""});
      continue;
    }
    if (entries.empty() || line.size() % 2 != 0) {
      throw std::runtime_error("malformed fixture line in " + path);
    }
    for (std::size_t i = 0; i < line.size(); i += 2) {
      entries.back().bytes +=
          static_cast<char>(nibble(line[i]) * 16 + nibble(line[i + 1]));
    }
  }
  return entries;
}

/// The bytes of the entry named `name`; throws when there is none.
inline std::string entry(const std::vector<Entry>& entries,
                         std::string_view name) {
  for (const Entry& e : entries) {
    if (e.name == name) {
      return e.bytes;
    }
  }
  throw std::runtime_error("no fixture entry " + std::string(name));
}

}  // namespace fluxfp::codec_fixtures
