#include "netio/wire.hpp"

#include <cstring>
#include <stdexcept>

#include "core/observation_model.hpp"

namespace fluxfp::netio {

namespace {

using support::ByteReader;
using support::ByteWriter;
using Kind = WireError::Kind;

constexpr std::string_view kFormat(kFrameMagic, sizeof(kFrameMagic));

/// Reads exactly `n` bytes. Returns the count actually obtained (== n on
/// success); sets `bad` on a transport error.
std::size_t read_exact(ByteSource& src, char* dst, std::size_t n, bool& bad) {
  std::size_t got = 0;
  while (got < n) {
    const long r = src.read_some(dst + got, n - got);
    if (r < 0) {
      bad = true;
      return got;
    }
    if (r == 0) {
      return got;  // end of stream
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

bool known_frame_type(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint16_t>(FrameType::kError);
}

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kWelcome:
      return "WELCOME";
    case FrameType::kEventBatch:
      return "EVENT_BATCH";
    case FrameType::kBatchAck:
      return "BATCH_ACK";
    case FrameType::kQueryEstimate:
      return "QUERY_ESTIMATE";
    case FrameType::kEstimate:
      return "ESTIMATE";
    case FrameType::kSnapshotRequest:
      return "SNAPSHOT_REQUEST";
    case FrameType::kSnapshotImage:
      return "SNAPSHOT_IMAGE";
    case FrameType::kMetricsRequest:
      return "METRICS_REQUEST";
    case FrameType::kMetricsReport:
      return "METRICS_REPORT";
    case FrameType::kGoodbye:
      return "GOODBYE";
    case FrameType::kGoodbyeOk:
      return "GOODBYE_OK";
    case FrameType::kError:
      return "ERROR";
  }
  return "?";
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame:
      return "malformed frame";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported version";
    case ErrorCode::kAuthFailed:
      return "auth failed";
    case ErrorCode::kNotAuthenticated:
      return "not authenticated";
    case ErrorCode::kUnavailable:
      return "temporarily unavailable";
    case ErrorCode::kUnknownUser:
      return "unknown user";
    case ErrorCode::kServiceClosing:
      return "service closing";
    case ErrorCode::kInternal:
      return "internal error";
    case ErrorCode::kModelMismatch:
      return "observation model mismatch";
  }
  return "?";
}

FrameReader::FrameReader(ByteSource& src, WireLimits limits)
    : src_(&src), limits_(limits) {}

FrameReader::Status FrameReader::read(Frame& out) {
  if (error_) {
    return Status::kError;  // sticky: the stream already ended badly
  }
  char header[kFrameHeaderBytes];
  bool bad = false;
  const std::size_t got = read_exact(*src_, header, sizeof(header), bad);
  if (got == 0 && !bad) {
    return Status::kEnd;  // clean close between frames
  }
  if (got != sizeof(header)) {
    error_ = WireError{kFormat, bad ? Kind::kBadStream : Kind::kTruncatedHeader,
                       offset_ + got,
                       "got " + std::to_string(got) + " of " +
                           std::to_string(kFrameHeaderBytes) +
                           " frame header bytes"};
    return Status::kError;
  }
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    error_ = WireError{kFormat, Kind::kBadMagic, offset_,
                       "frame does not start with FXN1"};
    return Status::kError;
  }
  const auto raw_type = support::get<std::uint16_t>(header + 4);
  const auto length = support::get<std::uint32_t>(header + 8);
  if (!known_frame_type(raw_type)) {
    error_ = WireError{kFormat, Kind::kUnknownType, offset_ + 4,
                       "type " + std::to_string(raw_type)};
    return Status::kError;
  }
  if (length > limits_.max_payload) {
    // Checked BEFORE any allocation: a hostile length can never make us
    // reserve the declared bytes.
    error_ = WireError{kFormat, Kind::kOversized, offset_ + 8,
                       "declared payload " + std::to_string(length) +
                           " bytes exceeds limit " +
                           std::to_string(limits_.max_payload)};
    return Status::kError;
  }
  out.type = static_cast<FrameType>(raw_type);
  out.payload.resize(length);
  if (length > 0) {
    bad = false;
    const std::size_t body =
        read_exact(*src_, out.payload.data(), length, bad);
    if (body != length) {
      error_ = WireError{kFormat,
                         bad ? Kind::kBadStream : Kind::kTruncatedPayload,
                         offset_ + kFrameHeaderBytes + body,
                         frame_type_name(out.type) + std::string(" payload cut "
                         "short: got ") + std::to_string(body) + " of " +
                             std::to_string(length) + " bytes"};
      return Status::kError;
    }
  }
  offset_ += kFrameHeaderBytes + length;
  return Status::kFrame;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > 0xffffffffu) {
    throw std::invalid_argument("encode_frame: payload too large");
  }
  ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.bytes(kFormat);
  w.u16(static_cast<std::uint16_t>(type));
  w.u16(0);  // reserved
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return w.take();
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

std::string encode_hello(const HelloMsg& msg) {
  ByteWriter w;
  w.u32(msg.version);
  w.u32(msg.tenant);
  w.u64(msg.token);
  // The model byte is appended only when it carries information: a flux
  // HELLO stays byte-identical to the pre-model-tag encoding, so peers
  // that predate the field keep interoperating.
  if (msg.model != 0) {
    w.u8(msg.model);
  }
  return w.take();
}

std::optional<WireError> decode_hello(std::string_view payload,
                                      HelloMsg& out) {
  ByteReader r(payload, kFormat);
  r.u32(out.version);
  r.u32(out.tenant);
  r.u64(out.token);
  out.model = 0;  // absent trailing byte means flux
  if (r.ok() && r.remaining() > 0 && r.u8(out.model) &&
      !core::known_model_id(out.model)) {
    r.fail("unknown observation-model id " + std::to_string(out.model));
  }
  return r.finish();
}

std::string encode_welcome(const WelcomeMsg& msg) {
  ByteWriter w;
  w.u32(msg.version);
  w.u32(msg.sessions);
  w.u64(msg.connection_id);
  return w.take();
}

std::optional<WireError> decode_welcome(std::string_view payload,
                                        WelcomeMsg& out) {
  ByteReader r(payload, kFormat);
  r.u32(out.version);
  r.u32(out.sessions);
  r.u64(out.connection_id);
  return r.finish();
}

std::string encode_event_batch(std::span<const stream::FluxEvent> events) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(events.size()));
  w.u32(0);  // reserved
  char record[kEventRecordBytes];
  for (const stream::FluxEvent& e : events) {
    stream::encode_trace_record(record, e);
    w.bytes({record, sizeof(record)});
  }
  return w.take();
}

std::optional<WireError> decode_event_batch(
    std::string_view payload, const WireLimits& limits,
    std::vector<stream::FluxEvent>& out) {
  ByteReader r(payload, kFormat);
  std::uint32_t count = 0;
  std::uint32_t reserved = 0;
  if (!r.u32(count) || !r.u32(reserved)) {
    return r.error();
  }
  if (count > limits.max_batch_events) {
    r.fail("batch declares " + std::to_string(count) + " events, limit " +
           std::to_string(limits.max_batch_events));
    return r.error();
  }
  // Exact-size check up front so `count` can never force a speculative
  // allocation larger than the bytes actually sent.
  const std::size_t want =
      static_cast<std::size_t>(count) * kEventRecordBytes;
  if (r.remaining() != want) {
    r.fail("batch of " + std::to_string(count) + " events needs " +
           std::to_string(want) + " record bytes, payload has " +
           std::to_string(r.remaining()));
    return r.error();
  }
  out.clear();
  out.reserve(count);
  char record[kEventRecordBytes];
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.bytes(record, sizeof(record), "event record")) {
      return r.error();
    }
    stream::FluxEvent e;
    stream::decode_trace_record(record, e);
    out.push_back(e);
  }
  return r.finish();
}

std::string encode_batch_ack(const BatchAckMsg& msg) {
  ByteWriter w;
  w.u64(msg.accepted);
  w.u64(msg.shed);
  w.u64(msg.unknown);
  w.u64(msg.foreign);
  w.u64(msg.closed);
  return w.take();
}

std::optional<WireError> decode_batch_ack(std::string_view payload,
                                          BatchAckMsg& out) {
  ByteReader r(payload, kFormat);
  r.u64(out.accepted);
  r.u64(out.shed);
  r.u64(out.unknown);
  r.u64(out.foreign);
  r.u64(out.closed);
  return r.finish();
}

std::string encode_query(const QueryMsg& msg) {
  ByteWriter w;
  w.u32(msg.user);
  return w.take();
}

std::optional<WireError> decode_query(std::string_view payload,
                                      QueryMsg& out) {
  ByteReader r(payload, kFormat);
  r.u32(out.user);
  return r.finish();
}

std::string encode_estimate(const EstimateMsg& msg) {
  ByteWriter w;
  w.u32(msg.user);
  w.u32(static_cast<std::uint32_t>(msg.estimates.size()));
  w.u64(msg.epochs_fired);
  w.u64(msg.events_folded);
  w.f64(msg.time);
  for (const geom::Vec2& p : msg.estimates) {
    w.f64(p.x);
    w.f64(p.y);
  }
  return w.take();
}

std::optional<WireError> decode_estimate(std::string_view payload,
                                         EstimateMsg& out) {
  ByteReader r(payload, kFormat);
  std::uint32_t slots = 0;
  if (!r.u32(out.user) || !r.u32(slots) || !r.u64(out.epochs_fired) ||
      !r.u64(out.events_folded) || !r.f64(out.time)) {
    return r.error();
  }
  const std::size_t want = static_cast<std::size_t>(slots) * 16;
  if (r.remaining() != want) {
    r.fail("estimate declares " + std::to_string(slots) +
           " slots, payload has " + std::to_string(r.remaining()) + " bytes");
    return r.error();
  }
  out.estimates.clear();
  out.estimates.reserve(slots);
  for (std::uint32_t i = 0; i < slots; ++i) {
    geom::Vec2 p;
    if (!r.f64(p.x) || !r.f64(p.y)) {
      return r.error();
    }
    out.estimates.push_back(p);
  }
  return r.finish();
}

std::string encode_metrics(const MetricsMsg& msg) {
  ByteWriter w;
  w.u64(msg.events_accepted);
  w.u64(msg.events_processed);
  w.u64(msg.events_shed);
  w.u64(msg.events_unknown);
  w.u64(msg.events_foreign);
  w.u64(msg.batches);
  w.u64(msg.frames_in);
  w.u64(msg.error_frames);
  w.u64(msg.connections_opened);
  w.u64(msg.connections_active);
  w.u64(msg.checkpoints);
  w.u64(msg.restarts);
  w.u64(msg.sessions);
  w.f64(msg.wall_seconds);
  w.f64(msg.events_per_second);
  w.f64(msg.ingest_p50_us);
  w.f64(msg.ingest_p99_us);
  w.f64(msg.ingest_max_us);
  w.u64(msg.ingest_samples);
  return w.take();
}

std::optional<WireError> decode_metrics(std::string_view payload,
                                        MetricsMsg& out) {
  ByteReader r(payload, kFormat);
  r.u64(out.events_accepted);
  r.u64(out.events_processed);
  r.u64(out.events_shed);
  r.u64(out.events_unknown);
  r.u64(out.events_foreign);
  r.u64(out.batches);
  r.u64(out.frames_in);
  r.u64(out.error_frames);
  r.u64(out.connections_opened);
  r.u64(out.connections_active);
  r.u64(out.checkpoints);
  r.u64(out.restarts);
  r.u64(out.sessions);
  r.f64(out.wall_seconds);
  r.f64(out.events_per_second);
  r.f64(out.ingest_p50_us);
  r.f64(out.ingest_p99_us);
  r.f64(out.ingest_max_us);
  r.u64(out.ingest_samples);
  return r.finish();
}

std::string encode_error(const ErrorMsg& msg) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(msg.code));
  w.u64(msg.offset);
  w.u32(static_cast<std::uint32_t>(msg.message.size()));
  w.bytes(msg.message);
  return w.take();
}

std::optional<WireError> decode_error(std::string_view payload,
                                      ErrorMsg& out) {
  ByteReader r(payload, kFormat);
  std::uint32_t code = 0;
  std::uint32_t text_len = 0;
  if (!r.u32(code) || !r.u64(out.offset) || !r.u32(text_len)) {
    return r.error();
  }
  if (code < static_cast<std::uint32_t>(ErrorCode::kMalformedFrame) ||
      code > static_cast<std::uint32_t>(ErrorCode::kModelMismatch)) {
    r.fail("unknown error code " + std::to_string(code));
    return r.error();
  }
  out.code = static_cast<ErrorCode>(code);
  r.str(out.message, text_len, "error text");
  return r.finish();
}

}  // namespace fluxfp::netio
