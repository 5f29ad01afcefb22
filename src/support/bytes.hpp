#pragma once

// The one byte codec behind the three binary formats: FLUXFPT1 event
// traces (stream/trace_io), FLUXFPC1 checkpoints (stream/checkpoint) and
// FXN1 service frames (netio/wire).
//
// Byte order is part of every format: little-endian, enforced by the
// static_assert below instead of a byte-swap path. Every field is a memcpy
// of its native representation, so f64 fields round-trip BIT-exactly,
// NaN payloads (net::kMissingReading) and negative zero included.
//
// Decoding never throws and never reads past its input. ByteReader checks
// each read against the bytes left, keeps the offset and reason of the
// FIRST failure, and fails every read after it; a decoder reports that
// failure as a DecodeError, the error type all three formats share.

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace fluxfp::support {

static_assert(std::endian::native == std::endian::little,
              "FLUXFPT1/FLUXFPC1/FXN1 are little-endian byte formats");

/// The fixed-width field types the formats are made of.
template <typename T>
concept Field =
    std::is_same_v<T, std::uint8_t> || std::is_same_v<T, std::uint16_t> ||
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t> ||
    std::is_same_v<T, double>;

/// Fixed-offset field access: `dst`/`src` point at sizeof(T) bytes.
template <Field T>
inline void put(char* dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
}
template <Field T>
inline T get(const char* src) {
  T v;
  std::memcpy(&v, src, sizeof(T));
  return v;
}

/// Typed decode failure of any of the three formats: what went wrong, at
/// which byte offset of the input, and why. Returned (or, for traces,
/// thrown inside stream::TraceFormatError), never half-applied.
struct DecodeError {
  enum class Kind {
    kTruncatedHeader,   ///< input ends inside the fixed header
    kBadMagic,          ///< header does not start with the format's magic
    kBadVersion,        ///< version (or model id) this build does not speak
    kUnknownType,       ///< FXN1 frame type this version does not speak
    kOversized,         ///< FXN1 declared payload length exceeds WireLimits
    kTruncatedPayload,  ///< input ends inside a declared payload
    kTruncatedRecord,   ///< FLUXFPT1 record cut short mid-field
    kCrcMismatch,       ///< FLUXFPC1 payload bytes fail the header CRC
    kMalformedPayload,  ///< length ok, internal structure inconsistent
    kBadStream,         ///< the stream itself failed (open/read error)
  };
  std::string_view format;  ///< the format's magic ("FXN1"), static storage
  Kind kind = Kind::kBadStream;
  std::uint64_t offset = 0;  ///< byte offset where the failure was detected
  std::string reason;

  /// "offset 16: truncated record — ..." — for logs and error messages.
  std::string to_string() const;
};

/// One name per Kind, in declaration order.
inline const char* kind_name(DecodeError::Kind kind) {
  static constexpr const char* kNames[] = {
      "truncated header", "bad magic", "unsupported version",
      "unknown frame type", "oversized frame", "truncated payload",
      "truncated record", "payload CRC mismatch", "malformed payload",
      "stream failure"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(DecodeError::Kind::kBadStream) + 1);
  return kNames[static_cast<std::size_t>(kind)];
}

inline std::string DecodeError::to_string() const {
  return "offset " + std::to_string(offset) + ": " + kind_name(kind) +
         (reason.empty() ? "" : " — " + reason);
}

/// Append-only encoder.
class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { field(v); }
  void u16(std::uint16_t v) { field(v); }
  void u32(std::uint32_t v) { field(v); }
  void u64(std::uint64_t v) { field(v); }
  void f64(double v) { field(v); }
  void bytes(std::string_view b) { buf_.append(b); }
  /// Raw access for patching fields whose value is known only later
  /// (a length or checksum in front of what follows).
  char* at(std::size_t offset) { return buf_.data() + offset; }
  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  template <Field T>
  void field(T v) {
    char b[sizeof(T)];
    put(b, v);
    buf_.append(b, sizeof(T));
  }
  std::string buf_;
};

/// Bounds-checked, first-failure-sticky decoder over one buffer. A failure
/// is reported as kMalformedPayload of `format`, at the failing offset
/// plus `base` (the bytes in front of the buffer in the enclosing input).
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string_view format,
             std::uint64_t base = 0)
      : bytes_(bytes), format_(format), base_(base) {}
  /// A view of a temporary string would dangle after this statement.
  ByteReader(std::string&&, std::string_view, std::uint64_t = 0) = delete;

  bool u8(std::uint8_t& v) { return field(v, "u8"); }
  bool u16(std::uint16_t& v) { return field(v, "u16"); }
  bool u32(std::uint32_t& v) { return field(v, "u32"); }
  bool u64(std::uint64_t& v) { return field(v, "u64"); }
  bool f64(double& v) { return field(v, "f64"); }

  /// The next `n` bytes, copied to `dst` / assigned to `out`.
  bool bytes(char* dst, std::size_t n, const char* what) {
    if (!require(n, what)) {
      return false;
    }
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool str(std::string& out, std::uint64_t n, const char* what) {
    if (!require(n, what)) {
      return false;
    }
    out.assign(bytes_.data() + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  /// Reads a u64 element count and rejects it when not even
  /// `min_bytes_each` bytes per element fit in what is left, so a lying
  /// count can never size a container beyond the input.
  bool count(std::uint64_t& n, std::uint64_t min_bytes_each) {
    if (!u64(n)) {
      return false;
    }
    if (min_bytes_each != 0 && n > remaining() / min_bytes_each) {
      return fail("element count " + std::to_string(n) +
                  " exceeds remaining payload");
    }
    return true;
  }

  /// True when every byte was consumed and nothing failed; trailing bytes
  /// are a failure.
  bool done() {
    if (ok() && remaining() != 0) {
      fail(std::to_string(remaining()) + " trailing payload bytes");
    }
    return ok();
  }

  /// Records `reason` at the current offset unless an earlier failure is
  /// already kept. Always returns false.
  bool fail(std::string reason) {
    if (!error_) {
      error_ = DecodeError{format_, DecodeError::Kind::kMalformedPayload,
                           base_ + pos_, std::move(reason)};
    }
    return false;
  }

  bool ok() const { return !error_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// The first failure, if any.
  const std::optional<DecodeError>& error() const { return error_; }
  /// done(), then the first failure: the tail of every decode function.
  std::optional<DecodeError> finish() {
    done();
    return error_;
  }

 private:
  bool require(std::uint64_t n, const char* what) {
    if (!ok()) {
      return false;
    }
    if (remaining() < n) {
      return fail(std::string("payload ends inside ") + what + " (" +
                  std::to_string(remaining()) + " of " + std::to_string(n) +
                  " bytes left)");
    }
    return true;
  }

  template <Field T>
  bool field(T& v, const char* what) {
    if (!require(sizeof(T), what)) {
      return false;
    }
    v = get<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  std::string_view bytes_;
  std::string_view format_;
  std::uint64_t base_;
  std::size_t pos_ = 0;
  std::optional<DecodeError> error_;
};

}  // namespace fluxfp::support
