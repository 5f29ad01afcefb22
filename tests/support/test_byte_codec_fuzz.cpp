// One seeded mutation fuzz over all three decoders (FLUXFPT1 traces,
// FLUXFPC1 checkpoints, FXN1 frames and their payloads), starting from the
// byte-golden fixtures. Mutations: truncation at every byte (of the whole
// input, and of each payload with its framing kept consistent), every
// single-bit flip (for FLUXFPC1 also with the CRC recomputed, so the flip
// reaches the structural checks), lying counts and lengths, and seeded
// random overwrites. For every mutant the decoder must:
//   - not crash, and throw nothing but stream::TraceFormatError;
//   - report a DecodeError of its own format, with a kind from that
//     format's set and an offset inside the input;
//   - stay failed: a streaming reader that failed fails again, unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codec_fixtures.hpp"
#include "support/bytes.hpp"

namespace fluxfp::codec_fixtures {
namespace {

using support::DecodeError;
using Kind = DecodeError::Kind;

constexpr std::uint64_t kSeed = 20100621;

const std::set<Kind>& kinds_of(std::string_view format) {
  static const std::set<Kind> trace = {
      Kind::kTruncatedHeader, Kind::kBadMagic, Kind::kBadVersion,
      Kind::kTruncatedRecord, Kind::kBadStream};
  static const std::set<Kind> checkpoint = {
      Kind::kTruncatedHeader,  Kind::kBadMagic,    Kind::kBadVersion,
      Kind::kTruncatedPayload, Kind::kCrcMismatch, Kind::kMalformedPayload,
      Kind::kBadStream};
  static const std::set<Kind> wire = {
      Kind::kTruncatedHeader,  Kind::kBadMagic,         Kind::kUnknownType,
      Kind::kOversized,        Kind::kTruncatedPayload, Kind::kMalformedPayload,
      Kind::kBadStream};
  static const std::set<Kind> none;
  if (format == "FLUXFPT1") return trace;
  if (format == "FLUXFPC1") return checkpoint;
  if (format == "FXN1") return wire;
  return none;
}

/// The contract every reported error keeps, whichever decoder made it.
void expect_well_formed(const DecodeError& err, std::string_view format,
                        std::size_t input_size) {
  EXPECT_EQ(err.format, format);
  EXPECT_EQ(kinds_of(format).count(err.kind), 1u)
      << "kind " << support::kind_name(err.kind) << " outside the "
      << format << " set";
  EXPECT_LE(err.offset, input_size) << err.to_string();
  EXPECT_EQ(err.to_string().rfind("offset ", 0), 0u);
}

// ---------------------------------------------------------------------------
// One decode per format, each returning the error it reported
// ---------------------------------------------------------------------------

std::optional<DecodeError> decode_trace(const std::string& bytes) {
  std::istringstream is(bytes);
  try {
    stream::TraceReplayer replayer(is);
    stream::FluxEvent e;
    while (replayer.try_next(e)) {
    }
    if (!replayer.error()) {
      return std::nullopt;
    }
    const DecodeError first = *replayer.error();
    EXPECT_FALSE(replayer.try_next(e));
    EXPECT_EQ(replayer.error()->offset, first.offset);
    EXPECT_EQ(replayer.error()->kind, first.kind);
    EXPECT_THROW(replayer.next(e), stream::TraceFormatError);
    return first;
  } catch (const stream::TraceFormatError& e) {
    return e.error();
  }
}

std::optional<DecodeError> decode_checkpoint(std::string_view bytes) {
  std::istringstream is{std::string(bytes)};
  stream::ManagerCheckpoint out;
  auto err = stream::read_checkpoint(is, out);
  if (!err) {
    // FLUXFPC1 has one encoding per state, so whatever decodes re-encodes
    // to the same bytes: a flag byte of 2 or an out-of-range count that
    // slipped through would show here. Bytes past the declared payload
    // belong to the enclosing stream, not to the image.
    const std::string again = stream::encode_checkpoint(out);
    EXPECT_EQ(again, bytes.substr(0, again.size()));
  }
  return err;
}

/// Decodes one FXN1 payload by its frame type and checks the error it
/// reports, if any. SNAPSHOT_IMAGE carries a FLUXFPC1 image, so its errors
/// are FLUXFPC1 errors.
std::optional<DecodeError> check_payload(const netio::Frame& f) {
  using netio::FrameType;
  const netio::WireLimits limits;
  std::optional<DecodeError> err;
  std::string_view format = "FXN1";
  switch (f.type) {
    case FrameType::kHello: {
      netio::HelloMsg m;
      err = netio::decode_hello(f.payload, m);
      break;
    }
    case FrameType::kWelcome: {
      netio::WelcomeMsg m;
      err = netio::decode_welcome(f.payload, m);
      break;
    }
    case FrameType::kEventBatch: {
      std::vector<stream::FluxEvent> m;
      err = netio::decode_event_batch(f.payload, limits, m);
      break;
    }
    case FrameType::kBatchAck: {
      netio::BatchAckMsg m;
      err = netio::decode_batch_ack(f.payload, m);
      break;
    }
    case FrameType::kQueryEstimate: {
      netio::QueryMsg m;
      err = netio::decode_query(f.payload, m);
      break;
    }
    case FrameType::kEstimate: {
      netio::EstimateMsg m;
      err = netio::decode_estimate(f.payload, m);
      break;
    }
    case FrameType::kMetricsReport: {
      netio::MetricsMsg m;
      err = netio::decode_metrics(f.payload, m);
      break;
    }
    case FrameType::kError: {
      netio::ErrorMsg m;
      err = netio::decode_error(f.payload, m);
      break;
    }
    case FrameType::kSnapshotImage:
      format = "FLUXFPC1";
      err = decode_checkpoint(f.payload);
      break;
    default:
      break;  // empty-payload types: nothing to decode
  }
  if (err) {
    expect_well_formed(*err, format, f.payload.size());
  }
  return err;
}

/// Reads a whole FXN1 stream, decoding every frame's payload; returns the
/// framing error that ended it, if any.
std::optional<DecodeError> decode_frames(const std::string& bytes) {
  StringSource src(bytes);
  netio::FrameReader reader(src);
  netio::Frame f;
  netio::FrameReader::Status status;
  while ((status = reader.read(f)) == netio::FrameReader::Status::kFrame) {
    check_payload(f);
  }
  if (status == netio::FrameReader::Status::kEnd) {
    EXPECT_FALSE(reader.error().has_value());
    return std::nullopt;
  }
  const DecodeError first = *reader.error();
  EXPECT_EQ(reader.read(f), netio::FrameReader::Status::kError);
  EXPECT_EQ(reader.error()->offset, first.offset);
  EXPECT_EQ(reader.error()->kind, first.kind);
  return first;
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected), bit by bit: independent of the codec's
/// table so a recomputed header cannot share a bug with it.
std::uint32_t crc32(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

/// Rewrites the FLUXFPC1 header CRC to match the (mutated) payload.
std::string with_fresh_crc(std::string image) {
  support::put<std::uint32_t>(
      image.data() + 12,
      crc32(std::string_view(image).substr(stream::kCheckpointHeaderBytes)));
  return image;
}

template <typename T>
std::string patched(std::string bytes, std::size_t offset, T value) {
  support::put<T>(bytes.data() + offset, value);
  return bytes;
}

/// Per-kind tally of what a mutation family produced.
using Tally = std::multiset<Kind>;

/// Runs `decode` over every prefix and every single-bit flip of `input`,
/// checking each reported error; returns the kinds seen.
Tally truncations_and_flips(
    const std::string& input, std::string_view format,
    const std::function<std::optional<DecodeError>(const std::string&)>&
        decode,
    const std::function<std::string(std::string)>& fixup = nullptr) {
  Tally seen;
  const auto run = [&](const std::string& mutant) {
    const std::optional<DecodeError> err = decode(mutant);
    if (err) {
      expect_well_formed(*err, format, mutant.size());
      seen.insert(err->kind);
    }
  };
  for (std::size_t cut = 0; cut < input.size(); ++cut) {
    SCOPED_TRACE("truncated at " + std::to_string(cut));
    run(input.substr(0, cut));
  }
  for (std::size_t i = 0; i < input.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                   std::to_string(i));
      std::string mutant = input;
      mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
      run(fixup ? fixup(std::move(mutant)) : mutant);
    }
  }
  return seen;
}

/// Seeded random overwrites: 1-4 random bytes at random positions.
template <typename Check>
void random_overwrites(const std::string& input, std::uint64_t seed,
                       Check&& check) {
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 2000; ++round) {
    std::string mutant = input;
    const int n = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < n; ++k) {
      mutant[rng() % mutant.size()] = static_cast<char>(rng() & 0xFF);
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round));
    check(mutant);
  }
}

std::string stream_fixture(const std::string& name) {
  return entry(
      parse_hex_file(FLUXFP_STREAM_TESTDATA_DIR "/codec_goldens.hex"), name);
}

std::vector<Entry> frame_fixtures() {
  return parse_hex_file(FLUXFP_NETIO_TESTDATA_DIR "/frames.hex");
}

std::string frame_fixture(const std::string& name) {
  return entry(frame_fixtures(), name);
}

std::string all_frames() {
  std::string stream;
  for (const Entry& e : frame_fixtures()) {
    stream += e.bytes;
  }
  return stream;
}

// ---------------------------------------------------------------------------
// FLUXFPT1
// ---------------------------------------------------------------------------

TEST(ByteCodecFuzz, TraceTruncationsAndBitFlips) {
  for (const char* name : {"TRACE_FLUX_V1", "TRACE_PASSIVE_V2"}) {
    SCOPED_TRACE(name);
    const std::string trace = stream_fixture(name);
    ASSERT_FALSE(decode_trace(trace).has_value());
    const Tally seen = truncations_and_flips(trace, "FLUXFPT1", decode_trace);
    EXPECT_GT(seen.count(Kind::kTruncatedHeader), 0u);
    EXPECT_GT(seen.count(Kind::kTruncatedRecord), 0u);
    EXPECT_GT(seen.count(Kind::kBadMagic), 0u);
    EXPECT_GT(seen.count(Kind::kBadVersion), 0u);
  }
}

TEST(ByteCodecFuzz, TraceLyingVersionAndRandomOverwrites) {
  const std::string trace = stream_fixture("TRACE_PASSIVE_V2");
  for (const std::uint32_t version : {0u, 3u, 0xFFFFFFFFu}) {
    const auto err = decode_trace(patched<std::uint32_t>(trace, 8, version));
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, Kind::kBadVersion);
    EXPECT_EQ(err->offset, 8u);
  }
  const auto err = decode_trace(patched<std::uint8_t>(trace, 12, 0xFF));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, Kind::kBadVersion);
  EXPECT_EQ(err->offset, 12u);
  random_overwrites(trace, kSeed, [](const std::string& mutant) {
    if (const auto e = decode_trace(mutant)) {
      expect_well_formed(*e, "FLUXFPT1", mutant.size());
    }
  });
}

// ---------------------------------------------------------------------------
// FLUXFPC1
// ---------------------------------------------------------------------------

TEST(ByteCodecFuzz, CheckpointTruncationsAndBitFlips) {
  const std::string image = stream_fixture("CHECKPOINT");
  ASSERT_FALSE(decode_checkpoint(image).has_value());
  const auto decode = [](const std::string& b) { return decode_checkpoint(b); };
  const Tally seen = truncations_and_flips(image, "FLUXFPC1", decode);
  EXPECT_GT(seen.count(Kind::kTruncatedHeader), 0u);
  EXPECT_GT(seen.count(Kind::kTruncatedPayload), 0u);
  EXPECT_GT(seen.count(Kind::kBadMagic), 0u);
  EXPECT_GT(seen.count(Kind::kBadVersion), 0u);
  EXPECT_GT(seen.count(Kind::kCrcMismatch), 0u);
}

TEST(ByteCodecFuzz, CheckpointBitFlipsPastTheCrc) {
  // With the CRC recomputed every payload flip reaches the structural
  // checks; flips that leave the structure consistent decode cleanly.
  const std::string image = stream_fixture("CHECKPOINT");
  const auto decode = [](const std::string& b) { return decode_checkpoint(b); };
  const Tally seen =
      truncations_and_flips(image, "FLUXFPC1", decode, with_fresh_crc);
  EXPECT_GT(seen.count(Kind::kMalformedPayload), 0u);
  random_overwrites(image, kSeed + 1, [](const std::string& mutant) {
    const std::string fixed = with_fresh_crc(mutant);
    if (const auto e = decode_checkpoint(fixed)) {
      expect_well_formed(*e, "FLUXFPC1", fixed.size());
    }
  });
}

TEST(ByteCodecFuzz, CheckpointLyingCountsAndLengths) {
  const std::string image = stream_fixture("CHECKPOINT");
  constexpr std::size_t h = stream::kCheckpointHeaderBytes;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // Payload layout: u32 workers, u64 session count, then session 0:
  // u32 user, u32 num_users, u64 sniffer count, 3 x u64 nodes, u64 rng
  // length, rng bytes.
  for (const std::size_t at : {h + 4, h + 20, h + 52}) {
    for (const std::uint64_t lie : {kMax, kMax / 8, std::uint64_t{1} << 40}) {
      SCOPED_TRACE("count at " + std::to_string(at));
      const std::string mutant = with_fresh_crc(patched(image, at, lie));
      const auto err = decode_checkpoint(mutant);
      ASSERT_TRUE(err.has_value());
      expect_well_formed(*err, "FLUXFPC1", mutant.size());
      EXPECT_EQ(err->kind, Kind::kMalformedPayload);
      EXPECT_EQ(err->offset, at + 8);  // detected right after the count
    }
  }
  // A payload length past the end (up to u64 max) is a truncation, read in
  // bounded chunks rather than allocated up front.
  for (const std::uint64_t lie : {kMax, std::uint64_t{1} << 32,
                                  image.size() - h + 1}) {
    const auto err = decode_checkpoint(patched(image, 16, lie));
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, Kind::kTruncatedPayload);
    EXPECT_EQ(err->offset, image.size());
  }
}

// ---------------------------------------------------------------------------
// FXN1
// ---------------------------------------------------------------------------

TEST(ByteCodecFuzz, FrameStreamTruncationsAndBitFlips) {
  // Frame boundaries, payload decoders and the nested FLUXFPC1 image of
  // SNAPSHOT_IMAGE all sit inside the one concatenated stream.
  const std::string stream = all_frames();
  ASSERT_FALSE(decode_frames(stream).has_value());
  const Tally seen = truncations_and_flips(stream, "FXN1", decode_frames);
  EXPECT_GT(seen.count(Kind::kTruncatedHeader), 0u);
  EXPECT_GT(seen.count(Kind::kTruncatedPayload), 0u);
  EXPECT_GT(seen.count(Kind::kBadMagic), 0u);
  EXPECT_GT(seen.count(Kind::kUnknownType), 0u);
  EXPECT_GT(seen.count(Kind::kOversized), 0u);
  random_overwrites(stream, kSeed + 2, [](const std::string& mutant) {
    if (const auto e = decode_frames(mutant)) {
      expect_well_formed(*e, "FXN1", mutant.size());
    }
  });
}

TEST(ByteCodecFuzz, FramePayloadBitFlipsReachTheDecoders) {
  // Flips inside one payload, header left intact: the framing passes every
  // flip through to the message decoder.
  Tally seen;
  for (const Entry& e : frame_fixtures()) {
    SCOPED_TRACE(e.name);
    const auto type = static_cast<netio::FrameType>(
        support::get<std::uint16_t>(e.bytes.data() + 4));
    for (std::size_t i = netio::kFrameHeaderBytes; i < e.bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        netio::Frame f{type, e.bytes.substr(netio::kFrameHeaderBytes)};
        const std::size_t at = i - netio::kFrameHeaderBytes;
        f.payload[at] = static_cast<char>(f.payload[at] ^ (1 << bit));
        if (const auto err = check_payload(f)) {
          seen.insert(err->kind);
        }
      }
    }
  }
  EXPECT_GT(seen.count(Kind::kMalformedPayload), 0u);  // model id, code
  EXPECT_GT(seen.count(Kind::kCrcMismatch), 0u);       // snapshot image
}

TEST(ByteCodecFuzz, PayloadTruncationsAndExtensionsAreRefused) {
  // Cut inside the payload, or append one 0xFF byte, with the framing
  // kept consistent (FXN1 length, FLUXFPC1 length and CRC rewritten): the
  // decoders must notice the missing or trailing bytes themselves. The one
  // valid prefix is the 16-byte flux HELLO inside the 17-byte HELLO with a
  // model byte; 0xFF is no model id, so a 17th HELLO byte is refused too.
  for (const Entry& e : frame_fixtures()) {
    SCOPED_TRACE(e.name);
    const auto type = static_cast<netio::FrameType>(
        support::get<std::uint16_t>(e.bytes.data() + 4));
    const std::string payload = e.bytes.substr(netio::kFrameHeaderBytes);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      SCOPED_TRACE("cut at " + std::to_string(cut));
      const auto err = check_payload({type, payload.substr(0, cut)});
      EXPECT_EQ(err.has_value(), !(e.name == "HELLO_MODEL" && cut == 16));
    }
    // Empty-payload types have no decoder, and a FLUXFPC1 image reads only
    // its declared length (its own trailing bytes are covered below).
    if (!payload.empty() && type != netio::FrameType::kSnapshotImage) {
      EXPECT_TRUE(check_payload({type, payload + '\xFF'}).has_value());
    }
  }
  const std::string image = stream_fixture("CHECKPOINT");
  constexpr std::size_t h = stream::kCheckpointHeaderBytes;
  for (std::size_t cut = h; cut < image.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const std::string mutant = with_fresh_crc(
        patched<std::uint64_t>(image.substr(0, cut), 16, cut - h));
    const auto err = decode_checkpoint(mutant);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, Kind::kMalformedPayload);
    EXPECT_LE(err->offset, cut);
  }
  const std::string longer = with_fresh_crc(
      patched<std::uint64_t>(image + '\xFF', 16, image.size() - h + 1));
  const auto err = decode_checkpoint(longer);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, Kind::kMalformedPayload);
  EXPECT_EQ(err->offset, image.size());
}

TEST(ByteCodecFuzz, FrameLyingCountsAndLengths) {
  // A 4 GiB declared frame length is refused before any allocation.
  const std::string hello = frame_fixture("HELLO");
  const auto oversized = decode_frames(patched<std::uint32_t>(hello, 8, ~0u));
  ASSERT_TRUE(oversized.has_value());
  EXPECT_EQ(oversized->kind, Kind::kOversized);
  EXPECT_EQ(oversized->offset, 8u);

  const auto payload_of = [](const std::string& frame) {
    return frame.substr(netio::kFrameHeaderBytes);
  };
  const auto expect_malformed = [](const std::optional<DecodeError>& err,
                                   std::size_t size) {
    ASSERT_TRUE(err.has_value());
    expect_well_formed(*err, "FXN1", size);
    EXPECT_EQ(err->kind, Kind::kMalformedPayload);
  };
  const netio::WireLimits limits;

  const std::string batch = payload_of(frame_fixture("EVENT_BATCH"));
  for (const std::uint32_t lie : {~0u, 9u, 7u}) {
    std::vector<stream::FluxEvent> out;
    expect_malformed(netio::decode_event_batch(patched(batch, 0, lie), limits,
                                               out),
                     batch.size());
  }

  const std::string est = payload_of(frame_fixture("ESTIMATE"));
  for (const std::uint32_t lie : {~0u, 3u, 1u}) {
    netio::EstimateMsg out;
    expect_malformed(netio::decode_estimate(patched(est, 4, lie), out),
                     est.size());
  }

  // ERROR text length past the end of the payload.
  const std::string error = payload_of(frame_fixture("ERROR"));
  for (const std::uint32_t lie :
       {~0u, static_cast<std::uint32_t>(error.size())}) {
    netio::ErrorMsg out;
    expect_malformed(netio::decode_error(patched(error, 12, lie), out),
                     error.size());
  }
}

// ---------------------------------------------------------------------------
// The shared cursor itself
// ---------------------------------------------------------------------------

TEST(ByteCodecFuzz, ReaderStaysFailedAfterTheFirstFailure) {
  // Random read sequences over every fixture: once a read fails, every
  // later read fails and the first failure's offset and reason stay.
  std::mt19937_64 rng(kSeed + 3);
  std::vector<Entry> inputs = frame_fixtures();
  for (const char* name : {"TRACE_FLUX_V1", "CHECKPOINT"}) {
    inputs.push_back({name, stream_fixture(name)});
  }
  for (const Entry& e : inputs) {
    SCOPED_TRACE(e.name);
    for (int round = 0; round < 200; ++round) {
      support::ByteReader r(e.bytes, "FXN1", 100);
      std::optional<DecodeError> first;
      for (int op = 0; op < 64; ++op) {
        std::uint64_t n = 0;
        std::uint32_t u32 = 0;
        double f = 0.0;
        std::string s;
        bool ok = false;
        switch (rng() % 5) {
          case 0: ok = r.u32(u32); break;
          case 1: ok = r.f64(f); break;
          case 2: ok = r.count(n, 1 + rng() % 32); break;
          case 3: ok = r.str(s, rng() % 48, "text"); break;
          case 4: ok = r.done(); break;
        }
        if (first) {
          EXPECT_FALSE(ok);
          EXPECT_EQ(r.error()->offset, first->offset);
          EXPECT_EQ(r.error()->reason, first->reason);
        } else if (!ok) {
          ASSERT_TRUE(r.error().has_value());
          first = r.error();
          expect_well_formed(*first, "FXN1", e.bytes.size() + 100);
          EXPECT_GE(first->offset, 100u);
        }
        EXPECT_LE(r.pos(), e.bytes.size());
      }
    }
  }
}

}  // namespace
}  // namespace fluxfp::codec_fixtures
