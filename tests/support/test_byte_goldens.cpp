// Byte goldens of the three binary formats. The fixtures under
// tests/stream/testdata/codec_goldens.hex and tests/netio/testdata/
// frames.hex were recorded from the encoders before they moved onto the
// shared support/bytes.hpp codec; re-encoding the same hand-built inputs
// must reproduce them byte for byte, and decoding each fixture must give
// back the inputs bit for bit. Together that pins the encoders' output
// and the decoders' reading of it across any refactor of the codec.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "codec_fixtures.hpp"

namespace fluxfp::codec_fixtures {
namespace {

std::vector<Entry> load(const char* dir, const char* file) {
  return parse_hex_file(std::string(dir) + "/" + file);
}

void expect_same_bytes(const std::vector<Entry>& fresh,
                       const std::vector<Entry>& recorded) {
  ASSERT_EQ(fresh.size(), recorded.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    SCOPED_TRACE(fresh[i].name);
    EXPECT_EQ(fresh[i].name, recorded[i].name);
    ASSERT_EQ(fresh[i].bytes.size(), recorded[i].bytes.size());
    EXPECT_EQ(std::memcmp(fresh[i].bytes.data(), recorded[i].bytes.data(),
                          fresh[i].bytes.size()),
              0);
  }
}

void expect_same_event(const stream::FluxEvent& a, const stream::FluxEvent& b) {
  EXPECT_TRUE(same_bits(a.time, b.time));
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.node, b.node);
  EXPECT_TRUE(same_bits(a.reading, b.reading));
}

void expect_same_events(const std::vector<stream::FluxEvent>& a,
                        const std::vector<stream::FluxEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_event(a[i], b[i]);
  }
}

void expect_same_vec(const geom::Vec2& a, const geom::Vec2& b) {
  EXPECT_TRUE(same_bits(a.x, b.x));
  EXPECT_TRUE(same_bits(a.y, b.y));
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i], b[i])) << "index " << i;
  }
}

void expect_same_session(const stream::SessionCheckpoint& a,
                         const stream::SessionCheckpoint& b) {
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.num_users, b.num_users);
  EXPECT_EQ(a.sniffer_nodes, b.sniffer_nodes);
  const stream::StreamTrackerState& x = a.state;
  const stream::StreamTrackerState& y = b.state;
  EXPECT_EQ(x.rng, y.rng);
  ASSERT_EQ(x.smc.users.size(), y.smc.users.size());
  for (std::size_t u = 0; u < x.smc.users.size(); ++u) {
    const core::SmcUserState& p = x.smc.users[u];
    const core::SmcUserState& q = y.smc.users[u];
    ASSERT_EQ(p.particles.size(), q.particles.size());
    for (std::size_t i = 0; i < p.particles.size(); ++i) {
      expect_same_vec(p.particles[i].position, q.particles[i].position);
      EXPECT_TRUE(same_bits(p.particles[i].weight, q.particles[i].weight));
    }
    EXPECT_TRUE(same_bits(p.t_last, q.t_last));
    expect_same_vec(p.prev_estimate, q.prev_estimate);
    expect_same_vec(p.heading, q.heading);
  }
  EXPECT_EQ(x.smc.bad_rounds, y.smc.bad_rounds);
  ASSERT_EQ(x.open.size(), y.open.size());
  for (std::size_t w = 0; w < x.open.size(); ++w) {
    EXPECT_EQ(x.open[w].epoch, y.open[w].epoch);
    EXPECT_TRUE(same_bits(x.open[w].newest_time, y.open[w].newest_time));
    EXPECT_EQ(x.open[w].seen_count, y.open[w].seen_count);
    expect_same_doubles(x.open[w].readings, y.open[w].readings);
    EXPECT_EQ(x.open[w].seen, y.open[w].seen);
  }
  EXPECT_TRUE(same_bits(x.now, y.now));
  EXPECT_TRUE(same_bits(x.last_step_time, y.last_step_time));
  EXPECT_EQ(x.fired_any, y.fired_any);
  EXPECT_EQ(x.last_fired_epoch, y.last_fired_epoch);
  EXPECT_EQ(x.stats.events, y.stats.events);
  EXPECT_EQ(x.stats.duplicates, y.stats.duplicates);
  EXPECT_EQ(x.stats.late, y.stats.late);
  EXPECT_EQ(x.stats.out_of_order, y.stats.out_of_order);
  EXPECT_EQ(x.stats.unknown_node, y.stats.unknown_node);
  EXPECT_EQ(x.stats.epochs_fired, y.stats.epochs_fired);
  EXPECT_EQ(x.stats.forced_closes, y.stats.forced_closes);
  expect_same_doubles(x.stats.filter_micros, y.stats.filter_micros);
}

void expect_same_checkpoint(const stream::ManagerCheckpoint& a,
                            const stream::ManagerCheckpoint& b) {
  EXPECT_EQ(a.workers, b.workers);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    expect_same_session(a.sessions[i], b.sessions[i]);
  }
}

stream::ManagerCheckpoint decode_checkpoint(const std::string& image) {
  std::istringstream is(image);
  stream::ManagerCheckpoint out;
  const auto err = stream::read_checkpoint(is, out);
  EXPECT_FALSE(err.has_value()) << err->to_string();
  return out;
}

/// Splits one encoded frame back into type and payload through FrameReader.
netio::Frame read_frame(const std::string& bytes) {
  StringSource src(bytes);
  netio::FrameReader reader(src);
  netio::Frame frame;
  EXPECT_EQ(reader.read(frame), netio::FrameReader::Status::kFrame);
  netio::Frame after;
  EXPECT_EQ(reader.read(after), netio::FrameReader::Status::kEnd);
  return frame;
}

TEST(ByteGolden, StreamEncodersReproduceTheFixtures) {
  expect_same_bytes(stream_images(),
                    load(FLUXFP_STREAM_TESTDATA_DIR, "codec_goldens.hex"));
}

TEST(ByteGolden, FrameEncodersReproduceTheFixtures) {
  expect_same_bytes(frames(), load(FLUXFP_NETIO_TESTDATA_DIR, "frames.hex"));
}

TEST(ByteGolden, TraceFixturesDecodeToTheInputs) {
  const auto entries = load(FLUXFP_STREAM_TESTDATA_DIR, "codec_goldens.hex");
  for (const auto& [name, model] :
       {std::pair<std::string, std::uint8_t>{"TRACE_FLUX_V1", 0},
        std::pair<std::string, std::uint8_t>{"TRACE_PASSIVE_V2", 2}}) {
    SCOPED_TRACE(name);
    std::istringstream is(entry(entries, name));
    stream::TraceReplayer replayer(is);
    EXPECT_EQ(replayer.model_id(), model);
    expect_same_events(replayer.read_all(), trace_events());
    EXPECT_FALSE(replayer.error().has_value());
  }
}

TEST(ByteGolden, CheckpointFixtureDecodesToTheInput) {
  const auto entries = load(FLUXFP_STREAM_TESTDATA_DIR, "codec_goldens.hex");
  expect_same_checkpoint(decode_checkpoint(entry(entries, "CHECKPOINT")),
                         checkpoint());
}

TEST(ByteGolden, FrameFixturesDecodeToTheInputs) {
  using netio::FrameType;
  const auto entries = load(FLUXFP_NETIO_TESTDATA_DIR, "frames.hex");
  const auto frame = [&](const char* name, FrameType type) {
    SCOPED_TRACE(name);
    const netio::Frame f = read_frame(entry(entries, name));
    EXPECT_EQ(f.type, type);
    return f.payload;
  };

  for (const auto& [name, model] :
       {std::pair<const char*, std::uint8_t>{"HELLO", 0},
        std::pair<const char*, std::uint8_t>{"HELLO_MODEL", 2}}) {
    netio::HelloMsg m;
    ASSERT_FALSE(netio::decode_hello(frame(name, FrameType::kHello), m));
    EXPECT_EQ(m.version, hello(model).version);
    EXPECT_EQ(m.tenant, hello(model).tenant);
    EXPECT_EQ(m.token, hello(model).token);
    EXPECT_EQ(m.model, model);
  }

  netio::WelcomeMsg welcome_out;
  ASSERT_FALSE(netio::decode_welcome(frame("WELCOME", FrameType::kWelcome),
                                     welcome_out));
  EXPECT_EQ(welcome_out.version, welcome().version);
  EXPECT_EQ(welcome_out.sessions, welcome().sessions);
  EXPECT_EQ(welcome_out.connection_id, welcome().connection_id);

  std::vector<stream::FluxEvent> events;
  ASSERT_FALSE(netio::decode_event_batch(
      frame("EVENT_BATCH", FrameType::kEventBatch), netio::WireLimits{},
      events));
  expect_same_events(events, trace_events());

  netio::BatchAckMsg ack;
  ASSERT_FALSE(
      netio::decode_batch_ack(frame("BATCH_ACK", FrameType::kBatchAck), ack));
  EXPECT_EQ(ack.accepted, batch_ack().accepted);
  EXPECT_EQ(ack.shed, batch_ack().shed);
  EXPECT_EQ(ack.unknown, batch_ack().unknown);
  EXPECT_EQ(ack.foreign, batch_ack().foreign);
  EXPECT_EQ(ack.closed, batch_ack().closed);

  netio::QueryMsg q;
  ASSERT_FALSE(netio::decode_query(
      frame("QUERY_ESTIMATE", FrameType::kQueryEstimate), q));
  EXPECT_EQ(q.user, query().user);

  netio::EstimateMsg est;
  ASSERT_FALSE(
      netio::decode_estimate(frame("ESTIMATE", FrameType::kEstimate), est));
  EXPECT_EQ(est.user, estimate().user);
  EXPECT_EQ(est.epochs_fired, estimate().epochs_fired);
  EXPECT_EQ(est.events_folded, estimate().events_folded);
  EXPECT_TRUE(same_bits(est.time, estimate().time));
  ASSERT_EQ(est.estimates.size(), estimate().estimates.size());
  for (std::size_t i = 0; i < est.estimates.size(); ++i) {
    expect_same_vec(est.estimates[i], estimate().estimates[i]);
  }

  for (const auto& [name, type] :
       {std::pair<const char*, FrameType>{"SNAPSHOT_REQUEST",
                                          FrameType::kSnapshotRequest},
        {"METRICS_REQUEST", FrameType::kMetricsRequest},
        {"GOODBYE", FrameType::kGoodbye},
        {"GOODBYE_OK", FrameType::kGoodbyeOk}}) {
    EXPECT_TRUE(frame(name, type).empty());
  }

  expect_same_checkpoint(
      decode_checkpoint(frame("SNAPSHOT_IMAGE", FrameType::kSnapshotImage)),
      checkpoint());

  netio::MetricsMsg m;
  ASSERT_FALSE(netio::decode_metrics(
      frame("METRICS_REPORT", FrameType::kMetricsReport), m));
  const netio::MetricsMsg want = metrics();
  EXPECT_EQ(m.events_accepted, want.events_accepted);
  EXPECT_EQ(m.events_processed, want.events_processed);
  EXPECT_EQ(m.events_shed, want.events_shed);
  EXPECT_EQ(m.events_unknown, want.events_unknown);
  EXPECT_EQ(m.events_foreign, want.events_foreign);
  EXPECT_EQ(m.batches, want.batches);
  EXPECT_EQ(m.frames_in, want.frames_in);
  EXPECT_EQ(m.error_frames, want.error_frames);
  EXPECT_EQ(m.connections_opened, want.connections_opened);
  EXPECT_EQ(m.connections_active, want.connections_active);
  EXPECT_EQ(m.checkpoints, want.checkpoints);
  EXPECT_EQ(m.restarts, want.restarts);
  EXPECT_EQ(m.sessions, want.sessions);
  EXPECT_TRUE(same_bits(m.wall_seconds, want.wall_seconds));
  EXPECT_TRUE(same_bits(m.events_per_second, want.events_per_second));
  EXPECT_TRUE(same_bits(m.ingest_p50_us, want.ingest_p50_us));
  EXPECT_TRUE(same_bits(m.ingest_p99_us, want.ingest_p99_us));
  EXPECT_TRUE(same_bits(m.ingest_max_us, want.ingest_max_us));
  EXPECT_EQ(m.ingest_samples, want.ingest_samples);

  netio::ErrorMsg e;
  ASSERT_FALSE(netio::decode_error(frame("ERROR", FrameType::kError), e));
  EXPECT_EQ(e.code, error_msg().code);
  EXPECT_EQ(e.offset, error_msg().offset);
  EXPECT_EQ(e.message, error_msg().message);
}

}  // namespace
}  // namespace fluxfp::codec_fixtures
