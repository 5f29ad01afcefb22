#include "stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/smc.hpp"
#include "geom/field.hpp"
#include "net/deployment.hpp"
#include "net/flux.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"
#include "stream/manager.hpp"
#include "support/bytes.hpp"
#include "support/crc32.hpp"

namespace fluxfp::stream {
namespace {

/// Same small deployment as the manager tests: an 8x8 perturbed grid with
/// every 7th node sniffed and cheap SMC settings.
struct Bed {
  geom::RectField field{20.0, 20.0};
  net::UnitDiskGraph graph;
  core::FluxModel model;
  std::vector<std::size_t> sniffers;

  Bed() : graph(make_graph()), model(field, 1.0) {
    for (std::size_t i = 0; i < graph.size(); i += 7) {
      sniffers.push_back(i);
    }
  }

  static net::UnitDiskGraph make_graph() {
    geom::Rng rng(99);
    const geom::RectField f(20.0, 20.0);
    return net::UnitDiskGraph(net::perturbed_grid(f, 8, 8, 0.3, rng), 4.0);
  }

  StreamTracker tracker(std::uint64_t seed) const {
    StreamTrackerConfig cfg;
    cfg.smc.num_predictions = 30;
    cfg.smc.num_keep = 4;
    cfg.expected_readings = sniffers.size();
    return StreamTracker(model, graph, sniffers, 1, cfg, seed);
  }

  std::vector<FluxEvent> session_events(std::uint32_t user, int rounds,
                                        std::uint64_t seed) const {
    geom::Rng rng(seed);
    sim::SimUser su;
    su.mobility = std::make_shared<sim::RandomWaypointMobility>(
        field, 0.8, static_cast<double>(rounds) + 1.0, rng);
    sim::ScenarioConfig cfg;
    cfg.rounds = rounds;
    cfg.start_time = 0.17 * static_cast<double>(user);
    const auto obs = sim::run_scenario(graph, {su}, cfg, rng);
    return scenario_events(graph, obs, sniffers, user);
  }
};

using Fired =
    std::vector<std::vector<std::tuple<std::uint32_t, double, double>>>;

std::unique_ptr<TrackerManager> make_manager(const Bed& bed,
                                             std::size_t num_sessions,
                                             std::size_t workers) {
  ManagerConfig mc;
  mc.workers = workers;
  auto m = std::make_unique<TrackerManager>(mc);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    m->add_session(u, bed.tracker(1000 + u));
  }
  return m;
}

Fired collect(const TrackerManager& m, std::size_t num_sessions) {
  Fired fired(num_sessions);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    for (const EpochResult& r : m.results(u)) {
      fired[u].emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
  }
  return fired;
}

Fired run_uninterrupted(const Bed& bed, std::size_t num_sessions,
                        std::size_t workers,
                        const std::vector<FluxEvent>& events) {
  auto m = make_manager(bed, num_sessions, workers);
  m->start();
  for (const FluxEvent& e : events) {
    m->push(e);
  }
  m->finish();
  return collect(*m, num_sessions);
}

/// Round-trips a checkpoint through encoded FLUXFPC1 bytes.
ManagerCheckpoint through_bytes(const ManagerCheckpoint& cp) {
  std::stringstream buffer;
  const std::uint64_t bytes = write_checkpoint(buffer, cp);
  EXPECT_GE(bytes, kCheckpointHeaderBytes);
  ManagerCheckpoint out;
  const auto err = read_checkpoint(buffer, out);
  EXPECT_FALSE(err.has_value()) << (err ? err->to_string() : "");
  return out;
}

/// A valid encoded image to corrupt.
std::string valid_image(const Bed& bed) {
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const FluxEvent& e : bed.session_events(0, 3, 7)) {
    m->push(e);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();
  std::stringstream buffer;
  write_checkpoint(buffer, cp);
  return buffer.str();
}

std::optional<CheckpointError> decode(const std::string& image) {
  std::istringstream is(image);
  ManagerCheckpoint out;
  return read_checkpoint(is, out);
}

TEST(Checkpoint, RoundTripPreservesEveryFieldNaNExactly) {
  const Bed bed;
  auto m = make_manager(bed, 2, 2);
  m->start();
  // Stop mid-stream so open windows (with missing = NaN slots) exist.
  const std::vector<FluxEvent> events = bed.session_events(0, 4, 11);
  for (std::size_t i = 0; i + 3 < events.size(); ++i) {
    m->push(events[i]);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();

  const ManagerCheckpoint rt = through_bytes(cp);
  EXPECT_EQ(rt.workers, cp.workers);
  ASSERT_EQ(rt.sessions.size(), cp.sessions.size());
  for (std::size_t s = 0; s < cp.sessions.size(); ++s) {
    const SessionCheckpoint& a = cp.sessions[s];
    const SessionCheckpoint& b = rt.sessions[s];
    EXPECT_EQ(b.user, a.user);
    EXPECT_EQ(b.num_users, a.num_users);
    EXPECT_EQ(b.sniffer_nodes, a.sniffer_nodes);
    EXPECT_EQ(b.state.rng, a.state.rng);
    EXPECT_EQ(b.state.now, a.state.now);
    EXPECT_EQ(b.state.last_step_time, a.state.last_step_time);
    EXPECT_EQ(b.state.fired_any, a.state.fired_any);
    EXPECT_EQ(b.state.last_fired_epoch, a.state.last_fired_epoch);
    EXPECT_EQ(b.state.stats.events, a.state.stats.events);
    EXPECT_EQ(b.state.stats.epochs_fired, a.state.stats.epochs_fired);
    EXPECT_EQ(b.state.stats.filter_micros, a.state.stats.filter_micros);
    ASSERT_EQ(b.state.smc.users.size(), a.state.smc.users.size());
    for (std::size_t u = 0; u < a.state.smc.users.size(); ++u) {
      ASSERT_EQ(b.state.smc.users[u].particles.size(),
                a.state.smc.users[u].particles.size());
      for (std::size_t p = 0; p < a.state.smc.users[u].particles.size();
           ++p) {
        EXPECT_EQ(b.state.smc.users[u].particles[p].position.x,
                  a.state.smc.users[u].particles[p].position.x);
        EXPECT_EQ(b.state.smc.users[u].particles[p].weight,
                  a.state.smc.users[u].particles[p].weight);
      }
    }
    ASSERT_EQ(b.state.open.size(), a.state.open.size());
    for (std::size_t w = 0; w < a.state.open.size(); ++w) {
      const WindowState& wa = a.state.open[w];
      const WindowState& wb = b.state.open[w];
      EXPECT_EQ(wb.epoch, wa.epoch);
      EXPECT_EQ(wb.seen, wa.seen);
      ASSERT_EQ(wb.readings.size(), wa.readings.size());
      for (std::size_t r = 0; r < wa.readings.size(); ++r) {
        // BIT-exact f64 round-trip, including NaN payloads of missing
        // slots (operator== would reject NaN == NaN).
        std::uint64_t bits_a = 0;
        std::uint64_t bits_b = 0;
        std::memcpy(&bits_a, &wa.readings[r], 8);
        std::memcpy(&bits_b, &wb.readings[r], 8);
        EXPECT_EQ(bits_b, bits_a);
        if (!wa.seen[r]) {
          EXPECT_TRUE(std::isnan(wa.readings[r]));
        }
      }
    }
  }
}

TEST(Checkpoint, KillAtArbitraryEventRestoreIsBitIdentical) {
  const Bed bed;
  constexpr std::size_t kSessions = 3;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    streams.push_back(bed.session_events(u, 6, 77 + u));
  }
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));
  ASSERT_GT(merged.size(), 40u);

  const Fired baseline = run_uninterrupted(bed, kSessions, 1, merged);

  // Kill the service at arbitrary event cuts — early, mid-window, late —
  // and restore THROUGH THE SERIALIZED BYTES under 1 and 4 workers. The
  // combined results must be bit-identical to the uninterrupted run.
  const std::size_t cuts[] = {1, merged.size() / 3, merged.size() / 2,
                              merged.size() - 2};
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t cut : cuts) {
      auto first = make_manager(bed, kSessions, workers);
      first->start();
      for (std::size_t i = 0; i < cut; ++i) {
        first->push(merged[i]);
      }
      const ManagerCheckpoint cp = first->checkpoint();
      const Fired committed = collect(*first, kSessions);
      first.reset();  // the kill: everything in memory is gone

      auto second = make_manager(bed, kSessions, workers);
      second->restore(through_bytes(cp));
      second->start();
      for (std::size_t i = cut; i < merged.size(); ++i) {
        second->push(merged[i]);
      }
      second->finish();
      const Fired resumed = collect(*second, kSessions);

      for (std::size_t u = 0; u < kSessions; ++u) {
        Fired::value_type combined = committed[u];
        combined.insert(combined.end(), resumed[u].begin(),
                        resumed[u].end());
        EXPECT_EQ(combined, baseline[u])
            << "session " << u << " cut " << cut << " workers " << workers;
      }
    }
  }
}

TEST(Checkpoint, RestoreValidatesDeploymentAndLifecycle) {
  const Bed bed;
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const FluxEvent& e : bed.session_events(0, 3, 5)) {
    m->push(e);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();

  // Restore after start() is a lifecycle error.
  auto running = make_manager(bed, 2, 1);
  running->start();
  EXPECT_THROW(running->restore(cp), std::logic_error);
  running->finish();

  // Session-count mismatch.
  auto fewer = make_manager(bed, 1, 1);
  EXPECT_THROW(fewer->restore(cp), std::invalid_argument);

  // Unknown user in the image.
  ManagerCheckpoint renamed = cp;
  renamed.sessions[0].user = 99;
  auto fresh = make_manager(bed, 2, 1);
  EXPECT_THROW(fresh->restore(renamed), std::invalid_argument);

  // A checkpoint taken against a different sniffer deployment.
  ManagerCheckpoint reshaped = cp;
  reshaped.sessions[0].sniffer_nodes.push_back(1);
  EXPECT_THROW(fresh->restore(reshaped), std::invalid_argument);

  // Validation is all-or-nothing: the failed restores above must not have
  // half-applied, so a clean restore still works.
  fresh->restore(cp);
  fresh->start();
  fresh->finish();
}

/// Ways a CRC-valid image can still carry a particle set the filter must
/// not step on: each breaks estimate() or the resampler's
/// discrete_distribution precondition.
const std::vector<std::pair<const char*, void (*)(core::SmcUserState&)>>&
corrupt_particle_sets() {
  static const std::vector<
      std::pair<const char*, void (*)(core::SmcUserState&)>>
      cases = {
          {"NaN weight",
           [](core::SmcUserState& u) {
             u.particles[0].weight = std::nan("");
           }},
          {"negative weight",
           [](core::SmcUserState& u) { u.particles[0].weight = -0.25; }},
          {"infinite weight",
           [](core::SmcUserState& u) {
             u.particles[0].weight = std::numeric_limits<double>::infinity();
           }},
          {"all-zero weights",
           [](core::SmcUserState& u) {
             for (core::Particle& p : u.particles) {
               p.weight = 0.0;
             }
           }},
          {"weights summing past DBL_MAX",
           [](core::SmcUserState& u) {
             for (core::Particle& p : u.particles) {
               p.weight = std::numeric_limits<double>::max();
             }
           }},
          {"NaN position",
           [](core::SmcUserState& u) {
             u.particles[0].position.x = std::nan("");
           }},
          {"infinite position",
           [](core::SmcUserState& u) {
             u.particles.back().position.y =
                 -std::numeric_limits<double>::infinity();
           }},
      };
  return cases;
}

TEST(CheckpointRestore, SmcTrackerRefusesCorruptParticleSets) {
  const geom::RectField field(20.0, 20.0);
  geom::Rng rng(5);
  core::SmcConfig cfg;
  cfg.num_predictions = 30;
  cfg.num_keep = 4;
  core::SmcTracker tracker(field, 2, cfg, rng);
  const core::SmcState good = tracker.save_state();
  for (const auto& [name, corrupt] : corrupt_particle_sets()) {
    for (std::size_t user = 0; user < 2; ++user) {
      core::SmcState bad = good;
      corrupt(bad.users[user]);
      EXPECT_THROW(tracker.restore_state(bad), std::invalid_argument)
          << name << ", user " << user;
      EXPECT_THROW(tracker.validate_state(bad), std::invalid_argument)
          << name << ", user " << user;
    }
  }
  // Refused restores touched nothing: the state reads back bit for bit.
  const core::SmcState after = tracker.save_state();
  ASSERT_EQ(after.users.size(), good.users.size());
  for (std::size_t u = 0; u < good.users.size(); ++u) {
    const auto& a = after.users[u].particles;
    const auto& b = good.users[u].particles;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0);
  }
}

TEST(CheckpointRestore, ManagerRefusesTheWholeImageAndKeepsItsBytes) {
  const Bed bed;
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const std::uint32_t u : {0u, 1u}) {
    for (const FluxEvent& e : bed.session_events(u, 3, 11 + u)) {
      m->push(e);
    }
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();

  // A fresh target differs from the image in every session, so a session
  // applied before the corrupt one was found would show in its bytes.
  auto target = make_manager(bed, 2, 1);
  const std::string before = encode_checkpoint(target->checkpoint());
  ASSERT_NE(before, encode_checkpoint(cp));
  for (const auto& [name, corrupt] : corrupt_particle_sets()) {
    // Corrupting only the second session must still refuse the first.
    for (std::size_t s = 0; s < 2; ++s) {
      ManagerCheckpoint bad = cp;
      corrupt(bad.sessions[s].state.smc.users[0]);
      EXPECT_THROW(target->restore(bad), std::invalid_argument)
          << name << ", session " << s;
      EXPECT_EQ(encode_checkpoint(target->checkpoint()), before)
          << name << ", session " << s;
    }
  }
  target->restore(cp);
  EXPECT_EQ(encode_checkpoint(target->checkpoint()), encode_checkpoint(cp));
}

TEST(CheckpointRestore, Fluxfpc1ImageWithAPatchedNaNWeightIsRefused) {
  // Patch one weight's bytes in an encoded image and recompute the CRC:
  // the image decodes cleanly, and only restore can refuse it.
  const Bed bed;
  std::string image = valid_image(bed);
  ManagerCheckpoint decoded;
  {
    std::istringstream is(image);
    ASSERT_FALSE(read_checkpoint(is, decoded).has_value());
  }
  std::size_t at = std::string::npos;
  for (const core::Particle& p :
       decoded.sessions[0].state.smc.users[0].particles) {
    char bytes[sizeof(double)];
    std::memcpy(bytes, &p.weight, sizeof(double));
    const std::string_view needle(bytes, sizeof(double));
    const std::size_t first = image.find(needle);
    if (first != std::string::npos &&
        image.find(needle, first + 1) == std::string::npos) {
      at = first;  // this weight's bytes appear once: patch them
      break;
    }
  }
  ASSERT_NE(at, std::string::npos) << "no weight with unique bytes";
  support::put<double>(image.data() + at, std::nan(""));
  support::put<std::uint32_t>(
      image.data() + 12,
      support::crc32(std::string_view(image).substr(kCheckpointHeaderBytes)));

  ManagerCheckpoint patched;
  {
    std::istringstream is(image);
    const auto err = read_checkpoint(is, patched);
    ASSERT_FALSE(err.has_value()) << err->to_string();
  }
  auto target = make_manager(bed, 2, 1);
  const std::string before = encode_checkpoint(target->checkpoint());
  EXPECT_THROW(target->restore(patched), std::invalid_argument);
  EXPECT_EQ(encode_checkpoint(target->checkpoint()), before);
  target->restore(decoded);  // the unpatched image still restores
}

TEST(Checkpoint, QuiesceWhileRunningRequiresBlockPolicy) {
  const Bed bed;
  ManagerConfig mc;
  mc.policy = QueuePolicy::kDropOldest;
  TrackerManager m(mc);
  m.add_session(0, bed.tracker(1));
  // Checkpoints before start and after finish are fine under any policy;
  // a running kDropOldest service has no reachable event boundary.
  const ManagerCheckpoint cold = m.checkpoint();
  EXPECT_EQ(cold.sessions.size(), 1u);
  m.start();
  EXPECT_THROW(m.checkpoint(), std::logic_error);
  EXPECT_THROW(m.quiesce(), std::logic_error);
  m.finish();
  const ManagerCheckpoint warm = m.checkpoint();
  EXPECT_EQ(warm.sessions.size(), 1u);
}

TEST(CheckpointError, TruncatedHeaderIsTyped) {
  const Bed bed;
  const std::string image = valid_image(bed);
  const auto err = decode(image.substr(0, 10));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kTruncatedHeader);
  EXPECT_EQ(err->offset, 10u);
  EXPECT_NE(err->to_string().find("offset 10"), std::string::npos);
}

TEST(CheckpointError, BadMagicIsTyped) {
  const Bed bed;
  std::string image = valid_image(bed);
  image[0] = 'X';
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kBadMagic);
  EXPECT_EQ(err->offset, 0u);
}

TEST(CheckpointError, BadVersionIsTyped) {
  const Bed bed;
  std::string image = valid_image(bed);
  image[8] = 9;  // version word little end
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kBadVersion);
  EXPECT_EQ(err->offset, 8u);
}

TEST(CheckpointError, TruncatedPayloadIsTyped) {
  const Bed bed;
  const std::string image = valid_image(bed);
  const auto err = decode(image.substr(0, image.size() - 7));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kTruncatedPayload);
}

TEST(CheckpointError, CorruptPayloadFailsTheCrc) {
  const Bed bed;
  std::string image = valid_image(bed);
  // Flip one payload bit; the CRC must catch it (torn write / bit rot).
  image[kCheckpointHeaderBytes + image.size() / 2] ^= 0x40;
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kCrcMismatch);
  EXPECT_EQ(err->offset, 12u);
}

TEST(CheckpointError, HugePayloadLengthDoesNotAllocate) {
  // A corrupt header length must not make the reader allocate the claimed
  // size; it reads what exists and reports truncation.
  std::string image(kCheckpointHeaderBytes, '\0');
  std::memcpy(image.data(), kCheckpointMagic, 8);
  const std::uint32_t version = kCheckpointVersion;
  std::memcpy(image.data() + 8, &version, 4);
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(image.data() + 16, &huge, 8);
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kTruncatedPayload);
}

TEST(CheckpointError, UnopenableFileIsBadStream) {
  ManagerCheckpoint out;
  const auto err =
      read_checkpoint_file("/nonexistent/dir/fluxfp.ckpt", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kBadStream);
}

TEST(Checkpoint, FileRoundTripViaTempDir) {
  const Bed bed;
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const FluxEvent& e : bed.session_events(1, 3, 9)) {
    m->push(e);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + info->name() + ".ckpt";
  const std::uint64_t bytes = write_checkpoint_file(path, cp);
  EXPECT_GT(bytes, kCheckpointHeaderBytes);
  ManagerCheckpoint rt;
  const auto err = read_checkpoint_file(path, rt);
  EXPECT_FALSE(err.has_value()) << (err ? err->to_string() : "");
  ASSERT_EQ(rt.sessions.size(), cp.sessions.size());
  EXPECT_EQ(rt.sessions[1].state.rng, cp.sessions[1].state.rng);
}

TEST(StreamTracker, SaveRestoreMidStreamMatchesUninterrupted) {
  // Tracker-level bit-identity: snapshot mid-stream, rebuild with the
  // same construction inputs, restore, continue — every subsequent fold
  // must match the tracker that never stopped.
  const Bed bed;
  const std::vector<FluxEvent> events = bed.session_events(0, 6, 21);
  ASSERT_GT(events.size(), 20u);

  StreamTracker continuous = bed.tracker(42);
  StreamTracker prefix = bed.tracker(42);
  const std::size_t cut = events.size() / 2;
  std::vector<EpochResult> want;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (EpochResult& r : continuous.on_event(events[i])) {
      if (i >= cut) {
        want.push_back(std::move(r));
      }
    }
    if (i < cut) {
      prefix.on_event(events[i]);
    }
  }
  for (EpochResult& r : continuous.flush()) {
    want.push_back(std::move(r));
  }

  StreamTracker resumed = bed.tracker(42);
  resumed.restore_state(prefix.save_state());
  std::vector<EpochResult> got;
  for (std::size_t i = cut; i < events.size(); ++i) {
    for (EpochResult& r : resumed.on_event(events[i])) {
      got.push_back(std::move(r));
    }
  }
  for (EpochResult& r : resumed.flush()) {
    got.push_back(std::move(r));
  }

  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].epoch, want[i].epoch);
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].estimates[0].x, want[i].estimates[0].x);
    EXPECT_EQ(got[i].estimates[0].y, want[i].estimates[0].y);
  }
  EXPECT_EQ(resumed.stats().epochs_fired, continuous.stats().epochs_fired);
}

TEST(StreamTracker, RestoreRejectsMalformedStateWithoutMutating) {
  const Bed bed;
  StreamTracker t = bed.tracker(3);
  for (const FluxEvent& e : bed.session_events(0, 3, 2)) {
    t.on_event(e);
  }
  const StreamTrackerState good = t.save_state();

  StreamTrackerState bad_rng = good;
  bad_rng.rng = "not a generator";
  StreamTracker target = bed.tracker(3);
  EXPECT_THROW(target.restore_state(bad_rng), std::invalid_argument);

  StreamTrackerState bad_window = good;
  bad_window.open.push_back(WindowState{});  // slot counts mismatch
  EXPECT_THROW(target.restore_state(bad_window), std::invalid_argument);

  // The failed restores above must not have partially applied.
  target.restore_state(good);
  EXPECT_EQ(target.stats().events, t.stats().events);
}

}  // namespace
}  // namespace fluxfp::stream
