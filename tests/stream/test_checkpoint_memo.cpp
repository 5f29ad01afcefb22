// The RNG text memo behind StreamTracker::save_state(): a checkpoint
// re-serializes only the engines that moved since the last one, so the
// saved state must not depend on how often, or on which thread, it was
// taken. Named Checkpoint* so the sanitizer soak steps repeat them (the
// supervised case is the one TSan needs: workers clear the memo, the
// supervisor fills it).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "net/deployment.hpp"
#include "sim/scenario.hpp"
#include "stream/checkpoint.hpp"
#include "stream/emit.hpp"
#include "stream/manager.hpp"
#include "stream/supervisor.hpp"

namespace fluxfp::stream {
namespace {

/// Same small deployment as the checkpoint and supervisor tests.
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

  std::unique_ptr<TrackerManager> manager(std::size_t num_sessions,
                                          std::size_t workers) const {
    ManagerConfig mc;
    mc.workers = workers;
    auto m = std::make_unique<TrackerManager>(mc);
    for (std::uint32_t u = 0; u < num_sessions; ++u) {
      m->add_session(u, tracker(1000 + u));
    }
    return m;
  }
};

/// FLUXFPC1 bytes of `cp` without the wall-clock filter timings, which
/// differ between any two runs.
std::string image_without_timings(ManagerCheckpoint cp) {
  for (SessionCheckpoint& s : cp.sessions) {
    s.state.stats.filter_micros.clear();
  }
  return encode_checkpoint(cp);
}

std::string image_of(const StreamTrackerState& state) {
  ManagerCheckpoint cp;
  cp.sessions.emplace_back();
  cp.sessions.back().state = state;
  return image_without_timings(std::move(cp));
}

TEST(CheckpointRngMemo, SavingAfterEveryEventMatchesSavingOnce) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.session_events(0, 6, 21);
  ASSERT_GT(events.size(), 20u);

  StreamTracker every = bed.tracker(42);
  StreamTracker once = bed.tracker(42);
  for (const FluxEvent& e : events) {
    every.on_event(e);
    every.save_state();
    once.on_event(e);
  }
  every.flush();
  once.flush();
  ASSERT_GT(once.stats().epochs_fired, 2u);

  const StreamTrackerState a = every.save_state();
  const StreamTrackerState b = once.save_state();
  EXPECT_EQ(a.rng, b.rng);
  EXPECT_EQ(image_of(a), image_of(b));
  // A second save with nothing fired in between reuses the memo.
  EXPECT_EQ(every.save_state().rng, a.rng);
}

TEST(CheckpointRngMemo, RestoreReplacesAStaleMemo) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.session_events(0, 4, 5);
  StreamTracker source = bed.tracker(42);
  for (std::size_t i = 0; i < events.size() / 2; ++i) {
    source.on_event(events[i]);
  }
  const StreamTrackerState s = source.save_state();

  // The target's memo holds its own (different) engine text when the
  // restore lands; the next save must report the restored engine.
  StreamTracker target = bed.tracker(7);
  ASSERT_NE(target.save_state().rng, s.rng);
  target.restore_state(s);
  EXPECT_EQ(target.save_state().rng, s.rng);
  EXPECT_EQ(image_of(target.save_state()), image_of(s));

  // ...and it keeps tracking the restored stream, not a memoized one.
  for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
    source.on_event(events[i]);
    target.on_event(events[i]);
  }
  source.flush();
  target.flush();
  EXPECT_EQ(target.save_state().rng, source.save_state().rng);
}

TEST(CheckpointRngMemo, SupervisedEveryEventMatchesOneFinalCheckpoint) {
  // Four workers fire (and clear memos) while the supervisor quiesces and
  // checkpoints (filling them) after every accepted event. The final
  // image must equal that of a plain run checkpointed once at the end,
  // whose trackers never saved before.
  const Bed bed;
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kWorkers = 4;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    streams.push_back(bed.session_events(u, 5, 31 + u));
  }
  const std::vector<FluxEvent> events =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));

  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 1;
  cfg.checkpoint_every_epochs = 0;
  Supervisor sup([&] { return bed.manager(kSessions, kWorkers); }, cfg);
  sup.start();
  for (const FluxEvent& e : events) {
    ASSERT_EQ(sup.offer(e), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_GE(sup.stats().checkpoints, events.size());
  ManagerCheckpoint supervised;
  {
    const std::string& image = sup.checkpoint_image();
    std::istringstream is(image);
    const auto err = read_checkpoint(is, supervised);
    ASSERT_FALSE(err.has_value()) << err->to_string();
  }

  auto plain = bed.manager(kSessions, kWorkers);
  plain->start();
  for (const FluxEvent& e : events) {
    plain->push(e);
  }
  plain->finish();
  const ManagerCheckpoint reference = plain->checkpoint();

  ASSERT_EQ(supervised.sessions.size(), reference.sessions.size());
  for (std::size_t i = 0; i < reference.sessions.size(); ++i) {
    EXPECT_EQ(supervised.sessions[i].state.rng,
              reference.sessions[i].state.rng)
        << "session " << i;
    EXPECT_GT(reference.sessions[i].state.stats.epochs_fired, 0u);
  }
  EXPECT_EQ(image_without_timings(supervised),
            image_without_timings(reference));
}

}  // namespace
}  // namespace fluxfp::stream
