// SmcTracker::step() draws every per-step buffer from the calling thread's
// StepScratch, shared by every tracker that thread steps. These tests pin
// that the sharing carries nothing from one step to the next: trackers of
// different shapes interleaved on one thread, and trackers handed between
// two threads, reproduce bit for bit the run of each tracker stepped alone
// on a new thread.

#include "core/smc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/flux.hpp"
#include "numeric/parallel.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::core {
namespace {

/// One tracker's shape and the world it observes.
struct Case {
  std::size_t users;
  std::size_t sites;
  RobustLoss loss;
  bool recovery;
  std::uint64_t seed;
};

// k = 1 and k = 12 (the subset-lane and the prefix-cache paths), site
// counts whose column strides differ (41 -> 48, 60 -> 64, 80, 110 -> 112),
// robust loss on and off, and one tracker that re-seeds from the recovery
// grid every second round.
constexpr Case kCases[] = {
    {1, 80, RobustLoss::kNone, false, 11},
    {12, 60, RobustLoss::kHuber, false, 12},
    {3, 110, RobustLoss::kTrimmed, true, 13},
    {2, 41, RobustLoss::kHuber, false, 14},
};
constexpr std::size_t kNumCases = std::size(kCases);
constexpr int kRounds = 6;

/// Everything one run's steps reported, compared byte for byte.
struct Trace {
  std::vector<double> values;  ///< per step: estimates, stretches, residual
  std::vector<char> flags;     ///< per step: updated users, recovered
};

void expect_same_bytes(const Trace& got, const Trace& want, std::size_t c) {
  ASSERT_EQ(got.values.size(), want.values.size()) << "case " << c;
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        got.values.size() * sizeof(double)),
            0)
      << "case " << c;
  EXPECT_EQ(got.flags, want.flags) << "case " << c;
}

/// A tracker with its own field, sites, RNG and moving ground truth.
class Session {
 public:
  explicit Session(const Case& c) : case_(c), rng_(c.seed) {
    samples_ = geom::uniform_points(field_, c.sites, rng_);
    SmcConfig cfg;
    cfg.num_predictions = 150;
    cfg.num_keep = 8;
    cfg.robust.loss = c.loss;
    cfg.robust.reweight_rounds = 1;
    if (c.recovery) {
      // Every non-empty round reads as divergent, so every second round
      // re-seeds the track from the grid.
      cfg.divergence_recovery = true;
      cfg.divergence_fraction = 1e-12;
      cfg.divergence_rounds = 2;
      cfg.recovery_grid = 9;
    }
    tracker_.emplace(field_, c.users, cfg, rng_);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Steps round `round` (from 1) and records what the step reported.
  void step(int round) {
    const double t = static_cast<double>(round);
    std::vector<double> measured(samples_.size(), 0.0);
    for (std::size_t j = 0; j < case_.users; ++j) {
      const double a = 0.5 * static_cast<double>(j) + 0.3 * t;
      const geom::Vec2 sink{15.0 + 9.0 * std::cos(a), 15.0 + 9.0 * std::sin(a)};
      for (std::size_t i = 0; i < samples_.size(); ++i) {
        measured[i] += (1.0 + 0.25 * static_cast<double>(j)) *
                       model_.shape(sink, samples_[i]);
      }
    }
    // One wild reading per round gives the robust reweighting work to do.
    measured[static_cast<std::size_t>(round) % measured.size()] += 4.0;
    const SparseObjective obj(model_, samples_, std::move(measured));
    const SmcStepResult res = tracker_->step(t, obj, rng_);
    for (std::size_t j = 0; j < case_.users; ++j) {
      const geom::Vec2 e = tracker_->estimate(j);
      trace_.values.push_back(e.x);
      trace_.values.push_back(e.y);
      trace_.flags.push_back(res.updated[j] ? 1 : 0);
    }
    trace_.values.insert(trace_.values.end(), res.stretches.begin(),
                         res.stretches.end());
    trace_.values.push_back(res.residual);
    trace_.flags.push_back(res.recovered ? 2 : 0);
    recoveries_ += res.recovered ? 1 : 0;
  }

  /// Steps an all-missing window: the early return of step().
  void step_empty(double time) {
    std::vector<double> missing(samples_.size(), net::kMissingReading);
    const SparseObjective empty(model_, samples_, std::move(missing));
    tracker_->step(time, empty, rng_);
  }

  const Trace& trace() const { return trace_; }
  int recoveries() const { return recoveries_; }

 private:
  Case case_;
  geom::RectField field_{30.0, 30.0};
  FluxModel model_{field_, 1.0};
  std::vector<geom::Vec2> samples_;
  geom::Rng rng_;
  std::optional<SmcTracker> tracker_;
  Trace trace_;
  int recoveries_ = 0;
};

std::vector<std::unique_ptr<Session>> make_sessions() {
  std::vector<std::unique_ptr<Session>> out;
  for (const Case& c : kCases) {
    out.push_back(std::make_unique<Session>(c));
  }
  return out;
}

/// Runs body(0) .. body(count - 1) on `count` new threads, each starting
/// with an empty StepScratch, and joins them. Bodies that step hold a
/// SerialRegionGuard, as a TrackerManager worker does.
void on_new_threads(std::size_t count,
                    const std::function<void(std::size_t)>& body) {
  // fluxfp-lint: allow(no-raw-thread) -- only a new thread starts from an
  // empty thread_local StepScratch, and only a second thread can hand a
  // tracker to a different scratch between steps.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < count; ++t) {
    threads.emplace_back([&body, t] { body(t); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

/// Each case stepped alone, every round, on a thread of its own.
const std::vector<Trace>& alone_traces() {
  static const std::vector<Trace> traces = [] {
    std::vector<Trace> out(kNumCases);
    for (std::size_t c = 0; c < kNumCases; ++c) {
      on_new_threads(1, [&](std::size_t) {
        const numeric::SerialRegionGuard serial;
        Session s(kCases[c]);
        for (int round = 1; round <= kRounds; ++round) {
          s.step(round);
        }
        out[c] = s.trace();
      });
    }
    return out;
  }();
  return traces;
}

TEST(StepScratch, InterleavedTrackersMatchEachSteppedAlone) {
  const std::vector<std::unique_ptr<Session>> sessions = make_sessions();
  // Alternate the stepping order so each tracker follows a different
  // shape from round to round: larger and smaller k, n and robustness.
  for (int round = 1; round <= kRounds; ++round) {
    for (std::size_t i = 0; i < kNumCases; ++i) {
      const std::size_t c = round % 2 == 1 ? i : kNumCases - 1 - i;
      sessions[c]->step(round);
    }
  }
  for (std::size_t c = 0; c < kNumCases; ++c) {
    expect_same_bytes(sessions[c]->trace(), alone_traces()[c], c);
  }
  // The recovery case must really have taken the grid re-seed path.
  EXPECT_EQ(sessions[2]->recoveries(), kRounds / 2);
}

/// Hands turns between threads: take(who, ...) waits for who's turn.
class Baton {
 public:
  void take(std::size_t who, std::size_t next,
            const std::function<void()>& fn) {
    support::UniqueLock lock(mutex_);
    cv_.wait(lock.native(), [&] {
      mutex_.assert_held();  // predicate runs under the re-acquired lock
      return turn_ == who;
    });
    fn();
    turn_ = next;
    lock.unlock();
    cv_.notify_all();
  }

 private:
  support::Mutex mutex_;
  std::condition_variable cv_;
  std::size_t turn_ FLUXFP_GUARDED_BY(mutex_) = 0;
};

TEST(StepScratch, TrackersHandedBetweenTwoThreadsMatchEachSteppedAlone) {
  const std::vector<std::unique_ptr<Session>> sessions = make_sessions();
  Baton baton;
  // Thread 0 steps every tracker in odd rounds, thread 1 in even rounds,
  // so each tracker moves between two scratches on every step.
  on_new_threads(2, [&](std::size_t me) {
    const numeric::SerialRegionGuard serial;
    for (int round = 1; round <= kRounds; ++round) {
      if (static_cast<std::size_t>(round - 1) % 2 != me) {
        continue;
      }
      baton.take(me, 1 - me, [&] {
        for (const std::unique_ptr<Session>& s : sessions) {
          s->step(round);
        }
      });
    }
  });
  for (std::size_t c = 0; c < kNumCases; ++c) {
    expect_same_bytes(sessions[c]->trace(), alone_traces()[c], c);
  }
}

TEST(StepScratch, ArenaIsResetOnEveryStep) {
  Session s(kCases[1]);
  s.step(1);
  s.step(2);
  const numeric::Arena::Stats warm = step_scratch_arena_stats();
  EXPECT_GT(warm.used_bytes, 0u);
  // An all-missing window returns before drawing any scratch, so after
  // it the arena must hold nothing of the step before.
  s.step_empty(3.0);
  const numeric::Arena::Stats empty = step_scratch_arena_stats();
  EXPECT_EQ(empty.used_bytes, 0u);
  // The reset folds any overflow into the head block, so the next step
  // of this shape draws from one block.
  EXPECT_EQ(empty.overflow_blocks, 0u);
  EXPECT_GE(empty.block_bytes, warm.used_bytes);
}

}  // namespace
}  // namespace fluxfp::core
