#include "stream/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/flux.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace fluxfp::stream {
namespace {

FluxEvent ev(double time, std::uint32_t node) {
  return {time, 0, 0, node, 1.0};
}

TEST(EventQueue, RejectsZeroCapacity) {
  EXPECT_THROW(EventQueue(0, QueuePolicy::kBlock), std::invalid_argument);
}

TEST(EventQueue, FifoOrderAndStats) {
  EventQueue q(8, QueuePolicy::kBlock);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.push(ev(i, static_cast<std::uint32_t>(i))));
  }
  FluxEvent out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out.node, static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(q.try_pop(out));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 5u);
  EXPECT_EQ(s.popped, 5u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.max_depth, 5u);
}

TEST(EventQueue, BlockPolicyIsLossless) {
  EventQueue q(2, QueuePolicy::kBlock);
  std::atomic<int> produced{0};
  // fluxfp-lint: allow(no-raw-thread) -- MPSC backpressure needs a real
  // competing producer thread; parallel_for cannot model it.
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      q.push(ev(i, static_cast<std::uint32_t>(i)));
      produced.fetch_add(1);
    }
    q.close();
  });
  // Slow consumer: backpressure must keep every event.
  std::vector<std::uint32_t> seen;
  FluxEvent out;
  while (q.pop(out)) {
    seen.push_back(out.node);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  producer.join();
  ASSERT_EQ(seen.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(seen[i], i);
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(EventQueue, BlockPolicyActuallyBlocksProducer) {
  EventQueue q(1, QueuePolicy::kBlock);
  ASSERT_TRUE(q.push(ev(0, 0)));
  std::atomic<bool> second_done{false};
  // fluxfp-lint: allow(no-raw-thread) -- must observe a blocked push from
  // outside; only a raw thread can be parked mid-call.
  std::thread producer([&] {
    q.push(ev(1, 1));
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());  // full queue held the producer
  FluxEvent out;
  ASSERT_TRUE(q.pop(out));
  producer.join();
  EXPECT_TRUE(second_done.load());
}

TEST(EventQueue, DropOldestEvictsAndCounts) {
  EventQueue q(3, QueuePolicy::kDropOldest);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(q.push(ev(i, static_cast<std::uint32_t>(i))));
  }
  // Capacity 3: events 0..3 were evicted, 4..6 survive in order.
  FluxEvent out;
  for (std::uint32_t expect : {4u, 5u, 6u}) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out.node, expect);
  }
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 7u);
  EXPECT_EQ(s.dropped, 4u);
  EXPECT_EQ(s.popped, 3u);
}

TEST(EventQueue, StatsSnapshotsStayConsistentUnderConcurrentDrops) {
  // Regression guard for the kDropOldest drop accounting: a producer
  // mutates pushed/dropped/max_depth at full speed while this thread
  // snapshots stats() — under TSan this is the tear/race probe, and the
  // invariants below catch a snapshot that mixed two states.
  EventQueue q(8, QueuePolicy::kDropOldest);
  constexpr std::uint64_t kEvents = 20000;
#if defined(FLUXFP_OBS_ENABLED)
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& obs_pushed =
      reg.counter("fluxfp_stream_queue_pushed_total", "");
  obs::Counter& obs_popped =
      reg.counter("fluxfp_stream_queue_popped_total", "");
  obs::Counter& obs_dropped = reg.counter(
      "fluxfp_stream_queue_dropped_total", "",
      obs::Determinism::kScheduling);
  const std::uint64_t pushed0 = obs_pushed.value();
  const std::uint64_t popped0 = obs_popped.value();
  const std::uint64_t dropped0 = obs_dropped.value();
#endif
  std::atomic<bool> done{false};
  // fluxfp-lint: allow(no-raw-thread) -- the race under test is a producer
  // mutating QueueStats while another thread snapshots them.
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      q.push(ev(static_cast<double>(i), static_cast<std::uint32_t>(i % 64)));
    }
    done.store(true);
  });
  FluxEvent out;
  std::uint64_t polls = 0;
  while (!done.load()) {
    const QueueStats s = q.stats();
    // Counters are taken under one lock: any snapshot, however racy the
    // surrounding traffic, must satisfy the queue's conservation laws.
    ASSERT_LE(s.popped + s.dropped, s.pushed);
    ASSERT_LE(s.pushed - s.popped - s.dropped, q.capacity());
    ASSERT_LE(s.max_depth, q.capacity());
    ++polls;
    if ((polls & 7u) == 0) {
      q.try_pop(out);  // keep the consumer half of the protocol alive
    }
  }
  producer.join();
  while (q.try_pop(out)) {
  }
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, kEvents);
  EXPECT_EQ(s.popped + s.dropped, s.pushed);
  EXPECT_GT(s.dropped, 0u);  // capacity 8 vs 20k pushes must evict
#if defined(FLUXFP_OBS_ENABLED)
  // The obs mirrors moved in lockstep with the QueueStats they replace.
  EXPECT_EQ(obs_pushed.value() - pushed0, s.pushed);
  EXPECT_EQ(obs_popped.value() - popped0, s.popped);
  EXPECT_EQ(obs_dropped.value() - dropped0, s.dropped);
#endif
}

TEST(EventQueue, CloseDrainsThenStops) {
  EventQueue q(4, QueuePolicy::kBlock);
  q.push(ev(0, 7));
  q.close();
  EXPECT_FALSE(q.push(ev(1, 8)));  // no new events after close
  FluxEvent out;
  EXPECT_TRUE(q.pop(out));  // but the backlog still drains
  EXPECT_EQ(out.node, 7u);
  EXPECT_FALSE(q.pop(out));
}

TEST(EventQueue, CloseWakesBlockedProducerPromptly) {
  // Shutdown-wakeup regression guard: a producer parked in a kBlock push
  // must observe close() promptly and return false — shutdown must never
  // wait for a pop that will not come.
  EventQueue q(1, QueuePolicy::kBlock);
  ASSERT_TRUE(q.push(ev(0, 0)));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  // fluxfp-lint: allow(no-raw-thread) -- must park a producer mid-push and
  // watch close() release it from outside.
  std::thread producer([&] {
    push_result.store(q.push(ev(1, 1)));
    push_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(push_returned.load());  // parked on the full queue
  q.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!push_returned.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(push_returned.load());  // woke without a pop
  producer.join();
  EXPECT_FALSE(push_result.load());   // and reported the closure
  FluxEvent out;
  EXPECT_TRUE(q.pop(out));  // the pre-close backlog still drains
  EXPECT_EQ(out.node, 0u);
  EXPECT_FALSE(q.pop(out));
}

TEST(EventQueue, EvictOneRemovesOldestOfUserAndCounts) {
  EventQueue q(8, QueuePolicy::kBlock);
  ASSERT_TRUE(q.push({0.0, 5, 0, 10, 1.0}));
  ASSERT_TRUE(q.push({1.0, 9, 0, 11, 1.0}));
  ASSERT_TRUE(q.push({2.0, 5, 1, 12, 1.0}));
  EXPECT_FALSE(q.evict_one(77));  // no such user queued
  EXPECT_TRUE(q.evict_one(5));    // removes user 5's OLDEST event
  FluxEvent out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.user, 9u);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.user, 5u);
  EXPECT_EQ(out.node, 12u);  // the newer of user 5's events survived
  EXPECT_FALSE(q.try_pop(out));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 3u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.popped, 2u);
  // Conservation: pushed == popped + dropped + evicted + size().
  EXPECT_EQ(s.pushed, s.popped + s.dropped + s.evicted + q.size());
}

TEST(EventQueue, EvictOneFreesASlotForABlockedProducer) {
  EventQueue q(1, QueuePolicy::kBlock);
  ASSERT_TRUE(q.push({0.0, 4, 0, 0, 1.0}));
  std::atomic<bool> second_done{false};
  // fluxfp-lint: allow(no-raw-thread) -- a parked producer observing the
  // slot evict_one() frees is the contract under test.
  std::thread producer([&] {
    q.push({1.0, 6, 0, 1, 1.0});
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());
  EXPECT_TRUE(q.evict_one(4));  // displacement frees the slot
  producer.join();
  EXPECT_TRUE(second_done.load());
  FluxEvent out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.user, 6u);
}

TEST(EventQueue, MultipleProducersLoseNothingUnderBlock) {
  EventQueue q(4, QueuePolicy::kBlock);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  // fluxfp-lint: allow(no-raw-thread) -- multi-producer contention test;
  // the queue's own contract is the thing under test.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(ev(i, static_cast<std::uint32_t>(p * kPerProducer + i)));
      }
    });
  }
  // fluxfp-lint: allow(no-raw-thread) -- closes the queue only after every
  // producer exits; raw join ordering is the scenario itself.
  std::thread closer([&] {
    for (auto& t : producers) {
      t.join();
    }
    q.close();
  });
  std::vector<bool> seen(kProducers * kPerProducer, false);
  FluxEvent out;
  std::size_t total = 0;
  while (q.pop(out)) {
    EXPECT_FALSE(seen[out.node]);
    seen[out.node] = true;
    ++total;
  }
  closer.join();
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
}

/// The repeated-minimum scan merge_by_time used before its heap, kept as
/// the order oracle: the first stream (in input order) whose head time is
/// strictly smallest goes next.
std::vector<FluxEvent> merge_by_scan(
    std::span<const std::vector<FluxEvent>> streams) {
  std::vector<FluxEvent> merged;
  std::vector<std::size_t> cursor(streams.size(), 0);
  while (true) {
    std::size_t best = streams.size();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] < streams[s].size() &&
          (best == streams.size() ||
           streams[s][cursor[s]].time < streams[best][cursor[best]].time)) {
        best = s;
      }
    }
    if (best == streams.size()) {
      return merged;
    }
    merged.push_back(streams[best][cursor[best]++]);
  }
}

/// Exact order check: `node` carries each event's (stream, index) tag.
void expect_same_order(const std::vector<FluxEvent>& got,
                       const std::vector<FluxEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << "position " << i;
    ASSERT_EQ(got[i].user, want[i].user) << "position " << i;
  }
}

TEST(MergeByTime, MatchesTheRepeatedMinimumScan) {
  // A small pool of times so ties are common, both across streams and
  // within one; signed zeros compare equal and must tie too.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> pool = {-kInf, -1.5, -0.0, 0.0, 0.25,
                                    0.25,  1.0,  3.0,  kInf};
  std::mt19937_64 rng(20100621);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t k = rng() % 12;
    std::vector<std::vector<FluxEvent>> streams(k);
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t n = rng() % 4 == 0 ? 0 : rng() % 40;
      std::vector<double> times(n);
      for (double& t : times) {
        t = pool[rng() % pool.size()];
      }
      std::sort(times.begin(), times.end());
      for (std::size_t i = 0; i < n; ++i) {
        streams[s].push_back({times[i], static_cast<std::uint32_t>(s), 0,
                              static_cast<std::uint32_t>(i), 1.0});
      }
    }
    const std::span<const std::vector<FluxEvent>> in(streams);
    expect_same_order(merge_by_time(in), merge_by_scan(in));
  }
}

TEST(MergeByTime, EdgeShapes) {
  EXPECT_TRUE(merge_by_time({}).empty());

  std::vector<std::vector<FluxEvent>> one = {
      {{0.0, 0, 0, 0, 1.0}, {0.0, 0, 0, 1, 1.0}, {2.0, 0, 0, 2, 1.0}}};
  expect_same_order(merge_by_time(one), one[0]);

  // Cross-stream ties keep the earlier stream first; empty streams
  // anywhere in the input are skipped.
  std::vector<std::vector<FluxEvent>> ties = {
      {},
      {{1.0, 1, 0, 0, 1.0}, {1.0, 1, 0, 1, 1.0}},
      {},
      {{1.0, 3, 0, 0, 1.0}}};
  const std::vector<FluxEvent> merged = merge_by_time(ties);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].user, 1u);
  EXPECT_EQ(merged[1].user, 1u);
  EXPECT_EQ(merged[1].node, 1u);
  EXPECT_EQ(merged[2].user, 3u);
}

TEST(MergeByTime, RejectsNaNTimes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // At a stream's head and behind a head.
  const std::vector<std::vector<FluxEvent>> at_head = {
      {{0.0, 0, 0, 0, 1.0}}, {{nan, 1, 0, 0, 1.0}}};
  EXPECT_THROW(merge_by_time(at_head), std::invalid_argument);
  const std::vector<std::vector<FluxEvent>> behind = {
      {{0.0, 0, 0, 0, 1.0}, {1.0, 0, 0, 1, 1.0}, {nan, 0, 0, 2, 1.0}}};
  EXPECT_THROW(merge_by_time(behind), std::invalid_argument);
  // A NaN reading is a missing reading, not a bad time.
  const std::vector<std::vector<FluxEvent>> missing = {{{0.0, 0, 0, 0, nan}}};
  EXPECT_EQ(merge_by_time(missing).size(), 1u);
}

}  // namespace
}  // namespace fluxfp::stream
