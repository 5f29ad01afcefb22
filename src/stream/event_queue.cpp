#include "stream/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/instrument.hpp"

namespace fluxfp::stream {

std::vector<FluxEvent> merge_by_time(
    std::span<const std::vector<FluxEvent>> streams) {
  std::vector<FluxEvent> merged;
  std::size_t total = 0;
  for (const auto& s : streams) {
    total += s.size();
  }
  merged.reserve(total);
  // k-way merge through a binary min-heap of (head time, stream index):
  // O(N log k) for N events over k streams (serve merges hundreds of
  // sessions). The index breaks time ties, so equal times keep the
  // earlier stream first; each stream's own order is kept by its cursor.
  using Head = std::pair<double, std::size_t>;
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<Head> heap;
  heap.reserve(streams.size());
  const auto head = [&](std::size_t s) {
    const double time = streams[s][cursor[s]].time;
    if (std::isnan(time)) {
      throw std::invalid_argument("merge_by_time: event time is NaN");
    }
    return Head{time, s};
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (!streams[s].empty()) {
      heap.push_back(head(s));
    }
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::size_t s = heap.back().second;
    merged.push_back(streams[s][cursor[s]++]);
    if (cursor[s] < streams[s].size()) {
      heap.back() = head(s);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    } else {
      heap.pop_back();
    }
  }
  return merged;
}

EventQueue::EventQueue(std::size_t capacity, QueuePolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity == 0) {
    throw std::invalid_argument("EventQueue: capacity must be >= 1");
  }
}

bool EventQueue::push(const FluxEvent& event) {
  bool evicted = false;
  support::UniqueLock lock(mutex_);
  if (policy_ == QueuePolicy::kBlock) {
    not_full_.wait(lock.native(), [&] {
      mutex_.assert_held();  // predicate runs under the re-acquired lock
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) {
      return false;
    }
  } else {
    if (closed_) {
      return false;
    }
    if (items_.size() >= capacity_) {
      items_.pop_front();
      ++stats_.dropped;
      evicted = true;
    }
  }
  items_.push_back(event);
  ++stats_.pushed;
  stats_.max_depth = std::max(stats_.max_depth, items_.size());
  lock.unlock();
  not_empty_.notify_one();
  // Obs mirrors of QueueStats, recorded outside the critical section.
  // Accepted pushes are content-driven (stable); evictions depend on how
  // fast the consumer drains, i.e. on scheduling.
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_pushed_total",
                         "Events accepted by ingest queues");
  if (evicted) {
    FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_stream_queue_dropped_total",
                                 "Oldest-event evictions under kDropOldest");
  }
  return true;
}

bool EventQueue::pop(FluxEvent& out) {
  support::UniqueLock lock(mutex_);
  not_empty_.wait(lock.native(), [&] {
    mutex_.assert_held();  // predicate runs under the re-acquired lock
    return closed_ || !items_.empty();
  });
  if (items_.empty()) {
    return false;  // closed and drained
  }
  out = items_.front();
  items_.pop_front();
  ++stats_.popped;
  lock.unlock();
  not_full_.notify_one();
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_popped_total",
                         "Events handed to consumers");
  return true;
}

bool EventQueue::try_pop(FluxEvent& out) {
  support::UniqueLock lock(mutex_);
  if (items_.empty()) {
    return false;
  }
  out = items_.front();
  items_.pop_front();
  ++stats_.popped;
  lock.unlock();
  not_full_.notify_one();
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_popped_total",
                         "Events handed to consumers");
  return true;
}

bool EventQueue::evict_one(std::uint32_t user) {
  support::UniqueLock lock(mutex_);
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (it->user == user) {
      items_.erase(it);
      ++stats_.evicted;
      lock.unlock();
      not_full_.notify_one();
      FLUXFP_OBS_COUNTER_INC_SCHED(
          "fluxfp_stream_queue_evicted_total",
          "Targeted removals via evict_one (priority displacement)");
      return true;
    }
  }
  return false;
}

void EventQueue::close() {
  {
    support::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool EventQueue::closed() const {
  support::MutexLock lock(mutex_);
  return closed_;
}

std::size_t EventQueue::size() const {
  support::MutexLock lock(mutex_);
  return items_.size();
}

QueueStats EventQueue::stats() const {
  support::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace fluxfp::stream
