#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/thread_annotations.hpp"

namespace fluxfp::obs {

/// Whether instrumented call sites record anything. A process-wide runtime
/// switch (default on) underneath the FLUXFP_OBS compile-time gate: the
/// macros in obs/instrument.hpp check it before touching a metric, so the
/// overhead benchmark can compare on-vs-off inside one binary.
bool enabled();
void set_enabled(bool on);

/// How a metric behaves under the determinism contract.
///
/// kStable metrics are pure functions of the event/input content — the same
/// replayed trace yields the same values at any worker count, so they are
/// part of the bit-identical-export guarantee. kScheduling metrics depend
/// on thread interleaving, worker layout, or wall-clock (queue drops, high
/// watermarks, span latencies) and are excluded from stable exports.
enum class Determinism { kStable, kScheduling };

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotonically increasing event count. All mutation is a relaxed atomic
/// add: counters never order anything, and exports after a quiescing join
/// observe every prior increment through the join's synchronization.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written (or max-folded) level. set() is last-writer-wins and thus
/// only deterministic from single-threaded call sites; concurrent writers
/// must use record_max()/add(), which commute.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  void record_max(double v);
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-boundary histogram over non-negative integer values (micros,
/// counts). Boundaries are inclusive upper edges in the Prometheus "le"
/// sense: a value v lands in the FIRST bucket with v <= bound; values above
/// the last bound land in the implicit +Inf bucket. Values and the running
/// sum are integers so that accumulation commutes — fold order can never
/// change an export.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::span<const std::uint64_t> bounds);

  void observe(std::uint64_t v);
  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) count; index bounds().size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const;
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  void reset();

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 slots
  std::atomic<std::uint64_t> sum_{0};
};

/// Time source for spans. Injected so record/replay runs can pin span
/// timing (ManualClock) while live runs read the monotonic clock — never
/// the wall clock, which would leak irreproducible state into exports.
class SpanClock {
 public:
  virtual ~SpanClock() = default;
  virtual std::uint64_t now_micros() const = 0;
};

/// std::chrono::steady_clock in microseconds. The default span clock.
class MonotonicClock final : public SpanClock {
 public:
  std::uint64_t now_micros() const override;
};

/// Test clock: time advances only when told to.
class ManualClock final : public SpanClock {
 public:
  std::uint64_t now_micros() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void set_micros(std::uint64_t t) {
    now_.store(t, std::memory_order_relaxed);
  }
  void advance_micros(std::uint64_t dt) {
    now_.fetch_add(dt, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> now_{0};
};

/// Bucket boundaries for span latency histograms: 1us .. 1s, roughly
/// log-spaced (1-2-5 per decade).
std::span<const std::uint64_t> latency_bounds_micros();

/// Bucket boundaries for small-count histograms (ESS, iteration counts):
/// powers of two, 1 .. 1024.
std::span<const std::uint64_t> count_bounds();

/// Process-wide metric registry. Registration takes a mutex (call sites
/// cache the returned reference behind a function-local static, so the hot
/// path is one relaxed atomic op); metric objects live for the life of the
/// process. Exports iterate the name-sorted index, so output order is
/// deterministic no matter how registration interleaved across threads.
class MetricsRegistry {
 public:
  /// The singleton the instrumentation macros use. Leaked on purpose:
  /// worker threads may outlive static destruction order.
  static MetricsRegistry& global();

  MetricsRegistry();
  ~MetricsRegistry();  // out of line: Entry is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a metric. Names must match [a-z][a-z0-9_]*; the
  /// first registration of a name fixes its help text, determinism tag and
  /// (for histograms) boundaries. Re-registering under a different kind or
  /// with different boundaries throws std::invalid_argument.
  Counter& counter(std::string_view name, std::string_view help,
                   Determinism det = Determinism::kStable);
  Gauge& gauge(std::string_view name, std::string_view help,
               Determinism det = Determinism::kStable);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::span<const std::uint64_t> bounds,
                       Determinism det = Determinism::kStable);
  /// histogram() with latency_bounds_micros(); spans are wall-clock-driven,
  /// so the tag defaults to kScheduling.
  Histogram& latency_histogram(std::string_view name, std::string_view help,
                               Determinism det = Determinism::kScheduling);

  /// The clock ObsSpan reads. set_clock(nullptr) restores the monotonic
  /// default; a non-null clock must outlive every span started under it.
  const SpanClock& clock() const;
  void set_clock(const SpanClock* clock);

  /// Prometheus text exposition, metrics in name order. Cumulative "le"
  /// buckets per the format. `include_scheduling` = false restricts the
  /// export to kStable metrics — the byte-identical-across-runs subset.
  std::string export_text(bool include_scheduling = true) const;

  /// Zeroes every value; registrations (names, help, bounds) survive.
  void reset_values();
  std::size_t size() const;

 private:
  struct Entry;
  Entry& find_or_create(std::string_view name, std::string_view help,
                        MetricKind kind, Determinism det,
                        std::span<const std::uint64_t> bounds);

  /// Leaf of the canonical lock order: acquirable under any runtime lock
  /// (the instrumentation macros fire inside flow/ingest/conns critical
  /// sections on first registration), and never holds another lock itself.
  mutable support::Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ FLUXFP_GUARDED_BY(mutex_);
  /// name -> entries_ index; export iterates this (sorted) view.
  std::map<std::string, std::size_t, std::less<>> index_
      FLUXFP_GUARDED_BY(mutex_);
  std::atomic<const SpanClock*> clock_;
};

/// RAII scoped span: measures the enclosed region on the registry clock and
/// observes the duration (micros) into a latency histogram. When obs is
/// disabled at construction the span never reads the clock.
class ObsSpan {
 public:
  explicit ObsSpan(Histogram& sink);
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  Histogram* sink_;
  const SpanClock* clock_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace fluxfp::obs
