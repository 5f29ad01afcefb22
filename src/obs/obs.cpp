#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace fluxfp::obs {

namespace {

std::atomic<bool> g_enabled{true};

const SpanClock* default_clock() {
  static const MonotonicClock clock;
  return &clock;
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.front() < 'a' || name.front() > 'z') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

/// Shortest round-trip double formatting; "%.17g" reproduces the exact bit
/// pattern on re-parse, so two exports of the same value are byte-equal.
std::string format_double(double v) {
  std::array<char, 40> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", v);
  return std::string(buf.data());
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Gauge::add(double delta) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + delta,
                                   std::memory_order_relaxed)) {
  }
}

void Gauge::record_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(std::uint64_t v) {
  // First bucket with v <= bound ("le" semantics); past-the-end is +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  if (i > bounds_.size()) {
    throw std::out_of_range("Histogram::bucket_count: bad bucket index");
  }
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

std::uint64_t MonotonicClock::now_micros() const {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t).count());
}

std::span<const std::uint64_t> latency_bounds_micros() {
  static constexpr std::array<std::uint64_t, 19> kBounds = {
      1,    2,    5,     10,    20,    50,     100,    200,    500, 1000,
      2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000};
  return kBounds;
}

std::span<const std::uint64_t> count_bounds() {
  static constexpr std::array<std::uint64_t, 11> kBounds = {
      1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  return kBounds;
}

struct MetricsRegistry::Entry {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Determinism det = Determinism::kStable;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: instrumented worker threads may still touch metrics during
  // static destruction; a destructed registry would be a use-after-free.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() : clock_(default_clock()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, std::string_view help, MetricKind kind,
    Determinism det, std::span<const std::uint64_t> bounds) {
  support::MutexLock lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    if (e.kind != kind) {
      throw std::invalid_argument("MetricsRegistry: metric '" + e.name +
                                  "' already registered as a different kind");
    }
    if (kind == MetricKind::kHistogram &&
        !std::ranges::equal(e.histogram->bounds(), bounds)) {
      throw std::invalid_argument("MetricsRegistry: histogram '" + e.name +
                                  "' already registered with other bounds");
    }
    return e;
  }
  if (!valid_name(name)) {
    throw std::invalid_argument("MetricsRegistry: bad metric name '" +
                                std::string(name) +
                                "' (want [a-z][a-z0-9_]*)");
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->kind = kind;
  entry->det = det;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(bounds);
      break;
  }
  entries_.push_back(std::move(entry));
  index_.emplace(entries_.back()->name, entries_.size() - 1);
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  Determinism det) {
  return *find_or_create(name, help, MetricKind::kCounter, det, {}).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              Determinism det) {
  return *find_or_create(name, help, MetricKind::kGauge, det, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::span<const std::uint64_t> bounds,
                                      Determinism det) {
  return *find_or_create(name, help, MetricKind::kHistogram, det, bounds)
              .histogram;
}

Histogram& MetricsRegistry::latency_histogram(std::string_view name,
                                              std::string_view help,
                                              Determinism det) {
  return histogram(name, help, latency_bounds_micros(), det);
}

const SpanClock& MetricsRegistry::clock() const {
  return *clock_.load(std::memory_order_acquire);
}

void MetricsRegistry::set_clock(const SpanClock* clock) {
  clock_.store(clock != nullptr ? clock : default_clock(),
               std::memory_order_release);
}

std::string MetricsRegistry::export_text(bool include_scheduling) const {
  support::MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, idx] : index_) {
    const Entry& e = *entries_[idx];
    if (!include_scheduling && e.det == Determinism::kScheduling) {
      continue;
    }
    if (!e.help.empty()) {
      out += "# HELP " + name + " " + e.help + "\n";
    }
    out += "# TYPE " + name + " " + kind_name(e.kind) + "\n";
    switch (e.kind) {
      case MetricKind::kCounter:
        out += name + " " + std::to_string(e.counter->value()) + "\n";
        break;
      case MetricKind::kGauge:
        out += name + " " + format_double(e.gauge->value()) + "\n";
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *e.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
          cumulative += h.bucket_count(b);
          out += name + "_bucket{le=\"" + std::to_string(h.bounds()[b]) +
                 "\"} " + std::to_string(cumulative) + "\n";
        }
        cumulative += h.bucket_count(h.bounds().size());
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               "\n";
        out += name + "_sum " + std::to_string(h.sum()) + "\n";
        out += name + "_count " + std::to_string(cumulative) + "\n";
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset_values() {
  support::MutexLock lock(mutex_);
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case MetricKind::kCounter:
        entry->counter->reset();
        break;
      case MetricKind::kGauge:
        entry->gauge->reset();
        break;
      case MetricKind::kHistogram:
        entry->histogram->reset();
        break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  support::MutexLock lock(mutex_);
  return entries_.size();
}

ObsSpan::ObsSpan(Histogram& sink) : sink_(&sink) {
  if (enabled()) {
    clock_ = &MetricsRegistry::global().clock();
    start_ = clock_->now_micros();
  }
}

ObsSpan::~ObsSpan() {
  if (clock_ != nullptr) {
    const std::uint64_t end = clock_->now_micros();
    sink_->observe(end >= start_ ? end - start_ : 0);
  }
}

}  // namespace fluxfp::obs
