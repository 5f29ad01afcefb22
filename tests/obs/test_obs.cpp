#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/instrument.hpp"

namespace fluxfp::obs {
namespace {

/// Restores the process-wide enabled flag and span clock, so tests that
/// flip either cannot leak state into later tests in this binary.
class ObsStateGuard {
 public:
  ObsStateGuard() : was_enabled_(enabled()) {}
  ~ObsStateGuard() {
    set_enabled(was_enabled_);
    MetricsRegistry::global().set_clock(nullptr);
  }

 private:
  bool was_enabled_;
};

TEST(Obs, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.record_max(10.0);
  g.record_max(4.0);  // lower value must not win
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Obs, HistogramBucketBoundariesAreInclusiveUpperEdges) {
  const std::vector<std::uint64_t> bounds{10, 100};
  Histogram h{std::span<const std::uint64_t>(bounds)};
  // "le" semantics: v lands in the first bucket whose bound satisfies
  // v <= bound; above the last bound is the implicit +Inf bucket.
  h.observe(0);
  h.observe(10);  // edge value belongs to the le=10 bucket
  h.observe(11);
  h.observe(100);  // edge value belongs to the le=100 bucket
  h.observe(101);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 222u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bounds(), bounds);  // registration survives reset

  const std::vector<std::uint64_t> empty;
  EXPECT_THROW(Histogram{std::span<const std::uint64_t>(empty)},
               std::invalid_argument);
  const std::vector<std::uint64_t> flat{5, 5};
  EXPECT_THROW(Histogram{std::span<const std::uint64_t>(flat)},
               std::invalid_argument);
}

TEST(Obs, RegistryDedupesAndRejectsConflicts) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("test_obs_requests_total", "help");
  Counter& c2 = reg.counter("test_obs_requests_total", "other help");
  EXPECT_EQ(&c1, &c2);  // same name -> same object; first help wins
  c1.inc();
  EXPECT_EQ(c2.value(), 1u);

  // A name cannot change kind after registration.
  EXPECT_THROW(reg.gauge("test_obs_requests_total", ""),
               std::invalid_argument);
  const std::vector<std::uint64_t> b1{1, 2};
  EXPECT_THROW(
      reg.histogram("test_obs_requests_total", "",
                    std::span<const std::uint64_t>(b1)),
      std::invalid_argument);

  // Histogram boundaries are fixed at first registration.
  reg.histogram("test_obs_hist", "", std::span<const std::uint64_t>(b1));
  const std::vector<std::uint64_t> b2{1, 2, 3};
  EXPECT_THROW(reg.histogram("test_obs_hist", "",
                             std::span<const std::uint64_t>(b2)),
               std::invalid_argument);

  EXPECT_THROW(reg.counter("Bad-Name", ""), std::invalid_argument);
  EXPECT_THROW(reg.counter("", ""), std::invalid_argument);
  EXPECT_THROW(reg.counter("9starts_with_digit", ""), std::invalid_argument);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Obs, ExportTextIsNameSortedWithCumulativeBuckets) {
  MetricsRegistry reg;
  // Register out of name order on purpose: export must sort.
  reg.counter("test_obs_zz_total", "last by name").inc(7);
  const std::vector<std::uint64_t> bounds{10, 100};
  Histogram& h = reg.histogram("test_obs_mm_micros", "middle",
                               std::span<const std::uint64_t>(bounds));
  h.observe(10);
  h.observe(11);
  h.observe(500);
  reg.gauge("test_obs_aa_level", "first by name").set(1.5);

  const std::string text = reg.export_text();
  const std::size_t aa = text.find("test_obs_aa_level");
  const std::size_t mm = text.find("test_obs_mm_micros");
  const std::size_t zz = text.find("test_obs_zz_total");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(mm, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, mm);
  EXPECT_LT(mm, zz);

  EXPECT_NE(text.find("# HELP test_obs_aa_level first by name"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_obs_mm_micros histogram"),
            std::string::npos);
  // Cumulative counts in the text exposition: 1, then 1+1, then all 3.
  EXPECT_NE(text.find("test_obs_mm_micros_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_mm_micros_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_mm_micros_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_mm_micros_sum 521"), std::string::npos);
  EXPECT_NE(text.find("test_obs_mm_micros_count 3"), std::string::npos);
  EXPECT_NE(text.find("test_obs_zz_total 7"), std::string::npos);
}

TEST(Obs, StableExportExcludesSchedulingMetrics) {
  MetricsRegistry reg;
  reg.counter("test_obs_stable_total", "content-driven").inc(3);
  reg.counter("test_obs_sched_total", "interleaving-driven",
              Determinism::kScheduling)
      .inc(5);

  const std::string full = reg.export_text(true);
  EXPECT_NE(full.find("test_obs_stable_total"), std::string::npos);
  EXPECT_NE(full.find("test_obs_sched_total"), std::string::npos);

  const std::string stable = reg.export_text(false);
  EXPECT_NE(stable.find("test_obs_stable_total"), std::string::npos);
  EXPECT_EQ(stable.find("test_obs_sched_total"), std::string::npos);
}

TEST(Obs, ResetValuesZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test_obs_reset_total", "");
  Gauge& g = reg.gauge("test_obs_reset_level", "");
  const std::vector<std::uint64_t> bounds{10};
  Histogram& h = reg.histogram("test_obs_reset_micros", "",
                               std::span<const std::uint64_t>(bounds));
  c.inc(5);
  g.set(2.0);
  h.observe(3);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 3u);
  // Same names still resolve to the same objects.
  EXPECT_EQ(&reg.counter("test_obs_reset_total", ""), &c);
}

TEST(Obs, SpanObservesManualClockDelta) {
  ObsStateGuard guard;
  set_enabled(true);
  MetricsRegistry& reg = MetricsRegistry::global();
  ManualClock clock;
  clock.set_micros(1000);
  reg.set_clock(&clock);

  Histogram& h = reg.latency_histogram("test_obs_span_micros", "");
  const std::uint64_t count0 = h.count();
  const std::uint64_t sum0 = h.sum();
  // 42us falls in the le=50 bucket: bounds 1,2,5,10,20,50 -> index 5.
  const std::uint64_t b50 = h.bucket_count(5);
  {
    ObsSpan span(h);
    clock.advance_micros(42);
  }
  EXPECT_EQ(h.count(), count0 + 1);
  EXPECT_EQ(h.sum(), sum0 + 42);
  EXPECT_EQ(h.bucket_count(5), b50 + 1);
}

TEST(Obs, DisabledSpanRecordsNothing) {
  ObsStateGuard guard;
  MetricsRegistry& reg = MetricsRegistry::global();
  ManualClock clock;
  reg.set_clock(&clock);
  Histogram& h = reg.latency_histogram("test_obs_disabled_micros", "");
  set_enabled(false);
  const std::uint64_t count0 = h.count();
  {
    ObsSpan span(h);
    clock.advance_micros(42);
  }
  EXPECT_EQ(h.count(), count0);  // span never touched the histogram
}

TEST(Obs, InstrumentMacroRespectsEnabledFlag) {
  ObsStateGuard guard;
  MetricsRegistry& reg = MetricsRegistry::global();
  set_enabled(true);
  FLUXFP_OBS_COUNTER_INC("test_obs_macro_total", "macro-registered");
  Counter& c = reg.counter("test_obs_macro_total", "");
  const std::uint64_t after_one = c.value();
  EXPECT_GE(after_one, 1u);
  set_enabled(false);
  FLUXFP_OBS_COUNTER_INC("test_obs_macro_total", "macro-registered");
  EXPECT_EQ(c.value(), after_one);  // disabled call sites mutate nothing
}

}  // namespace
}  // namespace fluxfp::obs
