#pragma once

// In-memory span recorder for the traced run. Spans are placed only in the
// benchmark's own files, around its calls into each fluxfp module's public
// functions; nothing under src/ is instrumented. With tracing off a
// ScopedSpan is one predictable branch and records nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide benchmark epoch.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< recorder-assigned thread index
};

/// Turns recording on or off for spans that start afterwards.
void set_tracing(bool on);
bool tracing();

/// Appends one finished span to the calling thread's buffer (no lock after
/// the thread's first span).
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns);

/// Every span recorded so far, all threads, in no particular order.
/// Call only while no other thread is recording.
std::vector<Span> collect_spans();

/// Drops every recorded span. Same threading rule as collect_spans().
void clear_spans();

/// Writes spans as TSV (name, thread, start_ns, end_ns) to `path`.
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Durations in `unit_ns` units (1e3 = microseconds, 1e6 = milliseconds)
/// of the spans named `name`.
std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name, double unit_ns);

/// Nanoseconds of [from_ns, to_ns) that at least one span covers, over
/// all threads (the union of the span intervals).
std::int64_t covered_ns(std::vector<Span> spans, std::int64_t from_ns,
                        std::int64_t to_ns);

/// Records [construction, destruction) under `name` when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(tracing() ? name : nullptr),
        start_(name_ != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (name_ != nullptr) {
      record_span(name_, start_, now_ns());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_;
};

}  // namespace e2ebench
