#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

namespace e2ebench {

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_tracing{false};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Buffers outlive their threads: the registry owns them and the traced
/// run reads them after every worker has been joined.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *buffer;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void record_span(const char* name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  Buffer& buffer = local_buffer();
  buffer.spans.push_back({name, start_ns, end_ns, buffer.thread});
}

std::vector<Span> collect_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_buffers) {
    buffer->spans.clear();
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "name\tthread\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.thread << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name, double unit_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / unit_ns);
    }
  }
  return out;
}

std::int64_t covered_ns(std::vector<Span> spans, std::int64_t from_ns,
                        std::int64_t to_ns) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  std::int64_t covered = 0;
  std::int64_t reach = from_ns;  // end of the union so far
  for (const Span& s : spans) {
    const std::int64_t lo = std::max(s.start_ns, reach);
    const std::int64_t hi = std::min(s.end_ns, to_ns);
    if (hi > lo) {
      covered += hi - lo;
    }
    reach = std::max(reach, std::min(s.end_ns, to_ns));
  }
  return covered;
}

}  // namespace e2ebench
