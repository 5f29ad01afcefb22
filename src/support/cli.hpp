#pragma once

// Argument plumbing for the command-line programs (examples/, tools/ and
// bench/): a flag cursor over argv, checked numeric values, TENANT:TOKEN
// pairs, endpoints, and the SIGINT/SIGTERM stop flag.
//
// Every parse failure goes through one path: "<program>: <message>" and
// the program's brief usage on stderr, then exit 2. Numbers are checked
// against a bound before they are stored, so no value narrows silently:
// an integer flag takes only decimal digits and refuses anything above
// its bound (the target type's maximum unless the caller names a lower
// one), and a real-valued flag takes only finite values above its floor.
//
// Header-only and process-level (it exits and installs signal handlers),
// so no library translation unit includes it.

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "netio/socket.hpp"

namespace fluxfp::cli {

// Set by the signal handler and polled from any thread (fluxfp_loadgen's
// connection threads too), so a lock-free atomic: a volatile sig_atomic_t
// is only defined for the thread the handler interrupts. It publishes no
// data, so relaxed order suffices.
inline std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

/// Routes SIGINT and SIGTERM to stop_requested().
inline void install_stop_handlers() {
  const auto handler = [](int) {
    g_stop.store(true, std::memory_order_relaxed);
  };
  std::signal(SIGINT, handler);
  std::signal(SIGTERM, handler);
}

inline bool stop_requested() {
  return g_stop.load(std::memory_order_relaxed);
}

/// `--token TENANT:TOKEN` as parsed.
struct TenantToken {
  std::uint32_t tenant = 0;
  std::uint64_t token = 0;
};

/// Walks argv from `first`. next() steps to the following token, flag()
/// names it, and the typed accessors consume the token after it as that
/// flag's value.
class Args {
 public:
  Args(int argc, char** argv, int first, std::string program,
       std::string usage)
      : argc_(argc),
        argv_(argv),
        i_(first - 1),
        program_(std::move(program)),
        usage_(std::move(usage)) {}

  /// Steps to the next token; false once argv is exhausted.
  bool next() { return ++i_ < argc_; }

  const char* flag() const { return argv_[i_]; }
  bool is(const char* name) const { return std::strcmp(flag(), name) == 0; }

  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
                 usage_.c_str());
    std::exit(2);
  }

  /// Refuses the current token; `context` (e.g. " for serve") is appended.
  [[noreturn]] void unknown_flag(const std::string& context = "") const {
    fail(std::string("unknown flag '") + flag() + "'" + context);
  }

  /// The current flag's value, as text.
  std::string value() {
    if (i_ + 1 >= argc_) {
      fail(std::string(flag()) + " needs a value");
    }
    return argv_[++i_];
  }

  /// The current flag's value as a decimal integer in [0, max].
  template <typename T>
  T integer(T max = std::numeric_limits<T>::max()) {
    static_assert(std::is_integral_v<T>);
    const std::string name = flag();
    const std::string text = value();
    return static_cast<T>(
        checked_uint(name, text, static_cast<std::uint64_t>(max)));
  }

  /// The current flag's value as a finite real >= lo.
  double real(double lo) {
    const std::string name = flag();
    const std::string text = value();
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v < lo) {
      char floor[32];
      std::snprintf(floor, sizeof floor, "%g", lo);
      fail(name + " needs a finite number >= " + floor + ", got '" + text +
           "'");
    }
    return v;
  }

  /// The current flag's value as TENANT:TOKEN.
  TenantToken tenant_token() {
    const std::string name = flag();
    const std::string pair = value();
    const std::size_t colon = pair.find(':');
    if (colon == std::string::npos) {
      fail(name + " needs TENANT:TOKEN, got '" + pair + "'");
    }
    TenantToken out;
    out.tenant = static_cast<std::uint32_t>(
        checked_uint(name + " tenant", pair.substr(0, colon),
                     std::numeric_limits<std::uint32_t>::max()));
    out.token = checked_uint(name + " value", pair.substr(colon + 1),
                             std::numeric_limits<std::uint64_t>::max());
    return out;
  }

  /// `spec` as an endpoint (unix:PATH or tcp:HOST:PORT).
  netio::Endpoint endpoint(const std::string& spec) const {
    std::string why;
    const auto ep = netio::Endpoint::parse(spec, &why);
    if (!ep) {
      fail(why);
    }
    return *ep;
  }

 private:
  std::uint64_t checked_uint(const std::string& what, const std::string& text,
                             std::uint64_t max) const {
    // strtoull alone would accept a sign, leading blanks and a trailing
    // tail, and wrap "-1" to the maximum.
    const bool digits =
        !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    const unsigned long long v =
        digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE || v > max) {
      fail(what + " needs an integer in [0, " + std::to_string(max) +
           "], got '" + text + "'");
    }
    return v;
  }

  int argc_;
  char** argv_;
  int i_;
  std::string program_;
  std::string usage_;
};

}  // namespace fluxfp::cli
