// fluxfp_loadgen: replays a FLUXFPT1 trace against a running FXN1 tracking
// service at Nx speed over M concurrent connections.
//
// The trace is partitioned by session: connection c carries every event of
// users u with u % M == c, so each session's events stay on one connection
// and arrive in trace order — the property that makes accepted-event
// folding bit-identical under AdmissionPolicy::kBlock. Connection c
// authenticates as tenant c % T, which matches the server's session->tenant
// map (session s belongs to tenant s % T) exactly when M is a multiple of
// T; the tool enforces that so a foreign-event rejection is always a real
// finding, never a partitioning artifact.
//
// All connections pace against the SAME stream epoch clock (the global
// first event's timestamp), so the offered interleaving across connections
// tracks the recorded one at any speedup. After the replay, one control
// connection fetches METRICS — the server quiesces first, so
// events_processed and the ingest-to-estimate percentiles are exact.
//
// --check turns the report into a gate: nonzero processed events, zero
// error frames, and (kBlock servers) processed == accepted, or exit 1.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netio/client.hpp"
#include "stream/trace_io.hpp"
#include "support/cli.hpp"

namespace {

using namespace fluxfp;

constexpr const char* kUsage =
    "usage: fluxfp_loadgen ADDR --trace PATH [--connections M] "
    "[--tenants T]\n"
    "                      [--speed N] [--batch B] [--token T:TOK]... "
    "[--check]\n"
    "\n"
    "  ADDR              unix:/path/to.sock or tcp:HOST:PORT\n"
    "  --trace PATH      FLUXFPT1 trace to replay (required)\n"
    "  --connections M   concurrent client connections (default 4)\n"
    "  --tenants T       tenant count of the target server (default 1;\n"
    "                    M must be a multiple of T)\n"
    "  --speed N         replay speedup vs trace time (default 10;\n"
    "                    0 = as fast as the server accepts)\n"
    "  --batch B         events per EVENT_BATCH frame (default 64)\n"
    "  --token T:TOK     auth token for tenant T (repeatable)\n"
    "  --check           exit 1 unless the server processed >0 events,\n"
    "                    sent 0 error frames, and processed == accepted\n"
    "\n"
    "exit status: 0 ok, 1 runtime or --check failure, 2 usage error.\n";

/// One connection's share of the replay and what came back for it.
struct ConnResult {
  std::uint64_t sent = 0;
  netio::BatchAckMsg acks;
  double max_behind = 0.0;
  bool ok = true;
  std::string error;
};

void run_connection(const netio::Endpoint& endpoint, std::uint32_t tenant,
                    std::uint64_t token,
                    const std::vector<stream::FluxEvent>& events,
                    double speed, double epoch_time, std::size_t batch_size,
                    ConnResult& out) {
  netio::Client client;
  if (!client.connect(endpoint, tenant, token)) {
    out.ok = false;
    out.error = client.last_error();
    return;
  }
  stream::ReplayPacer pacer(speed, epoch_time);
  std::vector<stream::FluxEvent> batch;
  batch.reserve(batch_size);
  auto flush = [&]() {
    if (batch.empty()) {
      return true;
    }
    netio::BatchAckMsg ack;
    if (!client.send_batch(batch, ack)) {
      out.ok = false;
      out.error = client.last_error();
      return false;
    }
    out.acks.accepted += ack.accepted;
    out.acks.shed += ack.shed;
    out.acks.unknown += ack.unknown;
    out.acks.foreign += ack.foreign;
    out.acks.closed += ack.closed;
    batch.clear();
    return true;
  };
  for (const stream::FluxEvent& event : events) {
    if (cli::stop_requested() ||
        !pacer.pace(event.time, cli::stop_requested)) {
      break;
    }
    batch.push_back(event);
    ++out.sent;
    if (batch.size() >= batch_size && !flush()) {
      return;
    }
  }
  flush();
  out.max_behind = pacer.max_behind_seconds();
  if (out.ok) {
    client.goodbye();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string addr;
  std::string trace_path;
  std::size_t connections = 4;
  std::size_t tenants = 1;
  double speed = 10.0;
  std::size_t batch_size = 64;
  bool check = false;
  std::map<std::uint32_t, std::uint64_t> tokens;

  cli::Args args(argc, argv, 1, "fluxfp_loadgen", kUsage);
  while (args.next()) {
    if (args.is("--trace")) {
      trace_path = args.value();
    } else if (args.is("--connections")) {
      connections = args.integer<std::size_t>();
    } else if (args.is("--tenants")) {
      tenants = args.integer<std::uint32_t>();
    } else if (args.is("--speed")) {
      speed = args.real(0.0);
    } else if (args.is("--batch")) {
      batch_size = args.integer<std::size_t>();
    } else if (args.is("--token")) {
      const cli::TenantToken t = args.tenant_token();
      tokens[t.tenant] = t.token;
    } else if (args.is("--check")) {
      check = true;
    } else if (args.is("--help") || args.is("-h")) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (args.flag()[0] == '-') {
      args.unknown_flag();
    } else if (addr.empty()) {
      addr = args.flag();
    } else {
      args.fail(std::string("unexpected operand '") + args.flag() + "'");
    }
  }
  if (addr.empty()) {
    args.fail("ADDR operand is required");
  }
  if (trace_path.empty()) {
    args.fail("--trace is required");
  }
  if (connections == 0 || tenants == 0 || batch_size == 0) {
    args.fail("--connections/--tenants/--batch must be >= 1");
  }
  if (connections % tenants != 0) {
    args.fail("--connections must be a multiple of --tenants so the "
              "connection->tenant map matches the server's "
              "session->tenant map");
  }
  const netio::Endpoint endpoint = args.endpoint(addr);

  cli::install_stop_handlers();

  std::vector<stream::FluxEvent> events;
  try {
    events = stream::read_trace_file(trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fluxfp_loadgen: %s\n", e.what());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "fluxfp_loadgen: %s holds no events\n",
                 trace_path.c_str());
    return 1;
  }
  double epoch_time = events.front().time;
  for (const stream::FluxEvent& e : events) {
    epoch_time = std::min(epoch_time, e.time);
  }

  // Session-stable partition: all of user u rides connection u % M.
  std::vector<std::vector<stream::FluxEvent>> shares(connections);
  for (const stream::FluxEvent& e : events) {
    shares[e.user % connections].push_back(e);
  }

  std::printf("replaying %zu events from %s to %s\n", events.size(),
              trace_path.c_str(), endpoint.to_string().c_str());
  std::printf("%zu connections over %zu tenants, %.0fx speed, batch %zu\n",
              connections, tenants, speed, batch_size);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<ConnResult> results(connections);
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      const auto tenant = static_cast<std::uint32_t>(c % tenants);
      const auto it = tokens.find(tenant);
      const std::uint64_t token = it == tokens.end() ? 0 : it->second;
      threads.emplace_back(run_connection, std::cref(endpoint), tenant,
                           token, std::cref(shares[c]), speed, epoch_time,
                           batch_size, std::ref(results[c]));
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::puts("\nconn  tenant     sent  accepted   shed  unknown  foreign  "
            "closed  lag-ms");
  netio::BatchAckMsg totals;
  std::uint64_t sent_total = 0;
  bool all_ok = true;
  for (std::size_t c = 0; c < connections; ++c) {
    const ConnResult& r = results[c];
    std::printf("%4zu  %6zu  %7llu  %8llu  %5llu  %7llu  %7llu  %6llu  "
                "%6.1f\n",
                c, c % tenants, static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.acks.accepted),
                static_cast<unsigned long long>(r.acks.shed),
                static_cast<unsigned long long>(r.acks.unknown),
                static_cast<unsigned long long>(r.acks.foreign),
                static_cast<unsigned long long>(r.acks.closed),
                1e3 * r.max_behind);
    sent_total += r.sent;
    totals.accepted += r.acks.accepted;
    totals.shed += r.acks.shed;
    totals.unknown += r.acks.unknown;
    totals.foreign += r.acks.foreign;
    totals.closed += r.acks.closed;
    if (!r.ok) {
      std::fprintf(stderr, "conn %zu failed: %s\n", c, r.error.c_str());
      all_ok = false;
    }
  }
  std::printf("\noffered %llu events in %.3fs (%.0f events/s aggregate)\n",
              static_cast<unsigned long long>(sent_total), wall,
              wall > 0.0 ? static_cast<double>(sent_total) / wall : 0.0);

  // The control connection quiesces the server, so the processed count and
  // latency percentiles below cover everything accepted above.
  netio::Client control;
  netio::MetricsMsg m;
  const std::uint64_t control_token =
      tokens.empty() ? 0 : tokens.begin()->second;
  const std::uint32_t control_tenant =
      tokens.empty() ? 0 : tokens.begin()->first;
  if (!control.connect(endpoint, control_tenant, control_token) ||
      !control.metrics(m)) {
    std::fprintf(stderr, "fluxfp_loadgen: metrics fetch failed: %s\n",
                 control.last_error().c_str());
    return 1;
  }
  control.goodbye();
  std::printf("server: %llu accepted, %llu processed, %llu shed, %llu "
              "foreign, %llu error frames, %llu restarts\n",
              static_cast<unsigned long long>(m.events_accepted),
              static_cast<unsigned long long>(m.events_processed),
              static_cast<unsigned long long>(m.events_shed),
              static_cast<unsigned long long>(m.events_foreign),
              static_cast<unsigned long long>(m.error_frames),
              static_cast<unsigned long long>(m.restarts));
  std::printf("ingest-to-estimate us: p50 %.0f  p99 %.0f  max %.0f "
              "(%llu samples)\n",
              m.ingest_p50_us, m.ingest_p99_us, m.ingest_max_us,
              static_cast<unsigned long long>(m.ingest_samples));

  if (check) {
    bool pass = all_ok;
    if (m.events_processed == 0) {
      std::fputs("check: FAIL — server processed no events\n", stderr);
      pass = false;
    }
    if (m.error_frames != 0) {
      std::fprintf(stderr, "check: FAIL — %llu error frames\n",
                   static_cast<unsigned long long>(m.error_frames));
      pass = false;
    }
    if (m.events_processed != m.events_accepted) {
      std::fprintf(stderr,
                   "check: FAIL — processed %llu != accepted %llu\n",
                   static_cast<unsigned long long>(m.events_processed),
                   static_cast<unsigned long long>(m.events_accepted));
      pass = false;
    }
    if (!pass) {
      return 1;
    }
    std::puts("check: PASS");
  }
  return all_ok ? 0 : 1;
}
