// serve — the FXN1 service path. An in-process netio::Server on a Unix
// socket hosts 256 single-user sessions on stream_daemon's deployment
// (20 x 20 field, 12% sniffers, kBlock admission, 2 manager workers,
// checkpoint_every_epochs = 32). A seed-generated event stream (256
// sessions x 30 rounds) is replayed open loop at kSpeed x trace time over
// two batch connections while a third reads each session's estimate once
// per fired epoch, when the epoch is due to fire. Every batch and query is
// timed from its due time.
//
// The traced run also replays the same stream straight into a
// stream::Supervisor with the same configuration and no sockets, timing
// offer() and quiesce(); that is the stream layer's share of the service.

#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/flux_model.hpp"
#include "eval/experiment.hpp"
#include "geom/field.hpp"
#include "netio/client.hpp"
#include "netio/server.hpp"
#include "numeric/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "spans.hpp"
#include "stream/emit.hpp"
#include "stream/supervisor.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace fluxfp;

constexpr std::size_t kSessions = 256;
constexpr int kRounds = 30;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCheckpointEveryEpochs = 32;
constexpr std::size_t kBatchConnections = 2;
constexpr std::size_t kBatchEvents = 64;
/// Replay pace, in multiples of trace time.
constexpr double kSpeed = 2.0;
/// A send that was due while its connection sat idle but started late was
/// held back by the generator (or the host), not by the server. The run is
/// invalid when the 99th percentile of that lateness exceeds this: the
/// offered load then no longer follows the schedule. A single host stall
/// shows in gen_lag_ms.max without voiding the run.
constexpr double kMaxGenLagP99Ms = 50.0;

/// stream_daemon's seeded deployment.
struct Deployment {
  geom::RectField field{20.0, 20.0};
  std::optional<net::UnitDiskGraph> graph;
  std::optional<core::FluxModel> model;
  std::vector<std::size_t> sniffers;
};

/// One EVENT_BATCH of one batch connection, due at `due_s` after the
/// replay starts.
struct Batch {
  double due_s = 0.0;
  std::vector<stream::FluxEvent> events;
};

/// One QUERY_ESTIMATE, due when `session`'s next epoch is due to fire:
/// at the first event of the following window, events[event].
struct Query {
  double due_s = 0.0;
  std::uint32_t session = 0;
  std::size_t event = 0;
};

struct Inputs {
  std::uint64_t seed = 0;
  std::unique_ptr<Deployment> dep;
  std::vector<std::vector<geom::Vec2>> truths;  ///< per session, per round
  std::vector<stream::FluxEvent> events;        ///< merged, time-ordered
  std::vector<std::vector<Batch>> batches;      ///< per batch connection
  std::vector<Query> queries;                   ///< due-time order
  double replay_s = 0.0;                        ///< schedule length
  std::size_t windows = 0;
};

Inputs build_inputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.dep = std::make_unique<Deployment>();
  Deployment& dep = *in.dep;
  geom::Rng rng(seed);
  {
    ScopedSpan span("net.build");
    dep.graph = eval::build_connected_network({}, dep.field, rng);
    dep.model.emplace(dep.field,
                      eval::estimate_d_min(*dep.graph, dep.field, rng));
  }
  dep.sniffers = sim::sample_nodes_fraction(dep.graph->size(), 0.12, rng);

  std::vector<std::vector<stream::FluxEvent>> per_session(kSessions);
  in.truths.resize(kSessions);
  {
    ScopedSpan span("sim.scenario");
    numeric::parallel_for(0, kSessions, [&](std::size_t s) {
      geom::Rng srng(seed + 1000 * (s + 1));
      sim::SimUser user;
      user.mobility = std::make_shared<sim::RandomWaypointMobility>(
          dep.field, 0.8, static_cast<double>(kRounds) + 1.0, srng);
      sim::ScenarioConfig scfg;
      scfg.rounds = kRounds;
      scfg.start_time = 0.13 * static_cast<double>(s);
      const auto obs = sim::run_scenario(*dep.graph, {user}, scfg, srng);
      for (const auto& o : obs) {
        in.truths[s].push_back(o.true_positions[0]);
      }
      per_session[s] = stream::scenario_events(
          *dep.graph, obs, dep.sniffers, static_cast<std::uint32_t>(s));
    });
  }
  in.windows = kSessions * kRounds;
  {
    ScopedSpan span("stream.merge");
    in.events = stream::merge_by_time(per_session);
  }

  // Partition by session (each session's events stay on one connection,
  // in trace order) and cut each connection's stream into batches due
  // when their newest event is due.
  //
  // The query connection reads each estimate the service produces once: a
  // query per session and fired epoch, due when the session's first event
  // of the next window is due, which is when the epoch fires. The last
  // window fires at the end, where the final reads cover it.
  const double t0 = in.events.front().time;
  in.batches.resize(kBatchConnections);
  std::vector<std::uint32_t> window(kSessions, 0);
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const stream::FluxEvent& e = in.events[i];
    const double due_s = (e.time - t0) / kSpeed;
    std::vector<Batch>& conn = in.batches[e.user % kBatchConnections];
    if (conn.empty() || conn.back().events.size() >= kBatchEvents) {
      conn.emplace_back();
    }
    conn.back().events.push_back(e);
    conn.back().due_s = due_s;
    if (e.epoch != window[e.user]) {
      window[e.user] = e.epoch;
      in.queries.push_back({due_s, e.user, i});
    }
  }
  in.replay_s = (in.events.back().time - t0) / kSpeed;
  return in;
}

stream::Supervisor::ManagerFactory make_factory(const Inputs& in) {
  stream::StreamTrackerConfig tcfg;
  tcfg.expected_readings = in.dep->sniffers.size();
  stream::ManagerConfig mcfg;
  mcfg.workers = kWorkers;
  mcfg.admission = stream::AdmissionPolicy::kBlock;
  const Deployment* dep = in.dep.get();
  const std::uint64_t seed = in.seed;
  return [dep, tcfg, mcfg, seed]() {
    auto m = std::make_unique<stream::TrackerManager>(mcfg);
    for (std::size_t s = 0; s < kSessions; ++s) {
      m->add_session(static_cast<std::uint32_t>(s),
                     stream::StreamTracker(*dep->model, *dep->graph,
                                           dep->sniffers, 1, tcfg,
                                           seed + 500 * (s + 1)));
    }
    return m;
  };
}

stream::SupervisorConfig supervisor_config() {
  stream::SupervisorConfig cfg;
  cfg.checkpoint_every_epochs = kCheckpointEveryEpochs;
  return cfg;
}

/// A fresh socket path per server, so a stopped server's cleanup can
/// never unlink its successor's socket.
std::string socket_path() {
  static int serial = 0;
  ::mkdir(kRunDir, 0755);
  return std::string(kRunDir) + "/e2ebench-" + std::to_string(::getpid()) +
         "-" + std::to_string(serial++) + ".sock";
}

std::unique_ptr<netio::Server> start_server(const Inputs& in) {
  netio::ServerConfig cfg;
  cfg.endpoint.kind = netio::Endpoint::Kind::kUnix;
  cfg.endpoint.path = socket_path();
  auto server = std::make_unique<netio::Server>(make_factory(in),
                                                supervisor_config(), cfg);
  server->start();
  return server;
}

using Seconds = std::chrono::duration<double>;

/// What one open-loop replay through the socket measured.
struct Replay {
  std::uint64_t sent = 0;
  std::uint64_t queries = 0;
  std::uint64_t connects = 0;
  std::uint64_t failed = 0;  ///< events, queries and connects that failed
  netio::BatchAckMsg acks;   ///< summed admission tallies
  std::vector<double> ack_ms;    ///< due -> BATCH_ACK
  std::vector<double> query_ms;  ///< due -> ESTIMATE
  std::vector<double> gen_lag_ms;  ///< lateness of sends due while idle
  double wall_s = 0.0;  ///< first due send -> final METRICS
  double cpu_s = 0.0;   ///< process CPU seconds over the same span
  netio::MetricsMsg metrics;
  std::vector<netio::EstimateMsg> finals;  ///< per session, after the run
  bool finals_ok = true;
};

/// Generator threads wake at their due times with 1 ns timer slack
/// instead of the default 50 us, so the schedule, not the kernel's
/// wake-up batching, sets when a request is sent.
void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Sleeps until `due`, then records how late the wake-up was when the
/// connection had been idle (previous reply in before the due time).
void wait_until(Clock::time_point due, Clock::time_point idle_since,
                std::vector<double>& lag_ms) {
  {
    ScopedSpan span("gen.wait");
    std::this_thread::sleep_until(due);
  }
  if (idle_since <= due) {
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
  }
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

Replay replay_socket(const Inputs& in, netio::Server& server) {
  Replay r;
  const netio::Endpoint ep = server.endpoint();
  std::vector<Replay> per_conn(kBatchConnections + 1);
  std::atomic<std::size_t> batch_conns_done{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const double cpu0 = process_cpu_seconds();

  auto batch_loop = [&](std::size_t c) {
    Replay& mine = per_conn[c];
    tighten_timer_slack();
    netio::Client client;
    ++mine.connects;
    const bool connected = client.connect(ep, 0);
    mine.failed += connected ? 0 : 1;
    Clock::time_point idle_since = Clock::now();
    for (const Batch& b : in.batches[c]) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(Seconds(b.due_s));
      wait_until(due, idle_since, mine.gen_lag_ms);
      mine.sent += b.events.size();
      netio::BatchAckMsg ack;
      bool ok = false;
      if (connected && client.connected()) {
        ScopedSpan span("netio.batch");
        ok = client.send_batch(b.events, ack);
      }
      idle_since = Clock::now();
      if (!ok) {
        mine.failed += b.events.size();
        continue;
      }
      mine.ack_ms.push_back(
          std::chrono::duration<double, std::milli>(idle_since - due)
              .count());
      mine.acks.accepted += ack.accepted;
      mine.acks.shed += ack.shed;
      mine.acks.unknown += ack.unknown;
      mine.acks.foreign += ack.foreign;
      mine.acks.closed += ack.closed;
    }
    if (client.connected()) {
      client.goodbye();
    }
    batch_conns_done.fetch_add(1);
    batch_conns_done.notify_all();
  };

  auto query_loop = [&] {
    Replay& mine = per_conn[kBatchConnections];
    tighten_timer_slack();
    netio::Client client;
    ++mine.connects;
    const bool connected = client.connect(ep, 0);
    mine.failed += connected ? 0 : 1;
    Clock::time_point idle_since = Clock::now();
    for (const Query& q : in.queries) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(Seconds(q.due_s));
      wait_until(due, idle_since, mine.gen_lag_ms);
      ++mine.queries;
      netio::EstimateMsg est;
      bool ok = false;
      if (connected && client.connected()) {
        ScopedSpan span("netio.query");
        ok = client.query_estimate(q.session, est);
      }
      idle_since = Clock::now();
      if (!ok) {
        ++mine.failed;
        continue;
      }
      mine.query_ms.push_back(
          std::chrono::duration<double, std::milli>(idle_since - due)
              .count());
    }
    for (std::size_t done = batch_conns_done.load(); done < kBatchConnections;
         done = batch_conns_done.load()) {
      batch_conns_done.wait(done);
    }
    // Final quiesced METRICS ends the timed phase; the per-session final
    // estimates are read after it.
    if (connected && client.connected()) {
      ScopedSpan span("netio.metrics");
      mine.finals_ok = client.metrics(mine.metrics);
    } else {
      mine.finals_ok = false;
    }
    mine.wall_s = Seconds(Clock::now() - start).count();
    mine.cpu_s = process_cpu_seconds() - cpu0;
    for (std::uint32_t s = 0; s < kSessions && mine.finals_ok; ++s) {
      netio::EstimateMsg est;
      mine.finals_ok = client.query_estimate(s, est);
      mine.finals.push_back(std::move(est));
    }
    if (client.connected()) {
      client.goodbye();
    }
  };

  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kBatchConnections; ++c) {
      threads.emplace_back(batch_loop, c);
    }
    threads.emplace_back(query_loop);
    for (std::thread& t : threads) {
      t.join();
    }
  }
  for (Replay& p : per_conn) {
    r.sent += p.sent;
    r.queries += p.queries;
    r.connects += p.connects;
    r.failed += p.failed;
    r.acks.accepted += p.acks.accepted;
    r.acks.shed += p.acks.shed;
    r.acks.unknown += p.acks.unknown;
    r.acks.foreign += p.acks.foreign;
    r.acks.closed += p.acks.closed;
    r.ack_ms.insert(r.ack_ms.end(), p.ack_ms.begin(), p.ack_ms.end());
    r.query_ms.insert(r.query_ms.end(), p.query_ms.begin(), p.query_ms.end());
    r.gen_lag_ms.insert(r.gen_lag_ms.end(), p.gen_lag_ms.begin(),
                        p.gen_lag_ms.end());
  }
  const Replay& q = per_conn[kBatchConnections];
  r.wall_s = q.wall_s;
  r.cpu_s = q.cpu_s;
  r.metrics = q.metrics;
  r.finals = q.finals;
  r.finals_ok = q.finals_ok;
  return r;
}

/// Mean distance from each session's final estimate to its true position
/// at the session's last fired epoch; counts estimates that are
/// non-finite, outside the field, or missing.
double final_error(const Inputs& in, const Replay& r, std::uint64_t& bad) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (s >= r.finals.size() || r.finals[s].estimates.size() != 1 ||
        r.finals[s].epochs_fired == 0 ||
        r.finals[s].epochs_fired > in.truths[s].size()) {
      ++bad;
      continue;
    }
    const geom::Vec2 p = r.finals[s].estimates[0];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) ||
        !in.dep->field.contains(p)) {
      ++bad;
      continue;
    }
    sum += geom::distance(p, in.truths[s][r.finals[s].epochs_fired - 1]);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// The stream layer alone: the same events offered straight into a
/// Supervisor, with a quiesce wherever the socket replay's schedule has a
/// query.
struct Direct {
  std::vector<double> offer_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> quiesce_ms;
  std::uint64_t checkpoints = 0;
  double checkpoint_mb = 0.0;
  double queue_max_depth = 0.0;
  std::vector<geom::Vec2> finals;
};

Direct replay_direct(const Inputs& in) {
  Direct d;
  stream::Supervisor sup(make_factory(in), supervisor_config());
  sup.start();
  auto next_query = in.queries.begin();
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    for (; next_query != in.queries.end() && next_query->event == i;
         ++next_query) {
      const std::int64_t q0 = now_ns();
      sup.quiesce();
      d.quiesce_ms.push_back(static_cast<double>(now_ns() - q0) / 1e6);
    }
    const std::uint64_t before = sup.stats().checkpoints;
    const std::int64_t t0 = now_ns();
    sup.offer(in.events[i]);
    const std::int64_t t1 = now_ns();
    d.offer_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (sup.stats().checkpoints != before) {
      d.checkpoint_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }
  sup.quiesce();
  d.checkpoints = sup.stats().checkpoints;
  d.checkpoint_mb =
      static_cast<double>(sup.checkpoint_image().size()) / (1024.0 * 1024.0);
  if (const stream::TrackerManager* m = sup.manager()) {
    for (std::uint32_t s = 0; s < kSessions; ++s) {
      d.finals.push_back(m->session(s).estimate(0));
    }
  }
  sup.finish();
  for (std::size_t w = 0; w < kWorkers; ++w) {
    d.queue_max_depth = std::max(
        d.queue_max_depth,
        obs::MetricsRegistry::global()
            .gauge("fluxfp_stream_shard" + std::to_string(w) +
                       "_queue_max_depth",
                   "", obs::Determinism::kScheduling)
            .value());
  }
  return d;
}

}  // namespace

Outcome run_serve(const Options& opts) {
  Outcome out;
  numeric::set_thread_count(0);
  out.pool_threads = numeric::thread_count();
  out.server_workers = kWorkers;
  const std::uint64_t seed = eval::derive_seed(opts.seed, {256});

  Inputs in;
  std::unique_ptr<netio::Server> server;
  set_tracing(opts.trace);
  const Timing setup = repeat_setup(kSetupReps, [&] {
    server.reset();
    in = Inputs{};
    in = build_inputs(seed);
    server = start_server(in);
  });
  set_tracing(false);
  const std::vector<Span> setup_spans = collect_spans();
  clear_spans();

  const Replay r = replay_socket(in, *server);
  server->stop();
  std::uint64_t bad_finals = 0;
  const double err = final_error(in, r, bad_finals);
  const netio::MetricsMsg& m = r.metrics;

  out.attempted = r.sent + r.queries + r.connects;
  out.failed = r.failed + r.acks.shed + r.acks.unknown + r.acks.foreign +
               r.acks.closed + m.error_frames + bad_finals;
  out.check(r.finals_ok, "final METRICS or estimate queries failed");
  out.check(m.events_processed == m.events_accepted,
            "processed != accepted at the final quiesced METRICS");
  // The server sets events_processed from its accepted tally when it
  // quiesces, so the check above cannot see a tracker that dropped
  // events. The trackers' own fold counts can.
  std::uint64_t folded = 0;
  for (const netio::EstimateMsg& f : r.finals) {
    folded += f.events_folded;
  }
  out.check(folded == r.sent && folded == in.events.size(),
            "the sessions' trackers did not fold every event sent");
  out.check(m.events_accepted == in.events.size(),
            "not every event was accepted");
  out.check(m.error_frames == 0, "the server sent error frames");
  out.check(bad_finals == 0,
            "a session's final estimate is missing, non-finite or outside "
            "the field");
  if (quantile(r.gen_lag_ms, 0.99) > kMaxGenLagP99Ms) {
    out.invalid.push_back("load generator ran behind its own schedule (p99 " +
                          std::to_string(quantile(r.gen_lag_ms, 0.99)) +
                          " ms)");
  }

  const Timing replay{{r.wall_s}, {r.cpu_s}};
  add_common_metrics(out, setup, replay, err,
                     static_cast<double>(m.events_processed));
  out.note("ack_p50_ms", quantile(r.ack_ms, 0.50), "ms");
  out.note("ack_p99_ms", quantile(r.ack_ms, 0.99), "ms");
  out.note("query_p50_ms", quantile(r.query_ms, 0.50), "ms");
  out.note("query_p90_ms", quantile(r.query_ms, 0.90), "ms");
  out.note("query_p99_ms", quantile(r.query_ms, 0.99), "ms");
  out.note("queries", static_cast<double>(r.query_ms.size()), "count");
  out.note("batches", static_cast<double>(r.ack_ms.size()), "count");
  out.note("events", static_cast<double>(in.events.size()), "count");
  out.note("gen_lag_ms.max", max_of(r.gen_lag_ms), "ms");
  out.note("gen_lag_ms.p99", quantile(r.gen_lag_ms, 0.99), "ms");
  out.note("schedule_s", in.replay_s, "s");

  if (!opts.trace) {
    return out;
  }

  // The direct path first, then the traced socket replay on a fresh
  // server, so the obs counters cover that replay alone.
  server.reset();
  const Direct d = replay_direct(in);
  bool same = d.finals.size() == kSessions && r.finals.size() == kSessions;
  for (std::size_t s = 0; same && s < kSessions; ++s) {
    same = d.finals[s].x == r.finals[s].estimates[0].x &&
           d.finals[s].y == r.finals[s].estimates[0].y;
  }
  out.check(same,
            "direct Supervisor replay disagrees with the socket replay");

  server = start_server(in);
  reset_obs_counters();
  const std::int64_t w0 = now_ns();
  set_tracing(true);
  const Replay tr = replay_socket(in, *server);
  set_tracing(false);
  const std::int64_t w1 = now_ns();
  server->stop();
  server.reset();
  std::uint64_t traced_bad = 0;
  out.check(final_error(in, tr, traced_bad) == err && traced_bad == 0,
            "traced err_mean differs from the untraced run");
  if (quantile(tr.gen_lag_ms, 0.99) > kMaxGenLagP99Ms) {
    out.invalid.push_back("load generator fell behind in the traced replay");
  }
  const std::vector<Span> spans = collect_spans();
  save_spans(opts, setup_spans, spans);

  out.layer("net.build_s", setup_span_s(setup_spans, "net.build"), "s");
  out.layer("net.nodes", static_cast<double>(in.dep->graph->size()), "count");
  out.layer("sim.scenario_s", setup_span_s(setup_spans, "sim.scenario"), "s");
  out.layer("sim.windows", static_cast<double>(in.windows), "count");
  out.layer("stream.epochs", obs_per_pass("fluxfp_stream_epochs_fired_total", 1),
            "count");
  out.layer("stream.events", obs_per_pass("fluxfp_stream_fold_events_total", 1),
            "count");
  out.layer("stream.offer_us.p50", median(d.offer_us), "us");
  out.layer("stream.offer_us.p99", quantile(d.offer_us, 0.99), "us");
  out.layer("stream.checkpoint_ms.p50", median(d.checkpoint_ms), "ms");
  out.layer("stream.checkpoint_ms.p99", quantile(d.checkpoint_ms, 0.99), "ms");
  out.layer("stream.checkpoints", static_cast<double>(d.checkpoints), "count");
  out.layer("stream.checkpoint_mb", d.checkpoint_mb, "MiB");
  out.layer("stream.quiesce_ms.p50", median(d.quiesce_ms), "ms");
  out.layer("stream.quiesce_ms.p99", quantile(d.quiesce_ms, 0.99), "ms");
  out.layer("stream.queue_max_depth", d.queue_max_depth, "count");
  const std::vector<double> batch_ms = durations(spans, "netio.batch", 1e6);
  const std::vector<double> query_ms = durations(spans, "netio.query", 1e6);
  out.layer("netio.batch_ms.p50", median(batch_ms), "ms");
  out.layer("netio.batch_ms.p99", quantile(batch_ms, 0.99), "ms");
  out.layer("netio.query_ms.p50", median(query_ms), "ms");
  out.layer("netio.query_ms.p90", quantile(query_ms, 0.90), "ms");
  out.layer("netio.server_ingest_p50_ms", tr.metrics.ingest_p50_us / 1e3,
            "ms");
  out.layer("netio.server_ingest_p99_ms", tr.metrics.ingest_p99_us / 1e3,
            "ms");
  out.layer("netio.error_frames", static_cast<double>(tr.metrics.error_frames),
            "count");
  out.layer("netio.gen_lag_ms.max", max_of(tr.gen_lag_ms), "ms");
  finish_layers(out, spans, {{w0, w1}}, replay, Timing{{tr.wall_s}, {tr.cpu_s}});
  return out;
}

}  // namespace e2ebench
