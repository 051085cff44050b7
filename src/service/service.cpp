// The solver server on the epoll reactor (net/reactor.h): event loops own
// the sockets, micro-batches flow through the worker pool into the engine,
// and connections speak line-JSON or (after `{"op":"upgrade"}`) the binary
// frame protocol. Admission control, cancellation wiring (hard socket
// deaths, SIGTERM drain), watch streams, and the announce control plane
// live here; socket plumbing is shared with the router via service/net.h.

#include "service/service.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "io/binary_io.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "service/canon.h"
#include "service/net.h"

namespace ebmf::service {

namespace {

/// Announce sessions bound each dial and each reply wait by this window.
constexpr double kAnnounceWindowSeconds = 2.0;

using net::error_json;
using net::framed_json;
using net::write_line;
namespace rnet = ebmf::net;

/// Owner-side per-connection state hung on the reactor connection.
struct ConnState {
  /// Cancellation flag threaded into every Budget this connection solves
  /// under; flipped by on_close on a hard death and by stop() on drain.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
};

std::shared_ptr<ConnState> conn_state(const rnet::ConnPtr& conn) {
  return std::static_pointer_cast<ConnState>(conn->user());
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opt) : options(std::move(opt)) {
    if (options.max_batch == 0) options.max_batch = 1;
    if (options.cache_mb > 0)
      engine.set_cache(cache::ResultCache::with_capacity_mb(
          options.cache_mb, &registry, "server.cache"));
  }

  ServerOptions options;
  /// Every series this server records, its result cache's included
  /// (`server.cache.*`). Declared before the engine that holds the cache.
  obs::Registry registry;
  engine::Engine engine;

  /// The close-out every reply ends with: root span, `server.request.micros`,
  /// the trace store (op:trace/op:traces, --trace-file) and --slow-log.
  net::RequestLog log{"server", registry, options.trace_file,
                      options.slow_log, options.slow_ms};

  /// One in-flight solve visible to `{"op":"watch"}` and the stats panel.
  struct InflightEntry {
    obs::ProgressSinkPtr sink;
    std::string strategy;
    std::string label;
    std::uint64_t start_us = 0;
  };
  /// Wire id → in-flight entry. Only id-carrying solve requests register
  /// (an id is how a watcher names the solve); entries unregister — and
  /// their sink finishes, releasing every watcher — when the solve's
  /// reply is built.
  mutable std::mutex inflight_mutex;
  std::map<std::int64_t, InflightEntry> inflight_watch;

  // The ServerStats counters and the latency series, resolved once.
  obs::Counter* connections = registry.counter("server.connections");
  obs::Counter* requests = registry.counter("server.requests");
  obs::Counter* errors = registry.counter("server.errors");
  obs::Counter* rejected = registry.counter("server.rejected");
  obs::Counter* puts = registry.counter("server.puts");
  obs::Counter* joins_sent = registry.counter("server.joins_sent");
  obs::Counter* join_rejects = registry.counter("server.join_rejects");
  net::Admission gate{options.max_inflight, registry.gauge("server.inflight"),
                      rejected};

  /// The I/O tier. Created in start(); shutdown (not destroyed) in stop(),
  /// so port() and stats stay answerable after a drain.
  std::unique_ptr<rnet::ReactorServer> reactor;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};

  /// The announce clients' live sockets, one slot per router in the
  /// (comma-separated) --announce list; -1 when that session is down.
  /// stop() shuts them down (under the mutex, so a concurrent close/reuse
  /// can never hand it a recycled descriptor) to wake blocking heartbeat
  /// reads. Announcing to *every* router of a fleet keeps each router's
  /// local liveness view fresh, so a follower that takes the lease
  /// already knows this backend is alive.
  std::vector<std::thread> announce_threads;
  std::mutex announce_mutex;
  std::vector<int> announce_fds;

  ServerStats counts() const;
  std::string stats_json(std::int64_t id) const;
  std::string handle_put(const io::WireRequest& wire);
  void handle_watch(const rnet::ConnPtr& conn, std::int64_t id,
                    std::int64_t of, rnet::WireMode mode);
  std::string advertised_endpoint() const;
  bool announce_round(const std::string& router, const std::string& self,
                      std::size_t slot);
  void announce_loop(std::string router, std::size_t slot);
  void process_batch(const rnet::ConnPtr& conn,
                     std::vector<rnet::Message> messages);
};

ServerStats Server::Impl::counts() const {
  ServerStats out;
  out.connections = connections->value();
  out.requests = requests->value();
  out.errors = errors->value();
  out.rejected = rejected->value();
  out.puts = puts->value();
  out.joins_sent = joins_sent->value();
  out.join_rejects = join_rejects->value();
  return out;
}

/// The `{"op":"stats"}` reply: server counters + cache counters, one line.
std::string Server::Impl::stats_json(std::int64_t id) const {
  const ServerStats stats = counts();
  std::ostringstream out;
  out << "{";
  if (id >= 0) out << "\"id\":" << id << ",";
  out << "\"stats\":true,\"role\":\"server\",\"server\":{"
      << "\"connections\":" << stats.connections
      << ",\"requests\":" << stats.requests << ",\"errors\":" << stats.errors
      << ",\"rejected\":" << stats.rejected << ",\"puts\":" << stats.puts
      << ",\"joins_sent\":" << stats.joins_sent
      << ",\"join_rejects\":" << stats.join_rejects
      << ",\"inflight\":" << gate.inflight()
      << ",\"max_inflight\":" << options.max_inflight << "}";
  out << ",\"cache\":" << cache::stats_json(engine.cache().get());
  // The in-flight requests panel (ebmf top): one entry per watchable solve
  // with its live incumbent/bound bracket from the progress sink.
  out << ",\"inflight_requests\":[";
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex);
    bool first = true;
    const std::uint64_t now_us = obs::steady_micros();
    for (const auto& [wid, entry] : inflight_watch) {
      if (!first) out << ",";
      first = false;
      const obs::ProgressFrame last = entry.sink->last();
      out << "{\"id\":" << wid << ",\"strategy\":\""
          << io::json::escape(entry.strategy) << "\"";
      if (!entry.label.empty())
        out << ",\"label\":\"" << io::json::escape(entry.label) << "\"";
      out << ",\"elapsed_ms\":"
          << (now_us > entry.start_us ? (now_us - entry.start_us) / 1000 : 0)
          << ",\"incumbent_depth\":" << last.incumbent_depth
          << ",\"lower_bound\":" << last.lower_bound
          << ",\"gap\":" << last.gap << "}";
    }
  }
  out << "]";
  out << ",\"metrics\":" << obs::metrics_json(registry);
  out << "}";
  return out.str();
}

/// `{"op":"watch","id":C,"of":N}`: stream in-flight solve N's progress
/// frames to this connection as JSONL under id C (framed per the
/// connection's wire mode), then a final `{"done":true}` line when the
/// solve retires (`of` defaults to `id`; the router watches under its own
/// correlation id over a pooled connection). No
/// thread serves the stream: the sink replays its history and registers
/// the listener under one lock, every publish enqueues onto the
/// connection's reactor write queue through try_send (which drops frames a
/// slow watcher can't absorb and is false only once the connection is
/// closed — unsubscribing the listener), and finish() enqueues the done
/// line.
void Server::Impl::handle_watch(const rnet::ConnPtr& conn, std::int64_t id,
                                std::int64_t of, rnet::WireMode mode) {
  obs::ProgressSinkPtr sink;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex);
    const auto it = inflight_watch.find(of);
    if (it != inflight_watch.end()) sink = it->second.sink;
  }
  if (!sink) {
    conn->send(framed_json(
        mode, error_json("watch: no in-flight request with id " +
                             std::to_string(of),
                         "", id)));
    return;
  }
  sink->subscribe(
      [conn, mode, id](const obs::ProgressFrame& frame) {
        return conn->try_send(framed_json(
            mode, net::with_id_prefix(obs::progress_frame_json(frame), id)));
      },
      [conn, mode, id](std::uint64_t published) {
        conn->send(framed_json(
            mode, net::with_id_prefix("{\"watch\":true,\"done\":true,"
                                      "\"frames\":" +
                                          std::to_string(published) + "}",
                                      id)));
      });
}

/// `{"op":"put"}`: a replica cache write from the router. The payload is
/// an input, not trusted state — the pattern must already be canonical
/// (so the stored key matches what this server's own lookups compute) and
/// the certificate must validate before anything reaches the cache; a bad
/// put becomes an error reply, never a wrong cached answer. Returns the
/// error message of a refused put, empty when the entry was stored.
std::string Server::Impl::handle_put(const io::WireRequest& wire) {
  if (!engine.cache()) return "put: this server runs without a cache";
  const canon::Canonical canonical = canon::canonicalize(wire.request.matrix);
  if (!(canonical.pattern == wire.request.matrix))
    return "put: pattern is not canonical";
  if (wire.put_report.partition.empty() ||
      !validate_partition(canonical.pattern, wire.put_report.partition))
    return "put: invalid certificate";
  const canon::CacheKey key = canonical.key.mixed_with(wire.request.strategy);
  engine.cache()->insert(key, wire.request.strategy, canonical.pattern,
                         wire.put_report);
  puts->add(1);
  return std::string();
}

/// The endpoint this server announces: --advertise when given, else the
/// bind host plus the actually-bound port (resolves --port=0).
std::string Server::Impl::advertised_endpoint() const {
  if (!options.advertise.empty()) return options.advertise;
  const std::uint16_t bound = reactor ? reactor->port() : options.port;
  return options.host + ":" + std::to_string(bound);
}

/// One announce session: dial the router, join, then heartbeat until the
/// session breaks (router gone, eviction notice, or stop()). Returns true
/// when the session ended because of stop() — the loop must not retry.
bool Server::Impl::announce_round(const std::string& router,
                                  const std::string& self, std::size_t slot) {
  // A timed dial that stop() cuts short, then a bounded window per reply
  // (a router that accepts but never answers cannot wedge this thread —
  // stop() joins it).
  const int fd = net::dial(router, kAnnounceWindowSeconds, &stopping);
  if (fd < 0) return stopping.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(announce_mutex);
    announce_fds[slot] = fd;
  }
  net::LineBuffer buffer;
  std::string reply;
  const std::string endpoint_json = "\"endpoint\":\"" +
                                    io::json::escape(self) + "\"}";
  bool stopped = false;
  bool joined = false;
  if (write_line(fd, "{\"op\":\"join\"," + endpoint_json) &&
      net::read_line(fd, buffer, reply, kAnnounceWindowSeconds) ==
          net::Read::Ok)
    joined = reply.find("\"joined\":true") != std::string::npos;
  // A router that answered but refused (not --dynamic, bad endpoint) must
  // not be indistinguishable from an unreachable one: the reject counter
  // shows up in this server's own stats verb.
  if (!reply.empty() && !joined) join_rejects->add(1);
  if (joined) {
    joins_sent->add(1);
    // Heartbeat until the router stops answering or asks for a re-join.
    while (!(stopped = stopping.load(std::memory_order_relaxed))) {
      // Nap one heartbeat interval in slices so stop() lands promptly.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double, std::milli>(options.heartbeat_ms);
      while (std::chrono::steady_clock::now() < deadline &&
             !stopping.load(std::memory_order_relaxed)) {
        timespec nap{0, 20 * 1000 * 1000};
        ::nanosleep(&nap, nullptr);
      }
      if ((stopped = stopping.load(std::memory_order_relaxed))) break;
      if (!write_line(fd, "{\"op\":\"heartbeat\"," + endpoint_json)) break;
      if (net::read_line(fd, buffer, reply, kAnnounceWindowSeconds) !=
          net::Read::Ok)
        break;
      if (reply.find("\"rejoin\":true") != std::string::npos) break;
    }
  }
  // A graceful stop says goodbye on the session it held; eviction after a
  // crash is the fallback, not the normal path. The session fd is only
  // read-shutdown by stop() (to wake a blocking reply read), so the leave
  // write still goes through — re-check `stopping` because the wake-up
  // itself surfaces as a failed read, not as `stopped`.
  if (stopped || stopping.load(std::memory_order_relaxed))
    write_line(fd, "{\"op\":\"leave\"," + endpoint_json);
  {
    // Deregister before closing: once the slot is -1 under the lock,
    // stop() can no longer shut this (possibly recycled) descriptor down.
    std::lock_guard<std::mutex> lock(announce_mutex);
    announce_fds[slot] = -1;
  }
  ::close(fd);
  return stopped || stopping.load(std::memory_order_relaxed);
}

/// One announce client: join + heartbeat sessions against one router,
/// retried with a pause while that router is unreachable. A fleet runs
/// one of these per --announce entry.
void Server::Impl::announce_loop(std::string router, std::size_t slot) {
  std::string host;
  std::uint16_t port = 0;
  if (!net::parse_endpoint(router, host, port)) return;
  const std::string self = advertised_endpoint();
  while (!announce_round(router, self, slot)) {
    // Router unreachable or session broken: pause one heartbeat before
    // re-dialing (also in slices, for prompt stop()).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(
            std::max(50.0, options.heartbeat_ms));
    while (std::chrono::steady_clock::now() < deadline &&
           !stopping.load(std::memory_order_relaxed)) {
      timespec nap{0, 20 * 1000 * 1000};
      ::nanosleep(&nap, nullptr);
    }
    if (stopping.load(std::memory_order_relaxed)) break;
  }
}

namespace {

/// One message's lifecycle through a batch.
struct PendingLine {
  bool skip = false;      ///< Blank line / handled elsewhere: no reply here.
  std::string error;      ///< Non-empty: reply with an error.
  std::string label;      ///< For error replies.
  std::int64_t id = -1;   ///< Correlation id echoed into the reply.
  std::string immediate;  ///< Pre-rendered JSON reply (admin verbs).
  bool admitted = false;
  bool split = false;
  bool include_partition = false;
  /// The request carried a finite budget (deadline/conflicts/nodes): a
  /// non-Optimal reply is a budget cut and gets the flight-recorder tail.
  bool budgeted = false;
  /// Reply framing: the mode + frame type of the triggering message. A
  /// type-1 binary solve answers with a type-2 report (or type-3 error);
  /// everything else answers JSON, framed per `mode`.
  rnet::WireMode mode = rnet::WireMode::Line;
  std::uint8_t frame_type = 0;
  std::size_t rows = 0;  ///< Pattern shape for the binary report encoding.
  std::size_t cols = 0;
  /// Progress sink registered under `watch_id` for `{"op":"watch"}`;
  /// finished + unregistered when the reply is built.
  obs::ProgressSinkPtr sink;
  std::int64_t watch_id = -1;
  std::size_t batch_index = 0;  ///< Into the solve_batch vector.
  std::optional<io::WireRequest> wire;            ///< Split path keeps it.
  std::optional<engine::SolveReport> report;      ///< Split path result.
  /// Tracing (set when the request carried a "trace" member): the span
  /// recorder shared with the engine, this request's "server.request" root
  /// span id, the sender's span the root parents under, and the queue-wait
  /// span — parse + admission until the engine starts — running since the
  /// recorder was made.
  obs::TracePtr trace;
  std::uint64_t root_span = 0;
  std::uint64_t remote_parent = 0;
  obs::Phase queue;
};

}  // namespace

/// Parse, admit, solve, and answer one micro-batch, preserving message
/// order. Runs on a reactor worker; replies cork into the connection's
/// write queue (one writev per batch on the happy path).
void Server::Impl::process_batch(const rnet::ConnPtr& conn,
                                 std::vector<rnet::Message> messages) {
  Impl& impl = *this;
  const std::shared_ptr<ConnState> state = conn_state(conn);
  const obs::Phase::Clock::time_point batch_start = obs::Phase::Clock::now();
  std::vector<PendingLine> pending(messages.size());
  std::vector<engine::SolveRequest> batch;
  std::size_t admitted = 0;

  for (std::size_t i = 0; i < messages.size(); ++i) {
    PendingLine& p = pending[i];
    const rnet::Message& m = messages[i];
    p.mode = m.mode;
    p.frame_type = m.frame_type;
    io::WireRequest wire;
    const net::Intake intake = net::parse_message(m, wire, p.error);
    p.id = wire.id;
    if (intake == net::Intake::Upgrade)
      p.immediate = net::with_id_prefix("{\"upgraded\":true}", p.id);
    p.skip = intake == net::Intake::Blank;
    if (intake != net::Intake::Request) continue;
    if (wire.op == io::WireOp::Stats) {
      // Admin verb: answered from counters, never admitted or solved.
      p.immediate = impl.stats_json(wire.id);
      continue;
    }
    if (wire.op == io::WireOp::Metrics) {
      // Prometheus text exposition, wrapped in one JSON line (the protocol
      // is line-framed); `ebmf client --metrics` unwraps the body. Fleet
      // scope is a router capability — a backend only has itself.
      if (!wire.scope.empty() && wire.scope != "self" &&
          wire.scope != "local") {
        p.error = wire.scope == "fleet"
                      ? "metrics scope 'fleet' needs a router (ebmf route)"
                      : "field 'scope' must be self|local" +
                            std::string(" (got '") + wire.scope + "')";
        continue;
      }
      p.immediate = net::metrics_reply(impl.registry, wire.id);
      continue;
    }
    if (wire.op == io::WireOp::Events || wire.op == io::WireOp::Trace ||
        wire.op == io::WireOp::Traces) {
      // The flight recorder's merged tail, or this server's trace store.
      p.immediate = net::observability_reply(wire, impl.log.traces);
      continue;
    }
    if (wire.op == io::WireOp::Watch) {
      // Streams on this connection from the solve's own publishes until
      // it retires; the batch moves on immediately.
      impl.handle_watch(conn, wire.id, wire.watch_of, p.mode);
      p.skip = true;
      continue;
    }
    if (wire.op == io::WireOp::Put) {
      // Replica cache write: validated + inserted inline, but under the
      // same admission gate as solves — canonicalization + certificate
      // validation on untrusted payloads is real work, and a put flood
      // must shed exactly like a solve flood.
      if (!impl.gate.try_admit()) {
        p.error = impl.gate.overloaded();
        continue;
      }
      p.admitted = true;
      ++admitted;
      p.error = impl.handle_put(wire);
      if (p.error.empty())
        p.immediate =
            net::with_id_prefix("{\"ok\":true,\"put\":true}", wire.id);
      continue;
    }
    if (wire.op == io::WireOp::Join || wire.op == io::WireOp::Leave ||
        wire.op == io::WireOp::Heartbeat) {
      // Membership verbs belong to the router's control plane; a backend
      // answering them would silently swallow a misconfigured announce.
      p.error = "cluster membership verbs go to a router (ebmf route "
                "--dynamic), not a backend server";
      continue;
    }
    p.label = wire.request.label;
    p.include_partition = wire.include_partition;
    p.rows = wire.request.matrix.rows();
    p.cols = wire.request.matrix.cols();
    if (!impl.gate.try_admit()) {
      p.error = impl.gate.overloaded();
      continue;
    }
    p.admitted = true;
    ++admitted;

    // Per-request deadline: the client's budget capped by the server
    // ceiling; no budget means exactly the ceiling. Every budget shares
    // the connection's cancellation flag.
    const double ceiling = impl.options.budget_ceiling_seconds;
    double seconds = wire.budget_seconds;
    if (ceiling > 0) seconds = seconds > 0 ? std::min(seconds, ceiling) : ceiling;
    if (seconds > 0) wire.request.budget.deadline = Deadline::after(seconds);
    p.budgeted = seconds > 0 || wire.request.budget.max_conflicts >= 0 ||
                 wire.request.budget.max_nodes > 0;
    if (state) wire.request.budget.cancel = state->cancel;

    if (wire.id >= 0) {
      // Id-carrying solves are watchable: arm a progress sink on the
      // budget and register it so `{"op":"watch","id":N}` (and the stats
      // in-flight panel) can find this solve while it runs.
      p.sink = std::make_shared<obs::ProgressSink>();
      p.watch_id = wire.id;
      wire.request.budget.progress = p.sink;
      const std::lock_guard<std::mutex> lock(impl.inflight_mutex);
      impl.inflight_watch[wire.id] =
          Impl::InflightEntry{p.sink, wire.request.strategy,
                              wire.request.label, obs::steady_micros()};
    }

    if (wire.has_trace) {
      // This request's "server.request" root span parents under the
      // sender's span (router dispatch / client root); the recorder's
      // context carries the root id so engine spans parent under it.
      p.remote_parent = wire.trace.parent_span;
      p.root_span = obs::new_span_id();
      obs::TraceContext ctx = wire.trace;
      ctx.parent_span = p.root_span;
      p.trace = std::make_shared<obs::TraceRecorder>(ctx);
      wire.request.trace = p.trace;
      p.queue = obs::Phase(p.trace.get(), "server.queue", p.root_span);
    }

    if (wire.split && !wire.request.masked) {
      p.split = true;
      p.wire = std::move(wire);
    } else {
      p.batch_index = batch.size();
      batch.push_back(std::move(wire.request));
    }
  }

  // Queue wait ends here, once per line (not in the engine, so split
  // sub-requests sharing one recorder don't each re-report it).
  for (PendingLine& p : pending) p.queue.end();
  std::vector<engine::SolveReport> reports;
  if (!batch.empty())
    reports = impl.engine.solve_batch(batch, impl.options.threads);
  for (PendingLine& p : pending) {
    if (!p.split) continue;
    try {
      p.report = impl.engine.solve_split(p.wire->request, p.wire->threads);
    } catch (const std::exception& e) {
      p.error = e.what();
    }
  }
  impl.gate.release(admitted);

  // Retire the watchable solves: finishing the sink releases every watcher
  // (their connections get the final done line); unregister only our own
  // entry — a same-id request on another connection may have replaced it.
  for (PendingLine& p : pending) {
    if (!p.sink) continue;
    p.sink->finish();
    const std::lock_guard<std::mutex> lock(impl.inflight_mutex);
    const auto it = impl.inflight_watch.find(p.watch_id);
    if (it != impl.inflight_watch.end() && it->second.sink == p.sink)
      impl.inflight_watch.erase(it);
  }

  for (PendingLine& p : pending) {
    if (p.skip) continue;
    const bool binary_solve = p.mode == rnet::WireMode::Binary &&
                              p.frame_type == rnet::kFrameSolveRequest;
    std::string reply;          // JSON reply line (non-binary-solve paths)
    std::string payload;        // binary frame payload (binary solve path)
    std::uint8_t out_type = rnet::kFrameSolveReport;
    std::string events_json;    // a binary report carries it raw
    // A solved line's report; solve_batch turns per-request failures
    // (unknown strategy) into "error" telemetry, answered as errors too.
    const engine::SolveReport* report =
        !p.immediate.empty() || !p.error.empty() ? nullptr
        : p.split                                ? &*p.report
                                                 : &reports[p.batch_index];
    const std::string* error =
        report ? report->find_telemetry("error") : &p.error;
    const engine::SolveReport* done = error ? nullptr : report;
    if (!p.immediate.empty()) {
      reply = p.immediate;
    } else if (error) {
      impl.errors->add(1);
      if (binary_solve) {
        out_type = rnet::kFrameError;
        payload = io::binary_error_payload(p.id, *error, p.label);
      } else {
        reply = error_json(*error, p.label, p.id);
      }
    } else {
      impl.requests->add(1);
      if (p.budgeted && done->status != engine::Status::Optimal) {
        // A budget-cut reply carries the flight recorder's tail — the
        // "why did my budget run out" answer rides the reply itself.
        events_json = obs::events_json(obs::snapshot_events(32));
      }
      if (!binary_solve) {
        reply = io::wire_response_json(*done, p.include_partition, p.id);
        if (!events_json.empty())
          net::append_member(reply, "events", events_json);
      }
    }

    // Close the root span and the latency sample, and publish the trace
    // before the reply is written; a solve reply carries the spans (the
    // router folds them into its own trace).
    const net::RequestLog::Closed closed =
        impl.log.close(p.trace.get(), p.root_span, p.remote_parent,
                       batch_start, done != nullptr || !p.error.empty());
    if (done) {
      if (binary_solve)
        payload = io::binary_report_payload(*done, p.include_partition, p.id,
                                            p.rows, p.cols, events_json,
                                            closed.spans_json);
      else
        closed.splice_into(reply);
      impl.registry.histogram("server.solve." + done->strategy + ".micros")
          ->record(static_cast<std::uint64_t>(closed.seconds * 1e6));
      if (closed.slow) {
        const std::string* key = done->find_telemetry("canon.key");
        impl.log.log_slow(
            closed, {.strategy = done->strategy,
                     .label = done->label,
                     .canon_key = key ? std::string_view(*key).substr(0, 16)
                                      : std::string_view(),
                     .timings = &done->timings});
      }
    }

    // Enqueue through the reactor: the loop corks this whole batch's
    // replies into one writev. A false return means the connection died;
    // remaining replies are dropped with it (its budget was cancelled by
    // on_close already). The reply-write span can't ride in the reply it
    // measures; it lands in the local store only, visible to later
    // {"op":"trace"} queries.
    obs::Phase write(p.trace.get(), "server.reply_write", p.root_span);
    conn->send(binary_solve ? rnet::encode_frame(out_type, payload)
                            : framed_json(p.mode, reply));
    if (p.trace) {
      write.end();
      impl.log.publish(*p.trace);
    }
  }
}

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& impl = *impl_;
  rnet::ReactorOptions reactor_options;
  reactor_options.host = impl.options.host;
  reactor_options.port = impl.options.port;
  reactor_options.event_loops = impl.options.io_threads;
  reactor_options.workers = impl.options.io_workers;
  reactor_options.max_batch = impl.options.max_batch;
  reactor_options.max_message_bytes = impl.options.max_line_bytes;
  reactor_options.idle_timeout_seconds = impl.options.idle_timeout_seconds;

  rnet::ReactorCallbacks callbacks;
  callbacks.on_open = [&impl](const rnet::ConnPtr& conn) {
    conn->set_user(std::make_shared<ConnState>());
    impl.connections->add(1);
  };
  callbacks.on_batch = [&impl](const rnet::ConnPtr& conn,
                               std::vector<rnet::Message> messages) {
    impl.process_batch(conn, std::move(messages));
  };
  callbacks.protocol_error_reply = net::protocol_error_reply;
  callbacks.on_close = [&impl](const rnet::ConnPtr& conn, bool aborted) {
    // A hard death (RST, write overflow) cancels the connection's budgets —
    // the anytime contract turns that into a fast valid return, freeing
    // the admission slot. An orderly FIN keeps them: one-shot clients
    // half-close and then read their answers.
    if (!aborted) return;
    if (const std::shared_ptr<ConnState> state = conn_state(conn))
      state->cancel->store(true, std::memory_order_relaxed);
  };

  impl.reactor = std::make_unique<rnet::ReactorServer>(
      std::move(reactor_options), std::move(callbacks));
  impl.reactor->start();
  impl.stopping = false;
  impl.running = true;
  // The announce clients start after the listener so the advertised
  // endpoint carries the actually-bound port (resolves --port=0).
  // --announce takes a comma-separated router list; one session per
  // router keeps the whole fleet's liveness views fresh.
  if (!impl.options.announce.empty()) {
    const std::vector<std::string> routers =
        net::split_list(impl.options.announce);
    impl.announce_fds.assign(routers.size(), -1);
    for (std::size_t slot = 0; slot < routers.size(); ++slot)
      impl.announce_threads.emplace_back(
          [&impl, router = routers[slot], slot]() {
            impl.announce_loop(router, slot);
          });
  }
}

void Server::stop() {
  Impl& impl = *impl_;
  if (impl.stopping.exchange(true)) return;
  if (!impl.running.load()) return;

  // 0. Say goodbye to the routers first: each announce thread sends its
  // best-effort leave on the way out (a blocking heartbeat read is woken
  // by shutting its socket down), so the fleet stops routing here before
  // the drain closes any connection.
  {
    std::lock_guard<std::mutex> lock(impl.announce_mutex);
    for (const int fd : impl.announce_fds)
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& t : impl.announce_threads)
    if (t.joinable()) t.join();
  impl.announce_threads.clear();

  // 1. Drain the reactor: stop accepting and reading (messages already
  // buffered keep flowing to the handlers), then cancel every in-flight
  // budget — the anytime contract turns that into fast valid replies —
  // and let shutdown() answer what was accepted, flush, and join.
  if (impl.reactor) {
    impl.reactor->begin_drain();
    for (const rnet::ConnPtr& conn : impl.reactor->connections())
      if (const std::shared_ptr<ConnState> state = conn_state(conn))
        state->cancel->store(true, std::memory_order_relaxed);
    impl.reactor->shutdown();
  }

  // Flush-on-drain: the tail of the slow log and trace file must survive
  // the SIGTERM that triggered this stop.
  impl.log.flush();
  impl.running = false;
}

bool Server::running() const noexcept { return impl_->running.load(); }

std::uint16_t Server::port() const noexcept {
  return impl_->reactor ? impl_->reactor->port() : 0;
}

ServerStats Server::stats() const { return impl_->counts(); }

engine::Engine& Server::engine() noexcept { return impl_->engine; }

const ServerOptions& Server::options() const noexcept {
  return impl_->options;
}

// ---- Client ---------------------------------------------------------------

namespace {

/// Answered-id cache bound: big enough for any realistic pipeline window,
/// small enough that a long-lived client never grows without bound.
constexpr std::size_t kAnsweredCap = 1024;

/// Redirect-chase bound: past this many hops in one round_trip the fleet
/// is mid-election; fall back to ordinary rotation instead of looping.
constexpr std::size_t kRedirectHops = 4;

/// Decode one reply frame back to the JSON line the line protocol would
/// have produced (see the Client class comment).
std::string normalize_reply(const rnet::Frame& frame) {
  switch (frame.type) {
    case rnet::kFrameJson:
      return frame.payload;
    case rnet::kFrameError: {
      const io::BinaryError be = io::parse_binary_error(frame.payload);
      return error_json(be.message, be.label, be.id);
    }
    case rnet::kFrameSolveReport: {
      const io::BinaryReply br = io::parse_binary_report(frame.payload);
      std::string reply = io::wire_response_json(
          br.report, br.render_partition && !br.report.partition.empty(),
          br.id);
      if (!br.events_json.empty())
        net::append_member(reply, "events", br.events_json);
      if (!br.spans_json.empty())
        net::append_member(reply, "trace", "{\"spans\":" + br.spans_json + "}");
      return reply;
    }
    default:
      throw std::runtime_error("unexpected reply frame type " +
                               std::to_string(frame.type));
  }
}

}  // namespace

Client::Client(const std::vector<std::string>& endpoints)
    : endpoints_(endpoints),
      jitter_state_(0x9e3779b97f4a7c15ull ^
                    reinterpret_cast<std::uintptr_t>(this)) {
  if (endpoints_.empty())
    throw std::runtime_error("client needs at least one address");
  for (cursor_ = 0; cursor_ < endpoints_.size(); ++cursor_)
    if (connect_to(endpoints_[cursor_])) return;
  // No address answered the first pass — ride out a transient (fleet
  // restarting, injected connect fault) with the same jittered-backoff
  // rotation a mid-flight reconnect uses before giving up.
  cursor_ = 0;
  if (reconnect()) return;
  std::string list;
  for (const std::string& endpoint : endpoints_)
    list += (list.empty() ? "" : ", ") + endpoint;
  throw std::runtime_error("all addresses refused (" + list + ")");
}

Client::Client(const std::string& host, std::uint16_t port)
    : Client(std::vector<std::string>{host + ":" + std::to_string(port)}) {}

Client::~Client() { close(); }

bool Client::connect_to(const std::string& endpoint) {
  close();
  lines_ = net::LineBuffer();
  frames_ = rnet::FrameBuffer(kMaxReplyPayload);
  binary_ = false;
  fd_ = net::dial(endpoint, 0.0);
  if (fd_ < 0) return false;
  connected_ = endpoint;
  if (!want_binary_ || negotiate()) return true;
  close();
  return false;
}

bool Client::upgrade() {
  want_binary_ = true;
  if (fd_ < 0) throw std::runtime_error("client is closed");
  // A connection lost mid-negotiation fails over like any other send;
  // the fresh connection negotiates on its own (want_binary_ is set).
  if (!binary_ && !negotiate() && !reconnect())
    throw std::runtime_error("connection lost awaiting upgrade");
  return binary_;
}

bool Client::negotiate() {
  // The ack is the connection's last line-framed reply; buffered bytes
  // after its newline (possible when requests were pipelined behind the
  // upgrade) already belong to the frame protocol.
  std::string ack;
  if (!net::write_line(fd_, "{\"op\":\"upgrade\"}") ||
      net::read_line(fd_, lines_, ack) != net::Read::Ok)
    return false;
  binary_ = ack.find("\"upgraded\":true") != std::string::npos;
  if (binary_) {
    const std::string rest = lines_.release();
    frames_.append(rest.data(), rest.size());
  }
  return true;
}

bool Client::reconnect(std::size_t rounds) {
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0) {
      // Full rotation failed: pause with capped exponential backoff,
      // jittered over [0.5, 1.5)x so a client herd restarting against the
      // same fleet doesn't re-dial in lockstep.
      jitter_state_ ^= jitter_state_ << 13;
      jitter_state_ ^= jitter_state_ >> 7;
      jitter_state_ ^= jitter_state_ << 17;
      const double fraction =
          static_cast<double>(jitter_state_ >> 11) * 0x1.0p-53;
      const double pause_ms = backoff_ms_ * (0.5 + fraction);
      backoff_ms_ = std::min(backoff_ms_ * 2.0, 1000.0);
      timespec nap{static_cast<time_t>(pause_ms / 1000.0),
                   static_cast<long>(std::fmod(pause_ms, 1000.0) * 1e6)};
      ::nanosleep(&nap, nullptr);
    }
    for (std::size_t step = 0; step < endpoints_.size(); ++step) {
      cursor_ = (cursor_ + 1) % endpoints_.size();
      if (connect_to(endpoints_[cursor_])) {
        backoff_ms_ = 50.0;
        return true;
      }
    }
  }
  return false;
}

void Client::transmit(const std::string* json, const io::WireRequest* wire) {
  if (fd_ < 0) throw std::runtime_error("client is closed");
  // Encoded per attempt: a failover may land on a server that declines
  // the upgrade.
  const auto encoded = [&]() {
    if (binary_ && wire != nullptr && wire->op == io::WireOp::Solve &&
        !wire->request.masked)
      return rnet::encode_frame(rnet::kFrameSolveRequest,
                                io::binary_request_payload(*wire));
    std::string text = json ? *json : io::wire_request_json(*wire);
    if (binary_) return rnet::encode_frame(rnet::kFrameJson, text);
    if (text.empty() || text.back() != '\n') text += '\n';
    return text;
  };
  if (net::write_all(fd_, encoded())) return;
  // A reset peer (restarting backend, failed-over router) rotates to the
  // next address of the list; any other failure propagates immediately.
  if ((errno == ECONNRESET || errno == EPIPE) && reconnect() &&
      net::write_all(fd_, encoded()))
    return;
  net::sys_fail("send");
}

void Client::send_line(const std::string& line) { transmit(&line, nullptr); }

void Client::send_request(const io::WireRequest& wire) {
  transmit(nullptr, &wire);
}

std::string Client::read_line() {
  if (fd_ < 0) throw std::runtime_error("client is closed");
  if (!binary_) {
    std::string line;
    if (net::read_line(fd_, lines_, line) != net::Read::Ok)
      throw std::runtime_error("server closed the connection");
    return line;
  }
  rnet::Frame frame;
  std::string bytes;
  while (true) {
    switch (frames_.pop(&frame)) {
      case rnet::FrameBuffer::Pop::Ok:
        return normalize_reply(frame);
      case rnet::FrameBuffer::Pop::Bad:
        throw std::runtime_error("malformed reply frame: " + frames_.error());
      case rnet::FrameBuffer::Pop::NeedMore:
        break;
    }
    bytes.clear();
    if (net::recv_some(fd_, bytes) != net::Read::Ok)
      throw std::runtime_error("server closed the connection");
    frames_.append(bytes.data(), bytes.size());
  }
}

std::string Client::round_trip(const std::string& line) {
  return exchange(line, nullptr);
}

std::string Client::round_trip(const io::WireRequest& wire) {
  return exchange(io::wire_request_json(wire), &wire);
}

std::string Client::exchange(const std::string& line,
                             const io::WireRequest* wire) {
  // Exactly-once for the caller: an id this client already saw answered is
  // served from the cache — the earlier send landed, and re-submitting
  // would make a counting server (or the caller's own tally) see it twice.
  const std::int64_t id = io::salvage_request_id(line);
  const std::size_t line_hash = std::hash<std::string>{}(line);
  if (id >= 0)
    for (const auto& entry : answered_)
      if (entry.id == id && entry.line_hash == line_hash) return entry.reply;

  const auto send = [&]() { transmit(&line, wire); };
  std::string reply;
  try {
    send();
    reply = read_line();
  } catch (const std::runtime_error&) {
    // The connection died between send and reply (peer restarted, fleet
    // failing over, reply torn mid-line). Solve and stats requests are
    // idempotent, so re-send over the next live address; a second failure
    // propagates.
    if (!reconnect()) throw;
    send();
    reply = read_line();
  }

  // Chase follower redirects: reconnect to the named leaseholder and
  // re-send there. A stale redirect (old epoch, dead holder) just fails
  // the dial and falls back to rotation.
  std::string target;
  std::uint64_t epoch = 0;
  std::uint64_t term = 0;
  for (std::size_t hop = 0; hop < kRedirectHops; ++hop) {
    if (!io::parse_wire_redirect(reply, &target, &epoch, &term)) break;
    if (!connect_to(target) && !reconnect()) break;
    send();
    reply = read_line();
  }

  // Only *answers* are cached for dedupe. An error or an unresolved
  // redirect means the request was not executed — a retry must reach the
  // fleet again, not be served the failure forever.
  const bool unresolved =
      io::parse_wire_redirect(reply, &target, &epoch, &term) ||
      reply.rfind("{\"error\"", 0) == 0 ||
      (reply.rfind("{\"id\":", 0) == 0 &&
       reply.find(",\"error\":") != std::string::npos &&
       reply.find(",\"error\":") < 24);
  if (!unresolved && id >= 0) {
    if (answered_.size() >= kAnsweredCap) answered_.erase(answered_.begin());
    answered_.push_back(Answered{id, line_hash, reply});
  }
  return reply;
}

const std::string& Client::endpoint() const noexcept { return connected_; }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- serve_forever --------------------------------------------------------

int serve_forever(const ServerOptions& options, std::ostream& log) {
  Server server(options);

  cache::reload_snapshot(server.engine().cache().get(), options.cache_file,
                         log);

  try {
    server.start();
  } catch (const std::exception& e) {
    log << "error: " << e.what() << "\n";
    return 1;
  }

  net::trap_signals();
  log << "ebmf service listening on " << options.host << ":" << server.port()
      << " (threads=" << options.threads << ", cache-mb=" << options.cache_mb
      << ", max-inflight=" << options.max_inflight << ")" << std::endl;

  log << "signal " << net::await_signal() << " received, draining"
      << std::endl;
  server.stop();
  const ServerStats stats = server.stats();
  log << "served " << stats.requests << " requests, " << stats.errors
      << " errors, " << stats.rejected << " rejected, across "
      << stats.connections << " connections";
  if (server.engine().cache()) {
    const cache::CacheStats cache_stats = server.engine().cache()->stats();
    log << "; cache " << cache_stats.hits << " hits / " << cache_stats.misses
        << " misses / " << cache_stats.evictions << " evictions";
  }
  log << std::endl;

  // Snapshot the drained cache so the next start answers warm.
  cache::save_snapshot(server.engine().cache().get(), options.cache_file, log);
  return 0;
}

}  // namespace ebmf::service
