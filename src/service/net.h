#pragma once
/// \file net.h
/// \brief Socket and line-framing plumbing shared by the solver Server
/// (service.h), the blocking Client, and the sharding Router
/// (router/router.h).
///
/// The wire protocol is newline-delimited JSON over TCP; every process in
/// the topology — `ebmf serve`, `ebmf route`, `ebmf client` — needs the
/// same pieces: a listener with a pollable accept loop, a timed connect, a
/// full writer that survives partial sends, a byte buffer that frames
/// complete lines out of recv chunks, and one timed blocking exchange
/// (dial, write, read one reply) for control-plane traffic — peer sync,
/// announce, fleet scrapes.
///
/// Also here: the protocol's error-reply renderer and the `"id"` prefix
/// helpers the router uses to match pipelined backend replies to their
/// requests (responses carry the id as their first member, so the match
/// needs no full JSON parse on the hot path); the admin replies both tiers
/// answer alike; and RequestLog, their shared request close-out.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "obs/phase.h"
#include "support/logrotate.h"

namespace ebmf::io {
struct WireRequest;
}  // namespace ebmf::io

namespace ebmf::net {
struct Message;  // net/reactor.h
}  // namespace ebmf::net

namespace ebmf::service::net {

/// Throw std::runtime_error("<what>: <strerror(errno)>").
[[noreturn]] void sys_fail(const std::string& what);

/// Disable Nagle on a connected TCP socket (best-effort; every socket the
/// tree creates — accepts, tcp_connect, pool dials — goes through this).
void set_tcp_nodelay(int fd);

/// `{"error": "...", "label": "..."}` with an optional `"id"` first member
/// — the protocol's failure reply (id < 0 omits the field).
std::string error_json(const std::string& message, const std::string& label,
                       std::int64_t id = -1);

/// The Prometheus text a server or router is scraped as: the series of
/// its own registry, then the process-wide solver series
/// (obs::default_registry()).
std::string scrape_text(const obs::Registry& instance);

/// The `{"op":"metrics"}` reply: scrape_text(instance) wrapped in one JSON
/// line (the protocol is line-framed), with an optional `"id"`.
std::string metrics_reply(const obs::Registry& instance, std::int64_t id);

/// What one client message is (the intake both tiers share).
enum class Intake { Request, Upgrade, Blank, Error };

/// Parse one reactor message into `wire`: a solve frame, a JSON line or
/// type-4 frame (Request); the `{"op":"upgrade"}` line, whose ack is the
/// connection's last line-framed reply (Upgrade); a blank line (Blank); a
/// malformed message (Error, with `error` set and `wire.id` salvaged so a
/// client correlating by id still gets it echoed).
Intake parse_message(const ebmf::net::Message& message, io::WireRequest& wire,
                     std::string& error);

/// The reactor's reply to a message it cannot frame: an error line, or a
/// type-3 error frame after the upgrade.
std::string protocol_error_reply(ebmf::net::WireMode mode,
                                 const std::string& message);

/// The `ebmf serve` / `ebmf route` main loop: trap_signals() catches
/// SIGTERM and SIGINT (and ignores SIGPIPE) before the listening banner;
/// await_signal() then blocks until one arrives and returns which.
void trap_signals();
int await_signal();

/// The admission gate both tiers run: at most `limit` requests in flight
/// (0 = unlimited), mirrored into `gauge`; a refusal counts into
/// `rejected` and is answered with overloaded().
class Admission {
 public:
  Admission(std::size_t limit, obs::Gauge* gauge, obs::Counter* rejected)
      : limit_(limit), gauge_(gauge), rejected_(rejected) {}

  /// Reserve one slot (fetch_add reads the old value it adds to).
  bool try_admit() {
    if (inflight_.fetch_add(1, std::memory_order_relaxed) >= limit_ &&
        limit_ != 0) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      rejected_->add(1);
      return false;
    }
    gauge_->add(1);
    return true;
  }
  void release(std::size_t count) {
    inflight_.fetch_sub(count, std::memory_order_relaxed);
    gauge_->add(-static_cast<std::int64_t>(count));
  }
  [[nodiscard]] std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string overloaded() const {
    return "overloaded: " + std::to_string(limit_) +
           " requests already in flight";
  }

 private:
  const std::size_t limit_;
  std::atomic<std::size_t> inflight_{0};
  obs::Gauge* gauge_;
  obs::Counter* rejected_;
};

/// The `{"op":"events"}` (flight-recorder tail), `{"op":"trace"}` (one
/// trace's span tree, or an error for an unknown id) or `{"op":"traces"}`
/// (the 32 most recent) reply, as `wire.op` asks, from `traces`.
std::string observability_reply(const io::WireRequest& wire,
                                const obs::TraceStore& traces);

/// Append `"key":value` (rendered JSON) as the last member of the object
/// `json`; no-op unless `json` ends in '}'.
void append_member(std::string& json, const char* key,
                   const std::string& value);

/// The request close-out both tiers end every reply with. close() takes
/// one clock read (the batch start is the other) for the `<tier>.request`
/// root span and the `<tier>.request.micros` sample, renders the spans
/// the reply carries, and publishes the trace before the reply is written
/// (so an immediate `{"op":"trace"}` elsewhere finds it); log_slow() is
/// the one slow-line renderer.
class RequestLog {
 public:
  /// `tier` is "server" or "router"; `trace_file` / `slow_log` open when
  /// set (a failure is reported on stderr; slow lines then go there).
  RequestLog(const char* tier, obs::Registry& registry,
             const std::string& trace_file, const std::string& slow_log,
             double slow_ms);

  obs::TraceStore traces{128};  ///< Completed traces (op:trace/op:traces).

  struct Closed {
    double seconds = 0.0;          ///< Since the batch started.
    bool slow = false;             ///< A counted request past --slow-ms.
    std::string trace_hex;         ///< Empty when untraced.
    std::string spans_json;        ///< The spans array the reply carries.
    std::vector<obs::Span> spans;  ///< Kept for a slow line only.

    /// Append `"trace":{"id":...,"spans":[...]}` (no-op untraced).
    void splice_into(std::string& reply) const;
  };

  /// Close a request of the batch started at `start`: its recorder (null
  /// untraced), root span id and the remote span the root parents under.
  /// Only `counted` requests (answered solves and errors) feed the
  /// histogram and can be slow.
  Closed close(obs::TraceRecorder* trace, std::uint64_t root_span,
               std::uint64_t parent, obs::Phase::Clock::time_point start,
               bool counted);

  /// Publish spans recorded after close() or outside any request.
  void publish(obs::TraceRecorder& trace);

  /// A slow line's tier-specific content.
  struct SlowLine {
    std::string_view strategy{}, label{}, canon_key{};
    /// Extra members (router: backend, failovers), values rendered JSON.
    std::vector<std::pair<const char*, std::string>> extra{};
    /// The per-phase breakdown: report timings (server), or — when null —
    /// the request's span durations (router).
    const std::vector<obs::PhaseTiming>* timings = nullptr;
  };

  /// One slow-request JSON line (tier, ms, strategy, label, trace id,
  /// canonical key, extras, per-phase breakdown, flight-recorder tail) —
  /// enough to pull the span tree or find the pattern in the cache — to
  /// --slow-log (size-rotated) or stderr.
  void log_slow(const Closed& closed, const SlowLine& line);

  void flush();  ///< Drain hook: slow log and trace file.

 private:
  const char* tier_;
  std::string root_span_;
  obs::Histogram* request_micros_;
  double slow_ms_;
  RotatingFile slow_file_;
};

/// Send `bytes` (a framed line or a whole binary frame) fully, through the
/// fault-injection write seams; false when the peer is gone (errno is left
/// describing the failure).
bool write_all(int fd, const std::string& bytes);

/// write_all(line + '\n').
bool write_line(int fd, std::string line);

/// The non-empty entries of a comma-separated list (--announce,
/// --backends, --peers, --connect), in order.
std::vector<std::string> split_list(const std::string& text);

/// Split "host:port" (port 1..65535). False on malformed input.
bool parse_endpoint(const std::string& text, std::string& host,
                    std::uint16_t& port);

/// Connect to "host:port" within `timeout_s` (<= 0: no limit), polling in
/// 50 ms slices so a set `*stop` abandons the dial promptly. Goes through
/// the EBMF_FAULT connect seam. Returns a blocking TCP_NODELAY fd, or -1
/// with errno describing the failure.
int dial(const std::string& endpoint, double timeout_s,
         const std::atomic<bool>* stop = nullptr);

/// dial() without a time limit; returns the fd or throws
/// std::runtime_error (errno text).
int tcp_connect(const std::string& host, std::uint16_t port);

/// If `line` is an object whose first member is `"id": <uint>`, extract the
/// id and rewrite `line` without it (`{"id":7,"x":1}` -> `{"x":1}`). False
/// (line untouched) when there is no id prefix.
bool strip_id_prefix(std::string& line, std::uint64_t& id);

/// Splice `"id": id` in as the first member of a rendered JSON object
/// (id < 0 returns the line unchanged).
std::string with_id_prefix(const std::string& line, std::int64_t id);

/// Wrap one JSON line in the given framing: '\n'-terminated on a line
/// connection, a type-4 JSON frame after the upgrade.
std::string framed_json(ebmf::net::WireMode mode, const std::string& line);

/// Frames complete '\n'-terminated lines (CR trimmed) out of appended
/// chunks.
class LineBuffer {
 public:
  void append(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Pop the next complete line; false when none is buffered.
  bool pop(std::string& line);

  /// Hand back every buffered byte verbatim (a protocol switch: what
  /// follows the upgrade ack is frames, not lines).
  std::string release() { return std::exchange(buffer_, {}); }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Outcome of a timed read.
enum class Read { Ok, Timeout, Closed };

/// Wait up to `timeout_s` (<= 0: no limit) for bytes on `fd` and append
/// one recv's worth to `out`. Closed on EOF or a socket error.
Read recv_some(int fd, std::string& out, double timeout_s = 0.0);

/// Block up to `timeout_s` (<= 0: no limit) for one whole '\n'-terminated
/// line on `fd`, framed through `buffer` (bytes past the line stay
/// there). An unterminated tail at EOF is Closed, never a line: a reply
/// torn by a dying peer must not pass for a whole one.
Read read_line(int fd, LineBuffer& buffer, std::string& line,
               double timeout_s = 0.0);

/// The timed blocking exchange: dial `endpoint`, send `line`, and read one
/// reply line, each step within `timeout_s`. nullopt when the peer is
/// unreachable, hung up, or stayed silent.
std::optional<std::string> call(const std::string& endpoint,
                                const std::string& line, double timeout_s,
                                const std::atomic<bool>* stop = nullptr);

/// A bound, listening IPv4 socket with a poll-based accept step — the
/// accept-loop shape both Server and Router run (poll with a timeout so the
/// loop can reap finished workers and notice stop()).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { close(); }

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind + listen. Throws std::runtime_error (errno text) when the
  /// address is unusable. Port 0 binds an ephemeral port; port() reports
  /// the resolved one.
  void listen(const std::string& host, std::uint16_t port);

  /// Poll for a pending connection up to `timeout_ms`, then accept it.
  /// Returns the connection fd, or -1 when nothing arrived (timeout,
  /// EINTR, or the listener was shut down).
  int accept_ready(int timeout_ms);

  /// Wake any accept_ready() poll and refuse further connections (stop()
  /// path; close() releases the fd).
  void shutdown_now();

  void close();

  [[nodiscard]] bool listening() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace ebmf::service::net
