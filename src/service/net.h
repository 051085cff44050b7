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
/// needs no full JSON parse on the hot path).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "net/frame.h"

namespace ebmf::obs {
class Registry;
}  // namespace ebmf::obs

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

/// Send `bytes` (a framed line or a whole binary frame) fully, through the
/// fault-injection write seams; false when the peer is gone (errno is left
/// describing the failure).
bool write_all(int fd, const std::string& bytes);

/// write_all(line + '\n').
bool write_line(int fd, std::string line);

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
