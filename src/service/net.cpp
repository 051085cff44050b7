// Shared socket + line-framing plumbing for the server, client, and router,
// the one timed blocking exchange the control plane uses, the admin replies
// both tiers answer alike, and the request close-out both tiers share.

#include "service/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "io/binary_io.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/reactor.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "support/fault.h"

namespace ebmf::service::net {

void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_tcp_nodelay(int fd) {
  // The protocol is small pipelined request/reply lines and frames; Nagle
  // would stall every micro-batched reply behind the previous ACK. Failure
  // is ignored: fd may be a pipe/socketpair in tests.
  const int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
}

std::string error_json(const std::string& message, const std::string& label,
                       std::int64_t id) {
  std::string out = "{";
  if (id >= 0) out += "\"id\":" + std::to_string(id) + ",";
  out += "\"error\":\"" + io::json::escape(message) + "\"";
  if (!label.empty()) out += ",\"label\":\"" + io::json::escape(label) + "\"";
  out += "}";
  return out;
}

std::string scrape_text(const obs::Registry& instance) {
  return obs::prometheus_text(instance) +
         obs::prometheus_text(obs::default_registry());
}

std::string metrics_reply(const obs::Registry& instance, std::int64_t id) {
  return with_id_prefix(
      "{\"metrics\":true,\"content_type\":\"text/plain; version=0.0.4\","
      "\"body\":\"" + io::json::escape(scrape_text(instance)) + "\"}",
      id);
}

Intake parse_message(const ebmf::net::Message& message, io::WireRequest& wire,
                     std::string& error) {
  const bool binary = message.mode == ebmf::net::WireMode::Binary;
  const bool solve_frame =
      binary && message.frame_type == ebmf::net::kFrameSolveRequest;
  try {
    if (message.upgrade) {
      wire.id = io::salvage_request_id(message.payload);
      return Intake::Upgrade;
    }
    if (solve_frame) {
      wire = io::parse_binary_request(message.payload);
      return Intake::Request;
    }
    if (binary && message.frame_type != ebmf::net::kFrameJson) {
      error = "unexpected frame type " + std::to_string(message.frame_type) +
              " (clients send solve or json frames)";
      return Intake::Error;
    }
    if (message.payload.find_first_not_of(" \t") == std::string::npos)
      return Intake::Blank;
    wire = io::parse_wire_request(message.payload);
    return Intake::Request;
  } catch (const std::exception& e) {
    error = e.what();
    wire.id = solve_frame ? io::binary_salvage_id(message.payload)
                          : io::salvage_request_id(message.payload);
    return Intake::Error;
  }
}

std::string protocol_error_reply(ebmf::net::WireMode mode,
                                 const std::string& message) {
  if (mode == ebmf::net::WireMode::Line) return error_json(message, "") + "\n";
  return ebmf::net::encode_frame(ebmf::net::kFrameError,
                                 io::binary_error_payload(-1, message, ""));
}

namespace {
volatile std::sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }
}  // namespace

void trap_signals() {
  g_signal = 0;
  struct sigaction action{};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // all writers already use MSG_NOSIGNAL
}

int await_signal() {
  while (g_signal == 0) {
    timespec nap{0, 100 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
  return g_signal;
}

std::string observability_reply(const io::WireRequest& wire,
                                const obs::TraceStore& traces) {
  if (wire.op == io::WireOp::Trace) {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    obs::parse_trace_id(wire.trace_id, &hi, &lo);
    const std::vector<obs::Span> spans = traces.find(hi, lo);
    return spans.empty() ? error_json("unknown trace id", "", wire.id)
                         : obs::trace_tree_json(wire.trace_id, spans);
  }
  std::ostringstream reply;
  if (wire.op == io::WireOp::Events) {
    reply << "{\"events\":" << obs::events_json(obs::snapshot_events())
          << "}";
  } else {
    reply << "{\"traces\":[";
    const std::vector<obs::TraceStore::Summary> recent = traces.recent(32);
    for (std::size_t t = 0; t < recent.size(); ++t) {
      if (t != 0) reply << ",";
      reply << "{\"id\":\"" << recent[t].id << "\",\"root\":\""
            << io::json::escape(recent[t].root)
            << "\",\"dur_us\":" << recent[t].dur_us
            << ",\"spans\":" << recent[t].spans << "}";
    }
    reply << "]}";
  }
  return with_id_prefix(reply.str(), wire.id);
}

void append_member(std::string& json, const char* key,
                   const std::string& value) {
  if (json.empty() || json.back() != '}') return;
  json.pop_back();
  json.append(",\"").append(key).append("\":").append(value).push_back('}');
}

RequestLog::RequestLog(const char* tier, obs::Registry& registry,
                       const std::string& trace_file,
                       const std::string& slow_log, double slow_ms)
    : tier_(tier),
      root_span_(std::string(tier) + ".request"),
      request_micros_(registry.histogram(root_span_ + ".micros")),
      slow_ms_(slow_ms) {
  std::string error;
  if (!trace_file.empty() && !traces.set_file(trace_file, &error))
    std::fprintf(stderr, "trace-file: %s\n", error.c_str());
  if (!slow_log.empty() && !slow_file_.open(slow_log, &error))
    std::fprintf(stderr, "slow-log: %s, logging to stderr\n", error.c_str());
}

void RequestLog::Closed::splice_into(std::string& reply) const {
  if (!trace_hex.empty())
    append_member(reply, "trace",
                  "{\"id\":\"" + trace_hex + "\",\"spans\":" + spans_json +
                      "}");
}

RequestLog::Closed RequestLog::close(obs::TraceRecorder* trace,
                                     std::uint64_t root_span,
                                     std::uint64_t parent,
                                     obs::Phase::Clock::time_point start,
                                     bool counted) {
  Closed out;
  obs::Phase({.seconds = &out.seconds,
              .histogram = counted ? request_micros_ : nullptr,
              .trace = trace, .span = root_span_.c_str(),
              .parent = parent, .span_id = root_span},
             start).end();
  out.slow = counted && slow_ms_ > 0 && out.seconds * 1e3 >= slow_ms_;
  if (trace != nullptr) {
    const obs::TraceContext& ctx = trace->context();
    out.trace_hex = obs::trace_id_hex(ctx.hi, ctx.lo);
    std::vector<obs::Span> spans = trace->take();
    out.spans_json = obs::spans_json(spans);
    if (out.slow) out.spans = spans;
    traces.add(ctx.hi, ctx.lo, std::move(spans));
  }
  return out;
}

void RequestLog::publish(obs::TraceRecorder& trace) {
  const obs::TraceContext& ctx = trace.context();
  traces.add(ctx.hi, ctx.lo, trace.take());
}

void RequestLog::log_slow(const Closed& closed, const SlowLine& fields) {
  std::ostringstream line;
  line << "{\"slow\":true,\"tier\":\"" << tier_
       << "\",\"ms\":" << io::json::number(closed.seconds * 1e3);
  const auto member = [&line](const char* key, std::string_view value) {
    if (!value.empty())
      line << ",\"" << key << "\":\"" << io::json::escape(std::string(value))
           << "\"";
  };
  member("strategy", fields.strategy);
  member("label", fields.label);
  member("trace", closed.trace_hex);
  member("canon_key", fields.canon_key);
  for (const auto& [key, value] : fields.extra)
    line << ",\"" << key << "\":" << value;
  if (fields.timings != nullptr) {
    line << ",\"timings\":{";
    for (std::size_t i = 0; i < fields.timings->size(); ++i) {
      const obs::PhaseTiming& timing = (*fields.timings)[i];
      line << (i == 0 ? "\"" : ",\"") << io::json::escape(timing.phase)
           << "\":" << io::json::number(timing.seconds);
    }
    line << "}";
  } else if (!closed.spans.empty()) {
    line << ",\"spans\":{";
    for (std::size_t i = 0; i < closed.spans.size(); ++i)
      line << (i == 0 ? "\"" : ",\"") << io::json::escape(closed.spans[i].name)
           << "\":" << closed.spans[i].dur_us;
    line << "}";
  }
  // The flight recorder's tail: what the solvers (restarts, waves,
  // incumbents) or the router (pool reconnects) were doing in the run-up.
  line << ",\"events\":" << obs::events_json(obs::snapshot_events(32))
       << "}";
  if (slow_file_.is_open())
    slow_file_.write_line(line.str());
  else  // one locked stdio call per line: lines never interleave
    std::fprintf(stderr, "%s\n", line.str().c_str());
}

void RequestLog::flush() {
  slow_file_.flush();
  traces.flush();
}

bool write_all(int fd, const std::string& bytes) {
  // Fault-injection seam: a drill can stall the write, drop it outright, or
  // tear it mid-message (send a prefix, then shoot the connection) so peers
  // see the same half-open/partial-frame failures a flaky network produces.
  fault::maybe_delay();
  if (fault::should_drop_write()) {
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  const std::size_t limit = fault::maybe_tear(bytes.size());
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  if (limit < bytes.size()) {  // torn: the peer never sees the whole
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  return true;
}

bool write_line(int fd, std::string line) {
  line += '\n';
  return write_all(fd, line);
}

int dial(const std::string& endpoint, double timeout_s,
         const std::atomic<bool>* stop) {
  std::string host;
  std::uint16_t port = 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (!parse_endpoint(endpoint, host, port) ||
      ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  addr.sin_port = htons(port);
  if (fault::should_drop_connect()) {
    errno = ECONNREFUSED;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const auto fail = [fd](int error) {
    ::close(fd);
    errno = error;
    return -1;
  };
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) return fail(errno);
    // Poll in slices so a stop flag lands within ~50 ms even against an
    // unroutable peer, instead of after the kernel's SYN timeout.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (true) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed))
        return fail(ECANCELED);
      if (timeout_s > 0 && std::chrono::steady_clock::now() >= deadline)
        return fail(ETIMEDOUT);
      pollfd waiter{fd, POLLOUT, 0};
      const int ready = ::poll(&waiter, 1, 50);
      if (ready < 0 && errno != EINTR) return fail(errno);
      if (ready <= 0) continue;
      int error = 0;
      socklen_t length = sizeof error;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0)
        return fail(errno);
      if (error != 0) return fail(error);
      break;
    }
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
  set_tcp_nodelay(fd);
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  const std::string endpoint = host + ":" + std::to_string(port);
  const int fd = dial(endpoint, 0.0);
  if (fd < 0) sys_fail("connect " + endpoint);
  return fd;
}

Read recv_some(int fd, std::string& out, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  char chunk[16384];
  while (true) {
    if (timeout_s > 0) {  // untimed reads block in recv itself
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return Read::Timeout;
      pollfd waiter{fd, POLLIN, 0};
      const int ready = ::poll(&waiter, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno != EINTR) return Read::Closed;
      if (ready <= 0) continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      return Read::Ok;
    }
    if (n == 0 || (errno != EINTR && errno != EAGAIN)) return Read::Closed;
  }
}

Read read_line(int fd, LineBuffer& buffer, std::string& line,
               double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::string bytes;
  while (!buffer.pop(line)) {
    const double left =
        timeout_s > 0 ? std::chrono::duration<double>(
                            deadline - std::chrono::steady_clock::now())
                            .count()
                      : 0.0;
    if (timeout_s > 0 && left <= 0) return Read::Timeout;
    bytes.clear();
    const Read got = recv_some(fd, bytes, left);
    if (got != Read::Ok) return got;
    buffer.append(bytes.data(), bytes.size());
  }
  return Read::Ok;
}

std::optional<std::string> call(const std::string& endpoint,
                                const std::string& line, double timeout_s,
                                const std::atomic<bool>* stop) {
  const int fd = dial(endpoint, timeout_s, stop);
  if (fd < 0) return std::nullopt;
  // A stuck peer must not wedge the caller on a full send buffer either.
  timeval window{};
  window.tv_sec = static_cast<time_t>(timeout_s);
  window.tv_usec = static_cast<suseconds_t>(
      (timeout_s - static_cast<double>(window.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &window, sizeof window);
  LineBuffer buffer;
  std::string reply;
  const bool answered =
      write_line(fd, line) &&
      read_line(fd, buffer, reply, timeout_s) == Read::Ok;
  ::close(fd);
  if (!answered) return std::nullopt;
  return reply;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t start = 0, comma = 0; start <= text.size();
       start = comma + 1) {
    comma = std::min(text.find(',', start), text.size());
    if (comma > start) out.push_back(text.substr(start, comma - start));
  }
  return out;
}

bool parse_endpoint(const std::string& text, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size())
    return false;
  const std::string port_text = text.substr(colon + 1);
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || value == 0 || value > 65535)
    return false;
  host = text.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
}

bool strip_id_prefix(std::string& line, std::uint64_t& id) {
  static constexpr char kPrefix[] = "{\"id\":";
  constexpr std::size_t kPrefixLen = sizeof kPrefix - 1;
  if (line.rfind(kPrefix, 0) != 0) return false;
  std::size_t pos = kPrefixLen;
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
  std::uint64_t value = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  if (pos >= line.size()) return false;
  std::string rest;
  rest.reserve(line.size());
  rest += '{';
  if (line[pos] == ',') {
    rest.append(line, pos + 1, std::string::npos);
  } else if (line[pos] == '}') {
    rest.append(line, pos, std::string::npos);  // only member -> "{}"
  } else {
    return false;
  }
  line = std::move(rest);
  id = value;
  return true;
}

std::string with_id_prefix(const std::string& line, std::int64_t id) {
  if (id < 0 || line.empty() || line.front() != '{') return line;
  const std::string prefix = "{\"id\":" + std::to_string(id);
  if (line.size() >= 2 && line[1] == '}')  // "{}"
    return prefix + "}";
  return prefix + "," + line.substr(1);
}

std::string framed_json(ebmf::net::WireMode mode, const std::string& line) {
  if (mode == ebmf::net::WireMode::Line) return line + "\n";
  return ebmf::net::encode_frame(ebmf::net::kFrameJson, line);
}

bool LineBuffer::pop(std::string& line) {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return false;
  line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

void TcpListener::listen(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) sys_fail("socket");
  const int yes = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("bad bind address '" + host + "'");
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    sys_fail("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    sys_fail("listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

int TcpListener::accept_ready(int timeout_ms) {
  if (fd_ < 0) return -1;
  pollfd waiter{fd_, POLLIN, 0};
  const int ready = ::poll(&waiter, 1, timeout_ms);
  if (ready <= 0) return -1;
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn >= 0) set_tcp_nodelay(conn);
  return conn;
}

void TcpListener::shutdown_now() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ebmf::service::net
