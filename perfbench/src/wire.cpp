#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common.h"

namespace perfbench {

Connection::Connection(std::uint16_t port, Wire wire) : wire_(wire) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw BenchError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw BenchError("connect to port " + std::to_string(port) + ": " + why);
  }
  if (wire == Wire::Binary) {
    // The upgrade ack is the last line-protocol message on the connection.
    wire_ = Wire::Line;
    try {
      const std::string ack = round_trip("{\"op\":\"upgrade\"}\n", 10.0);
      if (ack.find("\"upgraded\":true") == std::string::npos)
        throw BenchError("upgrade refused: " + ack);
    } catch (...) {
      ::close(fd_);
      throw;
    }
    wire_ = Wire::Binary;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw BenchError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Connection::extract(std::string* reply) {
  if (wire_ == Wire::Binary) {
    ebmf::net::Frame frame;
    switch (frames_.pop(&frame)) {
      case ebmf::net::FrameBuffer::Pop::NeedMore:
        return false;
      case ebmf::net::FrameBuffer::Pop::Bad:
        throw BenchError("malformed reply frame: " + frames_.error());
      case ebmf::net::FrameBuffer::Pop::Ok:
        break;
    }
    reply->clear();
    ebmf::net::append_frame(*reply, frame.type, frame.payload);
    return true;
  }
  const std::size_t nl = lines_.find('\n', consumed_);
  if (nl == std::string::npos) return false;
  reply->assign(lines_, consumed_, nl - consumed_);
  consumed_ = nl + 1;
  if (consumed_ == lines_.size()) {
    lines_.clear();
    consumed_ = 0;
  }
  return true;
}

bool Connection::read_reply(std::string* reply) {
  if (extract(reply)) return true;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      if (wire_ == Wire::Binary)
        frames_.append(chunk, static_cast<std::size_t>(n));
      else
        lines_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) throw BenchError("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    throw BenchError(std::string("recv: ") + std::strerror(errno));
  }
  return extract(reply);
}

std::string Connection::round_trip(const std::string& bytes,
                                   double timeout_s) {
  send(bytes);
  const std::int64_t start = now_ns();
  std::string reply;
  while (!read_reply(&reply)) {
    const double left = timeout_s - seconds_since(start);
    if (left <= 0) throw BenchError("no reply within timeout");
    pollfd p{fd_, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
  }
  return reply;
}

std::string stats_line(std::uint16_t port) {
  Connection conn(port, Wire::Line);
  return conn.round_trip("{\"op\":\"stats\"}\n", 10.0);
}

}  // namespace perfbench
