#pragma once
/// \file wire.h
/// \brief A minimal loopback client for the fleet's two wire protocols,
/// written against the protocol (one JSON line per message, or 8-byte
/// length-prefixed frames after `{"op":"upgrade"}`) rather than against the
/// program's own client classes, so the benchmark drives the shipped
/// binaries exactly as any other client would.

#include <cstdint>
#include <string>

#include "net/frame.h"

namespace perfbench {

enum class Wire { Line, Binary };

class Connection {
 public:
  static constexpr std::size_t kMaxFramePayload = 64u << 20;

  /// Connect to 127.0.0.1:`port`; a Binary connection negotiates the frame
  /// protocol before returning. Throws BenchError on failure.
  Connection(std::uint16_t port, Wire wire);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Write every byte (blocking).
  void send(const std::string& bytes);

  /// Read what the socket has without blocking; when a complete reply is
  /// buffered, move it into `reply` (a line without its newline, or a whole
  /// frame with its header) and return true. Throws on EOF or error.
  bool read_reply(std::string* reply);

  /// Blocking send + wait for one reply, `timeout_s` at most.
  std::string round_trip(const std::string& bytes, double timeout_s = 30.0);

 private:
  bool extract(std::string* reply);

  int fd_ = -1;
  Wire wire_;
  std::string lines_;        ///< Received line-protocol bytes.
  std::size_t consumed_ = 0;  ///< Of lines_.
  ebmf::net::FrameBuffer frames_{kMaxFramePayload};
};

/// One `{"op":"stats"}` round trip on a fresh line connection.
std::string stats_line(std::uint16_t port);

}  // namespace perfbench
