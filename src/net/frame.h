#pragma once
/// \file frame.h
/// \brief The length-prefixed binary frame layer of the wire protocol.
///
/// A connection starts in the line-JSON protocol and may switch to frames
/// by sending exactly `{"op":"upgrade"}` (or `{"id":N,"op":"upgrade"}`) as
/// one line; the ack is a JSON line, everything after it is frames. Each
/// frame is an 8-byte little-endian header followed by the payload:
///
/// ```
///   offset 0  u32  payload_len   (1 .. max_payload; 0 is malformed)
///   offset 4  u8   type          (1 = solve request, 2 = solve report,
///                                 3 = error, 4 = JSON passthrough)
///   offset 5  u8   version       (= 1)
///   offset 6  u16  reserved      (= 0)
/// ```
///
/// Payload encodings for types 1–3 live in io/binary_io.h; a type-4 frame
/// carries one JSON request or reply line verbatim (no trailing newline),
/// so every admin verb and masked pattern rides the binary connection
/// unchanged. FrameBuffer is the incremental decoder: append bytes as they
/// arrive, pop complete frames, and surface malformed input (bad version,
/// unknown type, zero-length or oversized payload) as a hard protocol
/// error — the connection is not recoverable after one.

#include <cstddef>
#include <cstdint>
#include <string>

namespace ebmf::net {

/// Which framing a message arrived under (and its reply should use).
enum class WireMode { Line, Binary };

inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::uint8_t kFrameVersion = 1;

inline constexpr std::uint8_t kFrameSolveRequest = 1;
inline constexpr std::uint8_t kFrameSolveReport = 2;
inline constexpr std::uint8_t kFrameError = 3;
inline constexpr std::uint8_t kFrameJson = 4;

/// One decoded frame.
struct Frame {
  std::uint8_t type = 0;
  std::string payload;
};

/// A parsed frame header.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t type = 0;
};

/// Parse and validate the 8 bytes at `data` (caller guarantees the size).
/// False + `error` on a malformed header (bad version, unknown type,
/// zero-length or > `max_payload` payload) — a terminal protocol error.
bool parse_frame_header(const char* data, std::size_t max_payload,
                        FrameHeader* header, std::string* error);

/// Render a frame (header + payload) onto `out`.
void append_frame(std::string& out, std::uint8_t type,
                  const std::string& payload);

/// A complete frame as one string (convenience over append_frame).
[[nodiscard]] std::string encode_frame(std::uint8_t type,
                                       const std::string& payload);

/// Incremental frame decoder over a byte stream.
class FrameBuffer {
 public:
  enum class Pop {
    Ok,        ///< `frame` holds the next complete frame.
    NeedMore,  ///< No complete frame buffered yet.
    Bad,       ///< Malformed header; `error()` says why. Terminal.
  };

  /// `max_payload` mirrors the line protocol's max_line_bytes bound.
  explicit FrameBuffer(std::size_t max_payload) : max_payload_(max_payload) {}

  /// Feed bytes as they arrive off the socket.
  void append(const char* data, std::size_t size) {
    buffer_.append(data, size);
  }

  /// Pop the next complete frame. After Bad, every later call returns Bad.
  Pop pop(Frame* frame);

  /// Bytes buffered but not yet consumed.
  [[nodiscard]] std::size_t pending() const noexcept {
    return buffer_.size() - consumed_;
  }

  /// Diagnosis of the first malformed header ("" until Bad).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  // compacted away once it grows past the data
  std::size_t max_payload_;
  std::string error_;
  bool bad_ = false;
};

}  // namespace ebmf::net
