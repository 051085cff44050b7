#pragma once
/// \file pool.h
/// \brief Persistent, pipelined connections to one `ebmf serve` backend,
/// with id-matched replies, health state, and exponential-backoff
/// reconnect — the router's transport layer.
///
/// Every request the router forwards carries a router-assigned `"id"`; the
/// backend echoes it in the reply (the first member of a JSON reply, a
/// field of a binary one). A pool keeps a small set of long-lived
/// connections to its backend, each with a dedicated reader thread:
/// submit() registers the id in the connection's pending map and writes
/// the frame (many client threads pipeline over one connection — the
/// backend answers a connection in request order, but the id match makes
/// the pool indifferent to order). The reader completes the matching
/// PendingReply as each reply arrives.
///
/// Wire: each fresh connection negotiates the frame protocol with
/// `{"op":"upgrade"}` (bounded ack wait) before it carries anything. A
/// backend that declines, or never acks, is a failed connect under
/// backoff. Dense solves ride type-1 frames; every JSON payload (puts,
/// masked passthroughs, watches) rides a type-4 frame.
///
/// Streams: a PendingReply with a `stream` callback (a watch relay) stays
/// registered across replies until the callback ends it. Streams ride one
/// extra connection of their own, the stream lane: the backend answers a
/// connection one batch at a time, so a watch sent behind the solve it
/// watches would wait for that solve to finish.
///
/// Failure semantics: when a connection breaks (EOF, reset, write error),
/// every reply pending *on that connection* is failed immediately — the
/// waiting router threads fail over to the next backend in the HRW order,
/// and each stream hears the break once — and the pool goes into backoff.
/// maintain() (called by the router's health thread, and opportunistically
/// by submit()) retries the connect with exponential backoff; first
/// success marks the backend alive and the ring re-includes it for its own
/// keys.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace ebmf::obs {
class Registry;
}  // namespace ebmf::obs

namespace ebmf::router {

/// One awaited backend response. wait() blocks until the reply arrives,
/// the connection carrying it dies, or the timeout expires.
struct PendingReply {
  /// Outcome of one wait: the caller's next move.
  enum class Outcome {
    Reply,    ///< `line` holds the backend's response (id stripped).
    Broken,   ///< The connection died first — fail over and resubmit.
    TimedOut  ///< No reply within the window — treat as backend failure.
  };

  /// Block up to `seconds` (<= 0 waits forever).
  Outcome wait(double seconds);

  /// True when a reply landed (post-timeout double check: a response that
  /// raced the give-up must be served, not re-solved).
  bool has_reply();

  /// Re-arm for a resubmit after Broken/TimedOut.
  void reset();

  // Written by the pool reader under `mutex`.
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool broken = false;
  /// The reply: a type-4 JSON frame's line with the id prefix stripped
  /// (frame_type 0), or a raw type-2/3 frame payload the caller decodes
  /// with io/binary_io.h.
  std::uint8_t frame_type = 0;
  std::string line;

  /// Set before submit() to make this a stream registration: the pool's
  /// reader calls it with each reply line (id prefix stripped) and keeps
  /// the id registered while it returns true; a connection break calls it
  /// once with nullptr. wait() is never used on a stream.
  std::function<bool(const std::string* line)> stream;
};

using PendingPtr = std::shared_ptr<PendingReply>;

/// Pool knobs (router options map 1:1; tests shrink the backoff).
struct PoolOptions {
  std::size_t connections = 1;     ///< Pipelined sockets (plus the lane).
  double backoff_base_ms = 50.0;   ///< First reconnect delay after a break.
  double backoff_max_ms = 2000.0;  ///< Backoff ceiling (doubling).
};

/// Point-in-time pool counters, read from the pool's registry series.
struct PoolStats {
  bool alive = false;            ///< At least one live connection.
  std::uint64_t requests = 0;    ///< Frames submitted.
  std::uint64_t failures = 0;    ///< Connection-level breaks observed.
  std::size_t inflight = 0;      ///< Replies currently pending.
};

/// Connections to one backend. Thread-safe: submit() may be called from
/// every router worker thread concurrently.
class BackendPool {
 public:
  /// The pool counts into `registry` (which must outlive it) as
  /// `router.pool.<host:port>.dispatches` and `...failures`.
  BackendPool(std::string host, std::uint16_t port, PoolOptions options,
              obs::Registry& registry);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// "host:port" — the ring id and the telemetry name.
  [[nodiscard]] const std::string& endpoint() const noexcept;

  [[nodiscard]] bool alive() const noexcept;

  /// Register `pending` under `id` and write `frame` (complete frame
  /// bytes that already carry the id) on a live connection — the stream
  /// lane when `pending->stream` is set. False when the backend is down
  /// right now — the caller fails over; no partial registration survives
  /// a failed submit.
  bool submit(std::uint64_t id, const std::string& frame,
              const PendingPtr& pending);

  /// Drop a registration whose waiter gave up (timeout): a late reply for
  /// the id is then discarded instead of completing a dead slot.
  void forget(std::uint64_t id);

  /// Health step: join finished readers and, when down and past the
  /// backoff, attempt one reconnect. Called periodically and from a
  /// failed submit.
  void maintain();

  /// Close every connection (pending replies fail) and join the readers.
  void shutdown();

  [[nodiscard]] PoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ebmf::router
