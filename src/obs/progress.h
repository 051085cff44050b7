#pragma once
/// \file progress.h
/// \brief Live solve progress (`ebmf::obs`): the `ProgressSink` a strategy
/// publishes `{incumbent_depth, lower_bound, gap, conflicts, wave}` frames
/// into mid-solve, and watchers subscribe to.
///
/// The sink travels inside `Budget` (support/budget.h), so every backend
/// that already honours the shared budget can publish without new plumbing:
/// the anytime `local` strategy publishes on every improving incumbent, the
/// SAP bound race on every wave. The server registers the sink of each
/// in-flight request under its wire id; `{"op":"watch","id":N}` subscribes
/// a connection and pushes one JSONL frame per publish, then a done line
/// from finish() — no thread per watcher.
///
/// Publishing never blocks the solver: listeners are invoked inline under
/// the sink mutex, but the server-side listener only enqueues onto the
/// watcher's reactor write queue and drops frames a slow watcher can't
/// absorb — a closed subscriber costs the solver one failed enqueue, after
/// which the listener unregisters itself.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ebmf::obs {

/// One point of an in-flight solve's trajectory.
struct ProgressFrame {
  std::uint64_t seq = 0;          ///< Publish ordinal (assigned by the sink).
  double seconds = 0.0;           ///< Wall-clock offset from solve start.
  std::uint64_t incumbent_depth = 0;  ///< Best valid depth so far (0 = none).
  std::uint64_t lower_bound = 0;      ///< Best certified lower bound.
  std::uint64_t gap = 0;          ///< incumbent_depth - lower_bound (0 floor).
  std::uint64_t conflicts = 0;    ///< SAT conflicts so far (0 when n/a).
  std::uint64_t wave = 0;         ///< Bound-race wave ordinal (0 when n/a).
  std::string phase;              ///< "seed", "search", "wave", ...
};

/// Render one frame as a JSON object (the watch stream's line body).
[[nodiscard]] std::string progress_frame_json(const ProgressFrame& frame);

/// Thread-safe frame buffer + fan-out. One per in-flight solve; shared by
/// shared_ptr between the publishing strategy (via Budget) and watchers.
class ProgressSink {
 public:
  /// Frames retained for late subscribers (the newest kKeep).
  static constexpr std::size_t kKeep = 256;

  /// Called with each frame, in seq order. Return false to unsubscribe
  /// (e.g. the watcher's socket died). Runs under the sink lock, so it
  /// must not block and must not call back into the sink.
  using Listener = std::function<bool(const ProgressFrame&)>;

  /// Called once when the solve finishes, with the total frames ever
  /// published. Same rules as Listener.
  using DoneListener = std::function<void(std::uint64_t published)>;

  /// Stamp `seq`, retain the frame, and fan it out to live listeners.
  void publish(ProgressFrame frame);

  /// Mark the solve finished and call every subscriber's DoneListener
  /// (dropping all subscriptions). Idempotent.
  void finish();

  [[nodiscard]] bool finished() const;

  /// Frames retained so far, oldest first.
  [[nodiscard]] std::vector<ProgressFrame> frames() const;

  /// The newest frame (default-constructed when none published yet).
  [[nodiscard]] ProgressFrame last() const;

  /// Total frames ever published.
  [[nodiscard]] std::uint64_t published() const;

  /// Under one hold of the sink lock: replay the retained frames to
  /// `listener`, then register it for every later publish — so a
  /// subscriber racing a publisher sees contiguous `seq` values. A sink
  /// already finished calls `on_done` at once and registers nothing.
  /// Returns a token for unsubscribe() (0 when nothing was registered).
  std::uint64_t subscribe(Listener listener, DoneListener on_done = {});
  void unsubscribe(std::uint64_t token);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_ = make_impl();
  static std::shared_ptr<Impl> make_impl();
};

using ProgressSinkPtr = std::shared_ptr<ProgressSink>;

}  // namespace ebmf::obs
