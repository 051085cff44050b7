#pragma once
/// \file phase.h
/// \brief One scope per timed phase (`ebmf::obs::Phase`): it reads the
/// steady clock once at entry and once at exit, and from those two reads
/// feeds every sink it was given — the report's per-phase timing (merged
/// by name), a span in the request's trace, a latency histogram, a seconds
/// slot. The engine's stages, the strategies' Table-1 phases, the cache
/// lookup series and every span of the serve and route tiers use it. A
/// phase whose only sink is a span on an untraced request (a null
/// recorder) is inert: no clock read, nothing recorded.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ebmf::obs {

/// Wall-clock spent in one named phase of a solve.
struct PhaseTiming {
  std::string phase;
  double seconds = 0.0;
};

/// Accumulate `seconds` under `phase`: a repeated name adds into its
/// entry, a new one appends (first-recorded order is kept).
inline void add_timing(std::vector<PhaseTiming>& timings,
                       const std::string& phase, double seconds) {
  for (PhaseTiming& timing : timings)
    if (timing.phase == phase) {
      timing.seconds += seconds;
      return;
    }
  timings.push_back(PhaseTiming{phase, seconds});
}

/// Where one phase's interval goes; every sink is optional.
struct PhaseSinks {
  std::vector<PhaseTiming>* timings = nullptr;  ///< Merged under `timing`.
  const char* timing = nullptr;
  double* seconds = nullptr;       ///< Assigned the elapsed seconds.
  Histogram* histogram = nullptr;  ///< Records the elapsed micros.
  TraceRecorder* trace = nullptr;  ///< Records span `span` when non-null.
  const char* span = nullptr;
  std::uint64_t parent = 0;   ///< The span's parent id.
  std::uint64_t span_id = 0;  ///< A pre-allocated id; 0 = a fresh one.
};

/// RAII scope, closed by end() or the destructor, whichever comes first.
/// Move-only; a default-constructed phase is inert (a slot to move a
/// running one into).
class Phase {
 public:
  using Clock = std::chrono::steady_clock;

  Phase() = default;
  /// Start now.
  explicit Phase(const PhaseSinks& sinks)
      : Phase(sinks, active(sinks) ? Clock::now() : Clock::time_point{}) {}
  /// Started at `start`, a read the caller shares across several phases
  /// (a batch start): this one reads the clock only at exit.
  Phase(const PhaseSinks& sinks, Clock::time_point start)
      : sinks_(sinks), start_(start), active_(active(sinks)) {}
  /// A span-only scope: `span` under `parent` (inert when `trace` is null).
  Phase(TraceRecorder* trace, const char* span, std::uint64_t parent,
        std::uint64_t span_id = 0)
      : Phase({.trace = trace, .span = span, .parent = parent,
               .span_id = span_id}) {}
  Phase(Phase&& other) noexcept { *this = std::move(other); }
  /// Ends this phase, then takes over `other`.
  Phase& operator=(Phase&& other) noexcept {
    end();
    sinks_ = other.sinks_;
    start_ = other.start_;
    active_ = std::exchange(other.active_, false);
    return *this;
  }
  ~Phase() { end(); }

  /// Close now: one clock read, every sink fed once; later calls no-op.
  void end() {
    if (!std::exchange(active_, false)) return;
    const Clock::time_point stop = Clock::now();
    const double seconds = std::chrono::duration<double>(stop - start_).count();
    if (sinks_.timings) add_timing(*sinks_.timings, sinks_.timing, seconds);
    if (sinks_.seconds) *sinks_.seconds = seconds;
    // Micros on the span timestamp base (steady_micros), so a phase nests
    // exactly with spans stamped elsewhere in the process.
    const std::uint64_t start_us = micros(start_);
    const std::uint64_t stop_us = micros(stop);
    if (sinks_.histogram) sinks_.histogram->record(stop_us - start_us);
    if (sinks_.trace)
      sinks_.trace->record(sinks_.span,
                           sinks_.span_id ? sinks_.span_id : new_span_id(),
                           sinks_.parent, start_us, stop_us);
  }
  /// Drop the phase unrecorded (the work it timed never happened).
  void discard() noexcept { active_ = false; }

 private:
  static bool active(const PhaseSinks& s) noexcept {
    return s.timings || s.seconds || s.histogram || s.trace;
  }
  static std::uint64_t micros(Clock::time_point t) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            t.time_since_epoch())
            .count());
  }

  PhaseSinks sinks_;
  Clock::time_point start_{};
  bool active_ = false;
};

}  // namespace ebmf::obs
