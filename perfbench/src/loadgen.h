#pragma once
/// \file loadgen.h
/// \brief The closed-loop load generator: `window` connections, each with
/// one request in flight, driven from a single thread with poll(2). Request
/// bytes are rendered before the clock starts; replies are kept verbatim
/// and checked after it stops.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "wire.h"

namespace perfbench {

/// Where the loop takes its next request from: slots [first, first+count),
/// in order; `wrap` cycles through them instead of stopping at the end.
struct Slots {
  std::size_t first = 0;
  std::size_t count = 0;
  bool wrap = false;
};

struct LoopResult {
  std::vector<std::uint32_t> slot;   ///< Request slot of each completed op.
  std::vector<double> latency_us;    ///< Send-to-reply time of each op.
  std::vector<std::int64_t> done_ns; ///< Reply time of each op.
  std::vector<std::string> replies;  ///< Raw reply bytes of each op.
  std::size_t attempted = 0;         ///< Requests sent.
  std::size_t lost = 0;              ///< Sent but never answered.
  std::size_t next_slot = 0;         ///< First slot not taken (cold loops).
  std::int64_t start_ns = 0;         ///< First send.
  /// `probe()` at the start and at every window boundary after it.
  std::vector<double> marks;
};

/// Run the loop for `seconds` (and at least until `min_ops` replies have
/// arrived, unless the slots run out first); then let in-flight requests
/// finish. `keep_replies` = false drops reply bytes (side phases that only
/// need latency). With a `probe`, it is sampled at the start and every
/// `window_s` seconds until `seconds` have passed (the fleet's CPU time).
LoopResult closed_loop(std::uint16_t port, Wire wire,
                       const std::vector<std::string>& requests, Slots slots,
                       std::size_t window, double seconds,
                       std::size_t min_ops, bool keep_replies = true,
                       double window_s = 0.0,
                       const std::function<double()>& probe = {});

}  // namespace perfbench
