#include "loadgen.h"

#include <poll.h>

#include <memory>

#include "common.h"

namespace perfbench {

namespace {

/// A request unanswered this long counts as lost.
constexpr double kReplyTimeoutSeconds = 60.0;

}  // namespace

LoopResult closed_loop(std::uint16_t port, Wire wire,
                       const std::vector<std::string>& requests, Slots slots,
                       std::size_t window, double seconds,
                       std::size_t min_ops, bool keep_replies,
                       double window_s, const std::function<double()>& probe) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < window; ++c)
    conns.push_back(std::make_unique<Connection>(port, wire));

  struct InFlight {
    bool busy = false;
    std::uint32_t slot = 0;
    std::int64_t sent_ns = 0;
  };
  std::vector<InFlight> inflight(window);
  std::vector<pollfd> fds(window);
  LoopResult out;
  std::size_t taken = 0;
  const std::int64_t start = now_ns();
  const auto stop_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  out.start_ns = start;
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  std::int64_t next_mark = start;
  const auto mark = [&](std::int64_t t) {
    while (probe && window_ns > 0 && t >= next_mark && next_mark <= stop_ns) {
      out.marks.push_back(probe());
      next_mark += window_ns;
    }
  };
  mark(start);

  const auto send_next = [&](std::size_t c) {
    if (!slots.wrap && taken >= slots.count) return;
    const std::size_t slot =
        slots.first + (slots.wrap ? taken % slots.count : taken);
    ++taken;
    inflight[c] = {true, static_cast<std::uint32_t>(slot), now_ns()};
    ++out.attempted;
    conns[c]->send(requests[slot]);
  };
  const auto more = [&](std::int64_t t) {
    return t < stop_ns || out.latency_us.size() < min_ops;
  };

  for (std::size_t c = 0; c < window; ++c) send_next(c);
  std::string reply;
  for (;;) {
    std::size_t busy = 0;
    for (std::size_t c = 0; c < window; ++c) {
      fds[c] = {inflight[c].busy ? conns[c]->fd() : -1, POLLIN, 0};
      busy += inflight[c].busy ? 1 : 0;
    }
    if (busy == 0) break;
    ::poll(fds.data(), fds.size(), 200);
    mark(now_ns());
    for (std::size_t c = 0; c < window; ++c) {
      if (!inflight[c].busy) continue;
      bool got = false;
      try {
        got = (fds[c].revents != 0) && conns[c]->read_reply(&reply);
      } catch (const BenchError&) {
        ++out.lost;  // peer closed or reset: this connection is done
        inflight[c].busy = false;
        continue;
      }
      const std::int64_t t = now_ns();
      if (!got) {
        if (static_cast<double>(t - inflight[c].sent_ns) * 1e-9 >
            kReplyTimeoutSeconds) {
          ++out.lost;
          inflight[c].busy = false;
        }
        continue;
      }
      out.slot.push_back(inflight[c].slot);
      out.latency_us.push_back(static_cast<double>(t - inflight[c].sent_ns) *
                               1e-3);
      out.done_ns.push_back(t);
      if (keep_replies) out.replies.push_back(std::move(reply));
      inflight[c].busy = false;
      if (more(t)) send_next(c);
    }
  }
  out.next_slot = slots.first + taken;
  return out;
}

}  // namespace perfbench
