// perfbench — the repository's benchmark: end-to-end metrics of four
// workloads (the paper's Table 1 solved in-process, and three traffic
// classes through a real `ebmf serve` + `ebmf route` pair on loopback), and
// with --trace 1 a per-layer ledger measured from outside the program.
//
//   perfbench --ebmf PATH --workload NAME --seed N --seconds S --trace 0|1
//
// Prints every metric by name with its unit, then one JSON line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Exits nonzero when any reply fails its check or a workload is not served
// the way it claims to be.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "check.h"
#include "common.h"
#include "fleet.h"
#include "layers.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ebmf::BinaryMatrix;
using ebmf::engine::SolveReport;
using ebmf::engine::SolveRequest;

/// An untraced run sets up at least kSetups times, and until the set-ups
/// have taken kSetupSeconds; setup_s is their median.
constexpr std::size_t kSetups = 3;
constexpr double kSetupSeconds = 2.0;
/// Closed-loop clients (connections, one request in flight each).
constexpr std::size_t kWindow = 2;
/// cold-ftqc: depth_sum covers this many leading timed patterns, and the
/// timed phase runs at least until they are answered.
constexpr std::size_t kColdDepthSlots = 2048;
/// cold-ftqc: distinct patterns generated per measured second.
constexpr std::size_t kColdPerSecond = 4500;
constexpr std::size_t kRepeatBases = 64;
constexpr std::size_t kRepeatPool = 2048;
/// Patterns each layer replay runs over (routed workloads, table1).
constexpr std::size_t kLedgerPatterns = 48;
constexpr std::size_t kTable1LedgerInstances = 160;
/// Window length of the windowed end-to-end figures of routed workloads.
constexpr double kWindowSeconds = 1.0;
/// Length of each side phase of a traced run.
constexpr double kSideSeconds = 1.0;
/// Untraced/traced phase pairs of a traced run.
constexpr std::size_t kTraceRounds = 2;
/// A loop length that only running out of slots ends.
constexpr double kUntilDone = 1e9;

struct Args {
  std::string ebmf;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Outcome {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< Failed checks, first few kept.

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(why);
  }
  /// A broken claim about the workload itself (not one op).
  void broken(const std::string& why) {
    served_ok = false;
    problems.push_back(why);
  }
  bool served_ok = true;

  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
};

/// CPU time of the benchmark process, which does nothing but table1's
/// solves while they are timed.
double process_cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Whether an untraced run sets up once more, given the set-up times so far.
bool more_setups(const std::vector<double>& times) {
  double total = 0.0;
  for (const double t : times) total += t;
  return times.size() < kSetups || total < kSetupSeconds;
}

/// The end-to-end metrics every untraced run reports.
void add_end_to_end(Outcome& out, double setup_s, const WindowedFigures& f,
                    std::size_t ops, std::size_t proven,
                    std::size_t depth_sum, double rss_mb) {
  char windows[64];
  if (f.windows == 1)
    std::snprintf(windows, sizeof windows, "whole run");
  else
    std::snprintf(windows, sizeof windows, "median of %zu windows",
                  f.windows);
  char tail[96];
  std::snprintf(tail, sizeof tail, "p%.3f, %s", f.tail_percentile, windows);
  out.add("setup_s", setup_s, "s", "median of set-ups");
  out.add("throughput_ops", f.throughput, "1/s", windows);
  out.add("latency_p50_us", f.p50_us, "us", windows);
  out.add("latency_tail_us", f.tail_us, "us", tail);
  out.add("success_ratio",
          static_cast<double>(out.attempted - out.failed) /
              static_cast<double>(out.attempted),
          "ratio", "1 - fail_ratio");
  out.add("proven_share",
          static_cast<double>(proven) / static_cast<double>(ops), "ratio");
  out.add("depth_sum", static_cast<double>(depth_sum), "count");
  out.add("cpu_us_per_op", f.cpu_us_per_op, "us", windows);
  out.add("peak_rss_mb", rss_mb, "MiB");
}

// ---- routed workloads -------------------------------------------------------

RoutedInputs make_inputs(const Args& a, bool with_traced) {
  if (a.workload == "cold-ftqc") {
    // Enough distinct patterns that the loop never runs dry: the timed
    // phase, plus the side phases of a traced run.
    const auto count = static_cast<std::size_t>(
        kColdPerSecond * (a.seconds + 2 * kSideSeconds) + kColdDepthSlots);
    return cold_ftqc_inputs(a.seed, count, with_traced);
  }
  return repeat_inputs(a.seed, a.workload == "repeat-hop", kRepeatBases,
                       kRepeatPool, with_traced);
}

/// Keeps every CPU out of its idle state while a fleet is measured. On a
/// virtual machine a halted vCPU is woken by the host, and that wake-up
/// latency follows the load of other tenants: on a shared 4-vCPU VM it cut
/// routed throughput by up to 4x for minutes at a time. One spinning thread
/// per CPU at SCHED_IDLE priority takes only time that nothing else wants,
/// so the fleet's threads wake on a running vCPU. The routed figures
/// therefore leave out the cost of waking an idle CPU.
class KeepCpusAwake {
 public:
  KeepCpusAwake() {
    cpu_set_t allowed;
    ::sched_getaffinity(0, sizeof allowed, &allowed);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &allowed)) continue;
      spinners_.emplace_back([this, c] {
        sched_param idle{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        ::sched_setaffinity(0, sizeof one, &one);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~KeepCpusAwake() {
    stop_ = true;
    for (auto& t : spinners_) t.join();
  }

  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;  // after stop_, which they read
};

/// The untimed priming pass. The first `in.prime` slots go one at a time,
/// retried while the router's backend pool is still connecting; a repeat
/// workload then sends its whole pool once, since two permutations of one
/// pattern need not canonicalize to the same key, and every key must be
/// cached before the clock starts.
void prime(const Fleet& fleet, const RoutedInputs& in) {
  BinaryMatrix decoded;
  {
    Connection conn(fleet.router_port(), in.wire);
    for (std::size_t s = 0; s < in.prime; ++s) {
      Verdict v;
      for (int attempt = 0; attempt < 1000 && !v.ok; ++attempt) {
        if (attempt > 0) ::usleep(2000);
        v = certify_reply(conn.round_trip(in.requests[s]), in.wire,
                          in.pattern(s, decoded));
      }
      if (!v.ok) throw BenchError("priming request failed: " + v.why);
    }
  }
  if (in.cold) return;
  const LoopResult pool =
      closed_loop(fleet.router_port(), in.wire, in.requests,
                  {in.prime, in.requests.size() - in.prime, false}, kWindow,
                  kUntilDone, 0);
  for (std::size_t k = 0; k < pool.replies.size(); ++k) {
    const std::uint32_t slot = pool.slot[k];
    const Verdict v =
        certify_reply(pool.replies[k], in.wire, in.pattern(slot, decoded));
    if (!v.ok) throw BenchError("priming request failed: " + v.why);
  }
  if (pool.replies.size() + in.prime != in.requests.size())
    throw BenchError("priming requests lost");
}

/// Certify every reply of `loop` and note what it claims for the
/// references.
std::vector<Verdict> read_loop(const LoopResult& loop, const RoutedInputs& in,
                               References& refs) {
  std::vector<Verdict> verdicts;
  verdicts.reserve(loop.replies.size());
  BinaryMatrix decoded;
  for (std::size_t k = 0; k < loop.replies.size(); ++k) {
    const std::uint32_t slot = loop.slot[k];
    const BinaryMatrix& m = in.pattern(slot, decoded);
    verdicts.push_back(certify_reply(loop.replies[k], in.wire, m));
    refs.note(in.distinct_of[slot], m, verdicts.back());
  }
  return verdicts;
}

/// Judge the replies of `loop` against the references; returns the depth
/// each distinct pattern was answered with (0 = not answered).
std::vector<std::size_t> judge_loop(const LoopResult& loop,
                                    std::vector<Verdict> verdicts,
                                    const RoutedInputs& in,
                                    const References& refs, Outcome& out,
                                    std::size_t* proven) {
  std::vector<std::size_t> depth(in.distinct_count(), 0);
  out.attempted += loop.attempted;
  for (std::size_t k = 0; k < loop.lost; ++k) out.fail("request lost");
  for (std::size_t k = 0; k < verdicts.size(); ++k) {
    const std::uint32_t slot = loop.slot[k];
    const std::uint32_t d = in.distinct_of[slot];
    Verdict& v = verdicts[k];
    judge(v, refs[d]);
    if (v.ok && !in.cold && !v.proven) {
      // Repeat bases are certified, and a certified cache entry is served
      // as is; anything else went back to the solver on the warm path.
      v.ok = false;
      v.why = "repeat reply not certified optimal";
    }
    if (!v.ok) {
      out.fail("slot " + std::to_string(slot) + ": " + v.why);
      continue;
    }
    if (v.proven) ++*proven;
    if (depth[d] == 0) depth[d] = v.depth;
  }
  return depth;
}

/// The served-by claims, from the tiers' own cache counters.
void check_served_by(const Args& a, const CacheCounts& total,
                     const CacheCounts& timed, std::size_t timed_ops,
                     Outcome& out) {
  const auto claim = [&](bool holds, const std::string& what) {
    if (!holds) out.broken(a.workload + " is not served as claimed: " + what);
  };
  if (a.workload == "cold-ftqc") {
    claim(total.l1_hits == 0, std::to_string(total.l1_hits) + " L1 hits");
    claim(total.backend_hits == 0,
          std::to_string(total.backend_hits) + " backend cache hits");
  } else if (a.workload == "repeat-l1") {
    claim(timed.l1_hits == timed_ops,
          std::to_string(timed.l1_hits) + " L1 hits for " +
              std::to_string(timed_ops) + " requests");
  } else {
    claim(total.l1_hits == 0, std::to_string(total.l1_hits) + " L1 hits");
    claim(timed.backend_hits == timed_ops,
          std::to_string(timed.backend_hits) + " backend hits for " +
              std::to_string(timed_ops) + " requests");
  }
}

/// Set up a routed run: inputs, fleet, priming. Untraced runs set up
/// several times (tearing down all but the last; see kSetups) and report
/// the median as setup_s.
struct RoutedSetup {
  RoutedInputs in;
  std::unique_ptr<Fleet> fleet;
  double seconds = 0.0;
};

RoutedSetup set_up_routed(const Args& a) {
  RoutedSetup s;
  std::vector<double> times;
  while (times.empty() || (!a.trace && more_setups(times))) {
    s.fleet.reset();
    s.in = RoutedInputs{};  // never hold two sets of inputs at once
    const std::int64_t start = now_ns();
    s.in = make_inputs(a, a.trace);
    s.fleet = std::make_unique<Fleet>(a.ebmf, s.in.l1_mb);
    prime(*s.fleet, s.in);
    times.push_back(seconds_since(start));
  }
  s.seconds = median(times);
  return s;
}

Slots timed_slots(const RoutedInputs& in, std::size_t next_cold) {
  if (in.cold) return {next_cold, in.requests.size() - next_cold, false};
  return {0, in.requests.size(), true};
}

Outcome run_routed(const Args& a) {
  const KeepCpusAwake awake;
  RoutedSetup s = set_up_routed(a);
  RoutedInputs& in = s.in;
  Fleet& fleet = *s.fleet;
  const std::size_t min_ops = in.cold ? kColdDepthSlots : 0;

  const CacheCounts before = fleet.cache_counts();
  const LoopResult loop = closed_loop(
      fleet.router_port(), in.wire, in.requests, timed_slots(in, in.prime),
      kWindow, a.seconds, min_ops, true, kWindowSeconds,
      [&fleet] { return fleet.cpu_seconds(); });
  const CacheCounts after = fleet.cache_counts();
  const double rss = fleet.peak_rss_mb();
  fleet.stop();

  Outcome out;
  References refs(in.distinct_count());
  auto verdicts = read_loop(loop, in, refs);
  refs.search();
  std::fprintf(stderr, "references: %s\n", refs.summary().c_str());
  std::size_t proven = 0;
  const auto depth =
      judge_loop(loop, std::move(verdicts), in, refs, out, &proven);
  check_served_by(a, after, after - before, loop.replies.size(), out);

  std::size_t depth_sum = 0;
  if (in.cold) {
    for (std::size_t d = in.prime; d < in.prime + kColdDepthSlots; ++d)
      depth_sum += depth[d];
  } else {
    for (const std::size_t d : depth) depth_sum += d;
  }
  std::vector<std::int64_t> bounds;
  for (std::size_t k = 0; k < loop.marks.size(); ++k)
    bounds.push_back(loop.start_ns +
                     static_cast<std::int64_t>(k * kWindowSeconds * 1e9));
  add_end_to_end(out, s.seconds,
                 windowed(loop.latency_us, loop.done_ns, bounds, loop.marks),
                 loop.replies.size(), proven, depth_sum, rss);
  return out;
}

/// p50 of a latency-only side phase.
double side_p50(std::uint16_t port, const RoutedInputs& in, Slots slots,
                std::size_t* next_cold, Outcome& out) {
  const LoopResult side = closed_loop(port, in.wire, in.requests, slots, 1,
                                      kSideSeconds, 0, false);
  out.attempted += side.attempted;
  for (std::size_t k = 0; k < side.lost; ++k) out.fail("side request lost");
  *next_cold = side.next_slot;
  return median(side.latency_us);
}

/// Path of each routed workload through the ledger's layers.
std::vector<std::string> layer_path(const std::string& workload) {
  if (workload == "cold-ftqc")
    return {"io.json.parse_request.us", "service.canon.canonicalize.us",
            "io.binary.decode.us",      "engine.solve.us",
            "io.binary.encode.us",      "net.frame.decode.us",
            "service.canon.lift.us",    "core.validate.us",
            "io.json.render_reply.us"};
  if (workload == "repeat-l1")
    return {"io.json.parse_request.us", "service.canon.canonicalize.us",
            "service.cache.lookup.us",  "service.canon.lift.us",
            "core.validate.us",         "io.json.render_reply.us"};
  if (workload == "repeat-hop")
    return {"net.frame.decode.us",   "io.binary.decode.us",
            "service.canon.canonicalize.us", "engine.cached_solve.us",
            "io.binary.encode.us",   "service.canon.lift.us",
            "core.validate.us"};
  return {"engine.solve.us"};
}

void add_trace_overhead(Outcome& out, double untraced_p50, double traced_p50) {
  out.add("trace.untraced_p50_us", untraced_p50, "us");
  out.add("trace.traced_p50_us", traced_p50, "us");
  out.add("trace.overhead_pct",
          untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0,
          "%");
}

void add_unattributed(Outcome& out, const std::string& workload,
                      double e2e_p50) {
  double sum = 0.0;
  for (const auto& name : layer_path(workload))
    sum += metric_value(out.metrics, name);
  out.add("unattributed.us", e2e_p50 - sum, "us");
}

Outcome run_routed_traced(const Args& a) {
  const KeepCpusAwake awake;
  RoutedSetup s = set_up_routed(a);
  RoutedInputs& in = s.in;
  Fleet& fleet = *s.fleet;

  // Untraced and traced phases alternate, so neither gets the warmer half.
  const CacheCounts before = fleet.cache_counts();
  std::vector<LoopResult> plain;
  std::vector<LoopResult> traced;
  std::size_t next = in.prime;
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    for (auto* phase : {&plain, &traced}) {
      const auto& bytes = phase == &plain ? in.requests : in.traced;
      phase->push_back(closed_loop(fleet.router_port(), in.wire, bytes,
                                   timed_slots(in, next), kWindow,
                                   a.seconds / (2 * kTraceRounds), 0));
      next = phase->back().next_slot;
    }
  }
  const CacheCounts after = fleet.cache_counts();

  Outcome out;
  const double routed_w1 = side_p50(fleet.router_port(), in,
                                    timed_slots(in, next), &next, out);
  const double direct_w1 = side_p50(fleet.backend_port(), in,
                                    timed_slots(in, next), &next, out);
  fleet.stop();

  References refs(in.distinct_count());
  std::vector<std::vector<Verdict>> verdicts;
  for (auto* phase : {&plain, &traced})
    for (const LoopResult& loop : *phase)
      verdicts.push_back(read_loop(loop, in, refs));
  refs.search();
  std::fprintf(stderr, "references: %s\n", refs.summary().c_str());
  std::size_t proven = 0;
  std::size_t timed_ops = 0;
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  std::size_t n = 0;
  for (auto* phase : {&plain, &traced}) {
    for (const LoopResult& loop : *phase) {
      judge_loop(loop, std::move(verdicts[n++]), in, refs, out, &proven);
      timed_ops += loop.replies.size();
      auto& into = phase == &plain ? plain_us : traced_us;
      into.insert(into.end(), loop.latency_us.begin(), loop.latency_us.end());
    }
  }
  const CacheCounts timed = after - before;
  check_served_by(a, after, timed, timed_ops, out);

  // The ledger replays the first answered slots: their patterns, request
  // bytes, and decoded replies.
  LedgerInput ledger;
  ledger.budget_seconds = kRoutedBudgetSeconds;
  std::vector<std::size_t> seen;
  for (std::size_t k = 0;
       k < plain[0].replies.size() && ledger.patterns.size() < kLedgerPatterns;
       ++k) {
    const std::size_t slot = plain[0].slot[k];
    if (std::find(seen.begin(), seen.end(), slot) != seen.end()) continue;
    seen.push_back(slot);
    BinaryMatrix decoded;
    const BinaryMatrix& m = in.pattern(slot, decoded);
    ledger.patterns.push_back(m);
    ledger.requests.push_back(routed_request(m));
    ledger.lines.push_back(in.wire == Wire::Line
                               ? in.requests[slot]
                               : render_request(m, Wire::Line, false));
    ledger.frames.push_back(in.wire == Wire::Binary
                                ? in.requests[slot]
                                : render_request(m, Wire::Binary, false));
    ledger.replies.push_back(decode_reply(plain[0].replies[k], in.wire, m));
  }
  out.metrics = layer_ledger(ledger);

  const auto ratio = [](std::uint64_t hits, std::uint64_t lookups) {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  };
  out.add("service.cache.hit_ratio.l1", ratio(timed.l1_hits, timed.l1_lookups),
          "ratio");
  out.add("service.cache.hit_ratio.backend",
          ratio(timed.backend_hits, timed.backend_lookups), "ratio");
  const double loaded_p50 = median(plain_us);
  out.add("router.added_us", routed_w1 - direct_w1, "us");
  out.add("fleet.queue_wait.us", loaded_p50 - routed_w1, "us");
  add_unattributed(out, a.workload, routed_w1);
  add_trace_overhead(out, loaded_p50, median(traced_us));
  return out;
}

// ---- table1 ----------------------------------------------------------------

/// One Table 1 op: the SAP solve, then the row-packing ladder.
struct Table1Op {
  std::size_t instance = 0;
  double latency_us = 0.0;
  SolveReport sap;
  std::vector<SolveReport> packing;
};

Table1Op table1_op(const ebmf::engine::Engine& engine,
                   const Table1Instance& inst, std::size_t index,
                   bool traced) {
  Table1Op op;
  op.instance = index;
  const std::int64_t start = now_ns();
  auto request = table1_request(inst);
  if (traced)
    request.trace = std::make_shared<ebmf::obs::TraceRecorder>(
        ebmf::obs::make_trace_context());
  op.sap = engine.solve(request);
  for (const std::size_t trials : kPackingTrials) {
    auto packing = SolveRequest::dense(inst.matrix, "heuristic");
    packing.trials = trials;
    packing.seed = 1 + trials;
    op.packing.push_back(engine.solve(packing));
  }
  op.latency_us = static_cast<double>(now_ns() - start) * 1e-3;
  return op;
}

struct Table1Setup {
  std::vector<Table1Instance> instances;
  double seconds = 0.0;
};

/// Input generation (nothing in-process needs priming); untraced runs set
/// up several times (see kSetups) and report the median.
Table1Setup set_up_table1(const Args& a) {
  Table1Setup s;
  std::vector<double> times;
  while (times.empty() || (!a.trace && more_setups(times))) {
    const std::int64_t start = now_ns();
    s.instances = table1_inputs(a.seed);
    times.push_back(seconds_since(start));
  }
  s.seconds = median(times);
  return s;
}

/// Ops over the instances in order for `seconds`; past the last instance
/// the order repeats. With `whole_passes` the run ends only at the end of a
/// pass, so every instance counts equally often.
struct Table1Run {
  std::vector<Table1Op> ops;
  double seconds = 0.0;
  double cpu_s = 0.0;  ///< Own CPU time over the run.
};

Table1Run table1_loop(const ebmf::engine::Engine& engine, const Table1Setup& s,
                      std::size_t first, double seconds, bool whole_passes,
                      bool traced) {
  Table1Run run;
  const double cpu0 = process_cpu_seconds();
  const std::int64_t start = now_ns();
  const std::size_t n = s.instances.size();
  const auto more = [&] {
    if (whole_passes && (run.ops.empty() || run.ops.size() % n != 0))
      return true;
    return seconds_since(start) < seconds;
  };
  while (more()) {
    const std::size_t i = (first + run.ops.size()) % n;
    run.ops.push_back(table1_op(engine, s.instances[i], i, traced));
  }
  run.seconds = seconds_since(start);
  run.cpu_s = process_cpu_seconds() - cpu0;
  return run;
}

/// Certify each op's SAP report and packing reports, noting their claims
/// for the references; the opt family's optimum is known by construction.
std::vector<std::vector<Verdict>> read_table1(const std::vector<Table1Op>& ops,
                                              const Table1Setup& s,
                                              References& refs) {
  std::vector<std::vector<Verdict>> verdicts;
  for (const auto& op : ops) {
    const auto& inst = s.instances[op.instance];
    if (inst.known_optimal != 0) refs.know(op.instance, inst.known_optimal);
    auto& v = verdicts.emplace_back();
    v.push_back(certify(op.sap, inst.matrix));
    for (const auto& packing : op.packing)
      v.push_back(certify(packing, inst.matrix));
    for (const Verdict& each : v) refs.note(op.instance, inst.matrix, each);
  }
  return verdicts;
}

/// Judge each op (its SAP report, then its packing reports); returns the
/// SAP depth of each instance (0 = not run).
std::vector<std::size_t> judge_table1(
    const std::vector<Table1Op>& ops,
    std::vector<std::vector<Verdict>> verdicts, const Table1Setup& s,
    const References& refs, Outcome& out, std::size_t* proven) {
  std::vector<std::size_t> depth(s.instances.size(), 0);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    ++out.attempted;
    const Table1Op& op = ops[k];
    const Verdict* bad = nullptr;
    for (Verdict& v : verdicts[k]) {
      judge(v, refs[op.instance]);
      if (!v.ok && bad == nullptr) bad = &v;
    }
    if (bad != nullptr) {
      out.fail(s.instances[op.instance].row + " #" +
               std::to_string(op.instance) + ": " + bad->why);
      continue;
    }
    if (verdicts[k][0].proven) ++*proven;
    depth[op.instance] = verdicts[k][0].depth;
  }
  return depth;
}

Outcome run_table1(const Args& a) {
  const ebmf::engine::Engine engine;
  const Table1Setup s = set_up_table1(a);
  const Table1Run run =
      table1_loop(engine, s, 0, a.seconds, true, false);

  Outcome out;
  References refs(s.instances.size());
  auto verdicts = read_table1(run.ops, s, refs);
  refs.search();
  std::fprintf(stderr, "references: %s\n", refs.summary().c_str());
  std::size_t proven = 0;
  const auto depth =
      judge_table1(run.ops, std::move(verdicts), s, refs, out, &proven);
  std::size_t depth_sum = 0;
  for (const std::size_t d : depth) depth_sum += d;
  WindowedFigures whole;  // one window: the whole run
  std::vector<double> latency;
  for (const auto& op : run.ops) latency.push_back(op.latency_us);
  const Tail tail = tail_latency(latency);
  whole.windows = 1;
  whole.throughput = static_cast<double>(run.ops.size()) / run.seconds;
  whole.p50_us = median(latency);
  whole.tail_us = tail.value;
  whole.tail_percentile = tail.percentile;
  whole.cpu_us_per_op =
      run.cpu_s * 1e6 / static_cast<double>(run.ops.size());
  add_end_to_end(out, s.seconds, whole, run.ops.size(), proven, depth_sum,
                 peak_rss_mb(::getpid()));
  return out;
}

Outcome run_table1_traced(const Args& a) {
  const ebmf::engine::Engine engine;
  const Table1Setup s = set_up_table1(a);
  // Untraced and traced phases alternate, so neither gets the warmer half.
  std::vector<Table1Run> plain;
  std::vector<Table1Run> traced;
  std::size_t next = 0;
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    for (auto* phase : {&plain, &traced}) {
      phase->push_back(table1_loop(engine, s, next,
                                   a.seconds / (2 * kTraceRounds), false,
                                   phase == &traced));
      next += phase->back().ops.size();
    }
  }
  References refs(s.instances.size());
  std::vector<std::vector<std::vector<Verdict>>> verdicts;
  for (auto* phase : {&plain, &traced})
    for (const auto& run : *phase)
      verdicts.push_back(read_table1(run.ops, s, refs));
  refs.search();
  std::fprintf(stderr, "references: %s\n", refs.summary().c_str());
  Outcome out;
  std::size_t proven = 0;
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  std::size_t n = 0;
  for (auto* phase : {&plain, &traced}) {
    for (const auto& run : *phase) {
      judge_table1(run.ops, std::move(verdicts[n++]), s, refs, out, &proven);
      for (const auto& op : run.ops)
        (phase == &plain ? plain_us : traced_us).push_back(op.latency_us);
    }
  }

  // The ledger replays the first instances of the run, in its order.
  LedgerInput ledger;
  ledger.budget_seconds = kTable1BudgetSeconds;
  for (const auto& op : plain[0].ops) {
    if (ledger.patterns.size() == kTable1LedgerInstances) break;
    const auto& inst = s.instances[op.instance];
    ledger.patterns.push_back(inst.matrix);
    ledger.requests.push_back(table1_request(inst));
    ledger.lines.push_back(render_request(inst.matrix, Wire::Line, false));
    ledger.frames.push_back(render_request(inst.matrix, Wire::Binary, false));
    ledger.replies.push_back(op.sap);
  }
  out.metrics = layer_ledger(ledger);
  // No fleet on this workload's path.
  out.add("service.cache.hit_ratio.l1", 0.0, "ratio");
  out.add("service.cache.hit_ratio.backend", 0.0, "ratio");
  out.add("router.added_us", 0.0, "us");
  out.add("fleet.queue_wait.us", 0.0, "us");
  add_unattributed(out, a.workload, median(plain_us));
  add_trace_overhead(out, median(plain_us), median(traced_us));
  return out;
}

// ---- command line -----------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--ebmf") {
      a.ebmf = value;
    } else if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  const bool known = a.workload == "table1" || a.workload == "cold-ftqc" ||
                     a.workload == "repeat-l1" || a.workload == "repeat-hop";
  return known && a.seconds > 0 && (a.workload == "table1" || !a.ebmf.empty());
}

void print_result(const Outcome& out) {
  for (const auto& m : out.metrics)
    std::printf("%-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  const bool correct = out.failed == 0 && out.served_ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --ebmf PATH --workload "
                 "table1|cold-ftqc|repeat-l1|repeat-hop --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    const bool table1 = args.workload == "table1";
    const Outcome out = table1 ? (args.trace ? run_table1_traced(args)
                                             : run_table1(args))
                               : (args.trace ? run_routed_traced(args)
                                             : run_routed(args));
    for (const auto& p : out.problems)
      std::fprintf(stderr, "check failed: %s\n", p.c_str());
    print_result(out);
    return out.failed == 0 && out.served_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
