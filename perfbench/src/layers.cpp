#include "layers.h"

#include <cstdint>

#include "core/partition.h"
#include "core/preprocess.h"
#include "core/row_packing.h"
#include "io/binary_io.h"
#include "io/request_io.h"
#include "linalg/rank.h"
#include "net/frame.h"
#include "service/cache.h"
#include "service/canon.h"
#include "smt/label_formula.h"
#include "smt/sap.h"

namespace perfbench {

namespace {

using ebmf::BinaryMatrix;
using ebmf::engine::SolveReport;
using ebmf::engine::SolveRequest;

/// Calls per pattern; each call is timed on its own.
constexpr int kReps = 3;
/// Conflict cap of SAT replays whose request sets none.
constexpr std::int64_t kReplayConflicts = 2000;

/// Keeps results observable so replayed calls are not optimized away.
volatile std::size_t g_sink = 0;

template <class F>
double time_us(F&& call) {
  const std::int64_t start = now_ns();
  g_sink = g_sink + static_cast<std::size_t>(call());
  return static_cast<double>(now_ns() - start) * 1e-3;
}

/// Per-pattern medians of `call(i)` over kReps calls.
template <class F>
std::vector<double> per_pattern(std::size_t n, F&& call) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) reps.push_back(time_us([&] { return call(i); }));
    out.push_back(median(reps));
  }
  return out;
}

ebmf::RowPackingOptions packing_options(const SolveRequest& r) {
  ebmf::RowPackingOptions o;
  o.trials = r.trials;
  o.seed = r.seed;
  o.order = r.order;
  o.basis_update = r.basis_update;
  o.use_transpose = r.use_transpose;
  return o;
}

/// One pattern through SAP's pipeline, driven from outside: preprocess,
/// then per component the rank bound, row packing (stopping at the rank,
/// as SAP does), and when a gap remains the SMT descent (SAP's sequential
/// decreasing-bound loop) through LabelFormula. Times in microseconds.
struct PipelineReplay {
  double preprocess_us = 0.0;
  double rank_us = 0.0;
  double packing_us = 0.0;
  double encode_us = 0.0;
  double search_us = 0.0;
  std::size_t calls = 0;
  std::size_t budget_cut = 0;
  bool smt = false;  ///< Some component needed the SMT phase.
};

PipelineReplay pipeline_replay(const BinaryMatrix& m,
                               const SolveRequest& request,
                               double budget_seconds, bool with_smt) {
  PipelineReplay out;
  std::int64_t start = now_ns();
  const auto reduction = ebmf::reduce_duplicates(m);
  const auto components = ebmf::split_components(reduction.reduced);
  out.preprocess_us = static_cast<double>(now_ns() - start) * 1e-3;
  ebmf::smt::EncoderOptions encoder;
  encoder.encoding = request.encoding;
  encoder.symmetry_breaking = request.symmetry_breaking;
  for (const auto& component : components) {
    const BinaryMatrix& c = component.matrix;
    start = now_ns();
    const std::size_t lower = ebmf::real_rank(c.row_vectors(), c.cols());
    out.rank_us += static_cast<double>(now_ns() - start) * 1e-3;
    ebmf::RowPackingOptions packing = packing_options(request);
    packing.stop_at = lower;
    start = now_ns();
    const std::size_t upper = ebmf::row_packing_ebmf(c, packing).partition.size();
    out.packing_us += static_cast<double>(now_ns() - start) * 1e-3;
    if (!with_smt || upper <= lower ||
        (request.smt_cell_limit != 0 && c.ones_count() > request.smt_cell_limit))
      continue;
    out.smt = true;
    ebmf::Budget budget = request.budget;
    budget.deadline = ebmf::Deadline::after(budget_seconds);
    // The replay always runs under a conflict cap, so it stays bounded on
    // workloads whose own requests carry none.
    if (budget.max_conflicts < 0) budget.max_conflicts = kReplayConflicts;
    start = now_ns();
    ebmf::smt::LabelFormula formula(c, upper - 1, encoder);
    out.encode_us += static_cast<double>(now_ns() - start) * 1e-3;
    std::size_t bound = upper - 1;
    while (bound >= lower) {
      start = now_ns();
      const auto answer = formula.solve(budget);
      out.search_us += static_cast<double>(now_ns() - start) * 1e-3;
      ++out.calls;
      if (answer == ebmf::sat::SolveResult::Sat) {
        const std::size_t found = formula.extract_partition().size();
        if (found <= lower) break;
        bound = found - 1;
        formula.narrow(bound);
      } else {
        if (answer != ebmf::sat::SolveResult::Unsat) ++out.budget_cut;
        break;
      }
    }
  }
  return out;
}

}  // namespace

double metric_value(const Metrics& metrics, const std::string& name) {
  for (const auto& m : metrics)
    if (m.name == name) return m.value;
  return 0.0;
}

Metrics layer_ledger(const LedgerInput& in) {
  const std::size_t n = in.patterns.size();
  const auto request = [&](std::size_t i) {
    SolveRequest r = in.requests[i];
    r.budget.deadline = ebmf::Deadline::after(in.budget_seconds);
    return r;
  };
  Metrics out;
  const auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit, ""});
  };

  // ---- solver core -------------------------------------------------------
  // The cheap stages are timed kReps times per pattern (median); the SMT
  // descent once.
  std::vector<double> preprocess, rank, packing, encode, search;
  std::vector<double> encode_used, search_used;
  std::size_t smt_calls = 0;
  std::size_t budget_cut = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p, r, k;
    for (int rep = 0; rep < kReps; ++rep) {
      const PipelineReplay replay =
          pipeline_replay(in.patterns[i], in.requests[i], in.budget_seconds,
                          rep == 0);
      p.push_back(replay.preprocess_us);
      r.push_back(replay.rank_us);
      k.push_back(replay.packing_us);
      if (rep != 0) continue;
      smt_calls += replay.calls;
      budget_cut += replay.budget_cut;
      encode.push_back(replay.encode_us);
      search.push_back(replay.search_us);
      if (replay.smt) {
        encode_used.push_back(replay.encode_us);
        search_used.push_back(replay.search_us);
      }
    }
    preprocess.push_back(median(p));
    rank.push_back(median(r));
    packing.push_back(median(k));
  }
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  double sat_seconds = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const SolveRequest r = request(i);
    ebmf::SapOptions options;
    options.packing = packing_options(r);
    options.encoder.encoding = r.encoding;
    options.encoder.symmetry_breaking = r.symmetry_breaking;
    options.budget = r.budget;
    if (options.budget.max_conflicts < 0)
      options.budget.max_conflicts = kReplayConflicts;
    options.smt_cell_limit = r.smt_cell_limit;
    options.preprocess = r.preprocess;
    const ebmf::SapResult sap = ebmf::sap_solve(in.patterns[i], options);
    conflicts += sap.smt_stats.conflicts;
    propagations += sap.smt_stats.propagations;
    sat_seconds += sap.smt_seconds;
  }
  const ebmf::engine::Engine engine;
  const auto solve = per_pattern(n, [&](std::size_t i) {
    return engine.solve(request(i)).depth();
  });
  std::vector<double> residual;
  for (std::size_t i = 0; i < n; ++i)
    residual.push_back(solve[i] - rank[i] - preprocess[i] - packing[i] -
                       encode[i] - search[i]);
  add("linalg.rank.us", median(rank), "us");
  add("core.preprocess.us", median(preprocess), "us");
  add("core.row_packing.us", median(packing), "us");
  add("smt.encode.us", median(encode_used), "us");
  add("smt.search.us", median(search_used), "us");
  add("smt.calls", static_cast<double>(smt_calls), "count");
  add("smt.budget_cut", static_cast<double>(budget_cut), "count");
  add("sat.conflicts", static_cast<double>(conflicts), "count");
  add("sat.propagations", static_cast<double>(propagations), "count");
  add("sat.props_per_s",
      sat_seconds > 0 ? static_cast<double>(propagations) / sat_seconds : 0.0,
      "1/s");
  add("engine.solve.us", median(solve), "us");
  add("engine.residual.us", median(residual), "us");

  // ---- serving layers ----------------------------------------------------
  std::vector<ebmf::canon::Canonical> canonical;
  std::vector<ebmf::Partition> canonical_partition;
  std::vector<std::string> reply_frames;
  std::vector<std::string> request_payloads;
  std::vector<std::string> request_lines;  // without the newline
  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = in.patterns[i];
    canonical.push_back(ebmf::canon::canonicalize(m));
    ebmf::RowPackingOptions one;
    one.trials = 1;
    canonical_partition.push_back(
        ebmf::row_packing_ebmf(canonical.back().pattern, one).partition);
    reply_frames.push_back(ebmf::net::encode_frame(
        ebmf::net::kFrameSolveReport,
        ebmf::io::binary_report_payload(in.replies[i], true, 1, m.rows(),
                                        m.cols())));
    request_payloads.push_back(
        in.frames[i].substr(ebmf::net::kFrameHeaderBytes));
    request_lines.push_back(in.lines[i].substr(0, in.lines[i].size() - 1));
  }
  add("io.json.parse_request.us",
      median(per_pattern(n,
                         [&](std::size_t i) {
                           return ebmf::io::parse_wire_request(
                                      request_lines[i])
                               .request.matrix.rows();
                         })),
      "us");
  add("io.json.render_reply.us", median(per_pattern(n, [&](std::size_t i) {
        return ebmf::io::wire_response_json(in.replies[i], true).size();
      })),
      "us");
  add("service.canon.canonicalize.us",
      median(per_pattern(n,
                         [&](std::size_t i) {
                           return ebmf::canon::canonicalize(in.patterns[i])
                               .pattern.rows();
                         })),
      "us");
  add("service.canon.lift.us", median(per_pattern(n, [&](std::size_t i) {
        return ebmf::canon::lift(canonical_partition[i], canonical[i]).size();
      })),
      "us");
  add("core.validate.us", median(per_pattern(n, [&](std::size_t i) {
        return static_cast<std::size_t>(
            ebmf::validate_partition(in.patterns[i], in.replies[i].partition)
                .ok);
      })),
      "us");
  add("io.binary.decode.us", median(per_pattern(n, [&](std::size_t i) {
        return ebmf::io::parse_binary_request(request_payloads[i])
            .request.matrix.rows();
      })),
      "us");
  add("io.binary.encode.us", median(per_pattern(n, [&](std::size_t i) {
        const auto& m = in.patterns[i];
        return ebmf::io::binary_report_payload(in.replies[i], true, 1,
                                               m.rows(), m.cols())
            .size();
      })),
      "us");
  add("net.frame.decode.us", median(per_pattern(n, [&](std::size_t i) {
        ebmf::net::FrameBuffer frames(reply_frames[i].size());
        frames.append(reply_frames[i].data(), reply_frames[i].size());
        ebmf::net::Frame frame;
        frames.pop(&frame);
        return frame.payload.size();
      })),
      "us");

  // The backend's hit path on a pre-canonical request, and the cache alone.
  ebmf::engine::Engine cached;
  cached.set_cache(ebmf::cache::ResultCache::with_capacity_mb(64));
  ebmf::cache::ResultCache cache(ebmf::cache::ResultCache::Options{});
  std::vector<SolveRequest> precanonical;
  for (std::size_t i = 0; i < n; ++i) {
    SolveRequest r = request(i);
    r.matrix = canonical[i].pattern;
    r.pre_canonical = true;
    r.canon_hi = canonical[i].key.hi;
    r.canon_lo = canonical[i].key.lo;
    const SolveReport report = cached.solve(r);  // the cold solve fills it
    cache.insert(canonical[i].key, r.strategy, canonical[i].pattern, report);
    precanonical.push_back(std::move(r));
  }
  add("engine.cached_solve.us", median(per_pattern(n, [&](std::size_t i) {
        precanonical[i].budget.deadline =
            ebmf::Deadline::after(in.budget_seconds);
        return cached.solve(precanonical[i]).depth();
      })),
      "us");
  add("service.cache.lookup.us", median(per_pattern(n, [&](std::size_t i) {
        return static_cast<std::size_t>(
            cache
                .lookup(canonical[i].key, precanonical[i].strategy,
                        canonical[i].pattern)
                .has_value());
      })),
      "us");
  return out;
}

}  // namespace perfbench
