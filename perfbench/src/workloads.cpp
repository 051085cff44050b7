#include "workloads.h"

#include <algorithm>
#include <unordered_set>

#include "benchgen/suites.h"
#include "ftqc/patterns.h"
#include "io/binary_io.h"
#include "io/request_io.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "core/preprocess.h"
#include "support/rng.h"

namespace perfbench {

namespace {

using ebmf::BinaryMatrix;
using ebmf::Rng;

double uniform(Rng& rng) {
  return static_cast<double>(rng.below(1u << 20)) / static_cast<double>(1u << 20);
}

std::size_t between(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

/// A surface-code patch pattern: a checkerboard sublattice of a d×d patch
/// with atom loss (each addressed site empty with probability 1/4).
BinaryMatrix lossy_patch(Rng& rng) {
  const std::size_t d = between(rng, 12, 24);
  BinaryMatrix m = ebmf::ftqc::checkerboard_patch(d, rng.below(2));
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j)
      if (m.test(i, j) && rng.below(8) == 0) m.set(i, j, false);
  return m;
}

/// kron(logical, physical): a random logical pattern over a patch grid,
/// each selected patch carrying the same 3×3 per-patch pattern.
BinaryMatrix kron_two_level(Rng& rng) {
  const BinaryMatrix logical = ebmf::ftqc::logical_pattern(
      between(rng, 8, 12), between(rng, 8, 12), 0.12 + 0.08 * uniform(rng),
      rng);
  BinaryMatrix physical;
  switch (rng.below(3)) {
    case 0: physical = ebmf::ftqc::checkerboard_patch(3, rng.below(2)); break;
    case 1: physical = ebmf::ftqc::boundary_row_patch(3, rng.below(3)); break;
    default: physical = ebmf::ftqc::transversal_patch(3); break;
  }
  return BinaryMatrix::kron(logical, physical);
}

/// The "auto" portfolio's sequential exact tier takes dense patterns only
/// up to 300 ones; past that it races bound probes on every hardware
/// thread or runs deadline-bound local search. Patterns stay below it so
/// that a cold solve's cost is its work, on one thread.
bool within_exact_tier(const BinaryMatrix& m) {
  const double density = static_cast<double>(m.ones_count()) /
                         static_cast<double>(m.rows() * m.cols());
  return !m.is_zero() && (density <= 0.08 || m.ones_count() <= 300);
}

/// One FTQC-family pattern; `kind` cycles logical, qLDPC, kron, patch.
BinaryMatrix ftqc_pattern(std::size_t kind, Rng& rng) {
  BinaryMatrix m;
  do {
    switch (kind % 4) {
      case 0:
        m = ebmf::ftqc::logical_pattern(between(rng, 24, 48),
                                        between(rng, 24, 48),
                                        0.02 + 0.02 * uniform(rng), rng);
        break;
      case 1:
        m = ebmf::ftqc::qldpc_block_pattern(between(rng, 12, 24),
                                            between(rng, 24, 48),
                                            0.1 + 0.2 * uniform(rng), rng);
        break;
      case 2: m = kron_two_level(rng); break;
      default: m = lossy_patch(rng); break;
    }
  } while (!within_exact_tier(m));
  return m;
}

/// A hash of permutation invariants of `m` after duplicate and zero
/// rows/columns are dropped (as the canonical form does): the reduced shape
/// and the sorted row and column weights.
std::uint64_t class_invariant(const BinaryMatrix& m) {
  const BinaryMatrix r = ebmf::reduce_duplicates(m).reduced;
  std::vector<std::size_t> rows, cols(r.cols(), 0);
  for (std::size_t i = 0; i < r.rows(); ++i) {
    rows.push_back(r.row(i).count());
    for (std::size_t j = 0; j < r.cols(); ++j)
      if (r.test(i, j)) ++cols[j];
  }
  std::sort(rows.begin(), rows.end());
  std::sort(cols.begin(), cols.end());
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(r.rows());
  mix(r.cols());
  for (const std::size_t w : rows) mix(w);
  mix(~0ULL);
  for (const std::size_t w : cols) mix(w);
  return h;
}

/// One repeat base; `kind` cycles the same four families at fixed sizes,
/// so every base costs about the same to canonicalize and lift.
BinaryMatrix repeat_base(std::size_t kind, Rng& rng) {
  BinaryMatrix m;
  do {
    switch (kind % 4) {
      case 0: m = ebmf::ftqc::logical_pattern(40, 40, 0.03, rng); break;
      case 1: m = ebmf::ftqc::qldpc_block_pattern(18, 40, 0.2, rng); break;
      case 2: {
        const BinaryMatrix logical =
            ebmf::ftqc::logical_pattern(10, 10, 0.15, rng);
        m = BinaryMatrix::kron(logical,
                               ebmf::ftqc::checkerboard_patch(3, kind % 2));
        break;
      }
      default: {
        m = ebmf::ftqc::checkerboard_patch(18, 0);
        for (std::size_t i = 0; i < 18; ++i)
          for (std::size_t j = 0; j < 18; ++j)
            if (m.test(i, j) && rng.below(8) == 0) m.set(i, j, false);
        break;
      }
    }
  } while (!within_exact_tier(m));
  return m;
}

BinaryMatrix permuted_copy(const BinaryMatrix& m, Rng& rng) {
  const auto row_perm = rng.permutation(m.rows());
  const auto col_perm = rng.permutation(m.cols());
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

void render_all(RoutedInputs& in, bool with_traced) {
  in.requests.reserve(in.patterns.size());
  for (const auto& m : in.patterns) {
    in.requests.push_back(render_request(m, in.wire, false));
    if (with_traced) in.traced.push_back(render_request(m, in.wire, true));
  }
}

}  // namespace

const BinaryMatrix& RoutedInputs::pattern(std::size_t slot,
                                          BinaryMatrix& decoded) const {
  if (!cold) return patterns[slot];
  const std::string& line = requests[slot];
  decoded = ebmf::io::parse_wire_request(line.substr(0, line.size() - 1))
                .request.matrix;
  return decoded;
}

ebmf::engine::SolveRequest routed_request(const BinaryMatrix& m) {
  auto request = ebmf::engine::SolveRequest::dense(m, "auto");
  request.trials = 40;
  request.budget.max_conflicts = kRoutedConflicts;
  return request;
}

std::string render_request(const BinaryMatrix& m, Wire wire, bool traced) {
  ebmf::io::WireRequest w;
  w.request = routed_request(m);
  w.budget_seconds = kRoutedBudgetSeconds;
  w.include_partition = true;
  if (traced) {
    w.has_trace = true;
    w.trace = ebmf::obs::make_trace_context();
  }
  if (wire == Wire::Line) return ebmf::io::wire_request_json(w) + "\n";
  return ebmf::net::encode_frame(ebmf::net::kFrameSolveRequest,
                                 ebmf::io::binary_request_payload(w));
}

RoutedInputs cold_ftqc_inputs(std::uint64_t seed, std::size_t count,
                              bool with_traced) {
  RoutedInputs in;
  in.wire = Wire::Line;
  in.cold = true;
  in.prime = 8;
  Rng rng(seed ^ 0xc01dULL);
  // No two patterns may share a canonical key. Permutation-equivalent
  // patterns have equal duplicate-free shapes and row/column weight
  // multisets, so a draw whose invariants were seen before is redrawn.
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < count; ++i) {
    BinaryMatrix m;
    do {
      m = ftqc_pattern(i, rng);
    } while (!seen.insert(class_invariant(m)).second);
    // Only the request bytes are kept (see RoutedInputs::pattern).
    in.requests.push_back(render_request(m, in.wire, false));
    if (with_traced) in.traced.push_back(render_request(m, in.wire, true));
    in.distinct_of.push_back(static_cast<std::uint32_t>(i));
  }
  return in;
}

RoutedInputs repeat_inputs(std::uint64_t seed, bool hop, std::size_t bases,
                           std::size_t pool, bool with_traced) {
  RoutedInputs in;
  in.wire = hop ? Wire::Binary : Wire::Line;
  in.l1_mb = hop ? 0.0 : 16.0;
  in.prime = bases;
  Rng rng(seed ^ 0x4e9eULL);
  const ebmf::engine::Engine engine;
  std::unordered_set<std::uint64_t> seen;
  while (in.distinct.size() < bases) {
    BinaryMatrix m = repeat_base(in.distinct.size(), rng);
    if (!seen.insert(class_invariant(m)).second) continue;
    // The backend re-solves a budget-cut cache entry on every hit (it
    // retries for an upgrade), so a base the solver cannot certify within
    // the request's budget would put the solver on the warm path.
    auto request = routed_request(m);
    request.budget.deadline = ebmf::Deadline::after(kRoutedBudgetSeconds);
    if (engine.solve(request).proven_optimal())
      in.distinct.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < pool; ++i) {
    const std::size_t b = i % bases;
    in.patterns.push_back(permuted_copy(in.distinct[b], rng));
    in.distinct_of.push_back(static_cast<std::uint32_t>(b));
  }
  render_all(in, with_traced);
  return in;
}

std::vector<Table1Instance> table1_inputs(std::uint64_t seed) {
  using namespace ebmf::benchgen;
  std::vector<Table1Instance> out;
  const auto add = [&](const std::string& row,
                       const std::vector<Instance>& suite, bool smt) {
    for (const auto& inst : suite)
      out.push_back({row, inst.matrix, inst.known_optimal, smt});
  };
  // Twice the paper's populations (§IV-A: 10 per random configuration, 10
  // per known-optimal rank, 100 per gap parameter). The 100x100 rows and
  // the budget-cut gap instances take most of the time, and their number
  // varies with the seed; the larger draw keeps that variation small.
  const auto small = paper_occupancies_small();
  add("10x10, rand", random_suite(10, 10, small, 20, seed), true);
  add("10x20, rand", random_suite(10, 20, small, 20, seed + 1), true);
  add("10x30, rand", random_suite(10, 30, small, 20, seed + 2), true);
  add("100x100, rand",
      random_suite(100, 100, paper_occupancies_large(), 20, seed + 3), false);
  add("10x10, opt", known_optimal_suite(10, 10, 10, 20, seed + 4), true);
  for (std::size_t k : {2u, 3u, 4u, 5u})
    add("10x10, gap, " + std::to_string(k),
        gap_suite(10, 10, {k}, 200, seed + 5 + k), true);
  // Interleave the rows, so any prefix of the run order is a sample of the
  // whole table.
  Rng rng(seed ^ 0x7ab1eULL);
  const auto order = rng.permutation(out.size());
  std::vector<Table1Instance> shuffled;
  for (const std::size_t i : order) shuffled.push_back(std::move(out[i]));
  return shuffled;
}

ebmf::engine::SolveRequest table1_request(const Table1Instance& inst) {
  auto request = ebmf::engine::SolveRequest::dense(inst.matrix, "sap");
  // As in the paper's 100x100 rows: rank certificate and heuristics only.
  if (!inst.smt_feasible) request.smt_cell_limit = 1;
  request.trials = 200;
  request.seed = 1;
  // A conflict cap, not a clock, cuts the hard cases, so which instances
  // are budget-cut is a property of the input and not of machine load.
  // The deadline is a safety net far above any capped solve.
  request.budget = ebmf::Budget::after(kTable1BudgetSeconds);
  request.budget.max_conflicts = kTable1Conflicts;
  return request;
}

}  // namespace perfbench
