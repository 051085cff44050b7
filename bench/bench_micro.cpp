// Component microbenchmarks (google-benchmark): the building blocks whose
// throughput determines how far the heuristics scale (the paper's 100x100
// "current limit of atom array technology" and beyond).
//
// `bench_micro --json` skips google-benchmark and instead emits one JSON
// line of hot-path numbers: SAT propagation throughput (a pigeonhole UNSAT
// proof and a large conflict-capped SMT decision formula) and the cost of
// canon::canonicalize on the routed repeat families, with the count of
// bases whose permutations split into more than one cache key, and the cost
// of the solver's preprocessing (reduce_duplicates + split_components) on
// the same inputs.
// tools/bench_compare.py diffs these lines against the committed
// BENCH_sap.json baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "benchgen/generators.h"
#include "core/bounds.h"
#include "core/preprocess.h"
#include "core/row_packing.h"
#include "core/trivial.h"
#include "dlx/packing_dlx.h"
#include "ftqc/patterns.h"
#include "linalg/rank.h"
#include "sat/cardinality.h"
#include "sat/solver.h"
#include "service/canon.h"
#include "smt/label_formula.h"
#include "support/bitvec.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

ebmf::BinaryMatrix random_matrix(std::size_t n, double occ,
                                 std::uint64_t seed) {
  ebmf::Rng rng(seed);
  return ebmf::BinaryMatrix::random(n, n, occ, rng);
}

// ---- BitVec -------------------------------------------------------------

void BM_BitVecSubset(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ebmf::Rng rng(1);
  ebmf::BitVec a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) a.set(i);
    if (rng.chance(0.6)) b.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.subset_of(b));
  }
}
BENCHMARK(BM_BitVecSubset)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BitVecAndNot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ebmf::Rng rng(2);
  ebmf::BitVec a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.5)) a.set(i);
    if (rng.chance(0.5)) b.set(i);
  }
  for (auto _ : state) {
    auto c = a;
    c -= b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitVecAndNot)->Arg(64)->Arg(1024)->Arg(4096);

// ---- rank ---------------------------------------------------------------

void BM_RealRank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::real_rank(m));
  }
}
BENCHMARK(BM_RealRank)->Arg(10)->Arg(30)->Arg(100);

void BM_RankSparseBareissPath(benchmark::State& state) {
  // Rank-deficient sparse matrices force the exact Bareiss fallback.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.03, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::real_rank(m));
  }
}
BENCHMARK(BM_RankSparseBareissPath)->Arg(30)->Arg(60)->Arg(100);

// ---- heuristics ----------------------------------------------------------

void BM_RowPackingPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 5);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::row_packing_pass(m, order));
  }
}
BENCHMARK(BM_RowPackingPass)->Arg(10)->Arg(30)->Arg(100)->Arg(200);

void BM_RowPackingHundredTrials(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 6);
  for (auto _ : state) {
    ebmf::RowPackingOptions opt;
    opt.trials = 100;
    benchmark::DoNotOptimize(ebmf::row_packing_ebmf(m, opt));
  }
}
BENCHMARK(BM_RowPackingHundredTrials)->Arg(10)->Arg(50)->Arg(100);

void BM_DlxPackingPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 7);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::dlx::row_packing_dlx_pass(m, order));
  }
}
BENCHMARK(BM_DlxPackingPass)->Arg(10)->Arg(30)->Arg(100);

void BM_TrivialHeuristic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::trivial_ebmf(m));
  }
}
BENCHMARK(BM_TrivialHeuristic)->Arg(10)->Arg(100);

// ---- SMT / SAT -----------------------------------------------------------

void BM_FormulaConstructionOneHot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 9);
  for (auto _ : state) {
    ebmf::smt::EncoderOptions opt;
    opt.encoding = ebmf::smt::LabelEncoding::OneHot;
    ebmf::smt::LabelFormula f(m, n, opt);
    benchmark::DoNotOptimize(f.stats().clauses);
  }
}
BENCHMARK(BM_FormulaConstructionOneHot)->Arg(6)->Arg(8)->Arg(10);

void BM_SmtDecideSat(benchmark::State& state) {
  // Decision at the optimum (SAT side) for an 8x8 random matrix.
  const auto m = random_matrix(8, 0.5, 10);
  const auto rank = ebmf::real_rank(m);
  for (auto _ : state) {
    ebmf::smt::LabelFormula f(m, std::max<std::size_t>(rank, 1));
    benchmark::DoNotOptimize(f.solve());
  }
}
BENCHMARK(BM_SmtDecideSat);

void BM_SatPigeonholeUnsat(benchmark::State& state) {
  const auto holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ebmf::sat::Solver s;
    std::vector<std::vector<ebmf::sat::Lit>> x(
        static_cast<std::size_t>(holes) + 1);
    for (auto& row : x)
      for (int h = 0; h < holes; ++h)
        row.push_back(ebmf::sat::pos(s.new_var()));
    for (auto& row : x) s.add_clause(ebmf::sat::Clause(row));
    for (int h = 0; h < holes; ++h)
      for (std::size_t p1 = 0; p1 < x.size(); ++p1)
        for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
          s.add_clause(x[p1][static_cast<std::size_t>(h)].neg(),
                       x[p2][static_cast<std::size_t>(h)].neg());
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonholeUnsat)->Arg(6)->Arg(8);

// ---- generators ----------------------------------------------------------

void BM_GapGenerator(benchmark::State& state) {
  ebmf::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::benchgen::gap_matrix(10, 10, 4, rng));
  }
}
BENCHMARK(BM_GapGenerator);

void BM_KnownOptimalGenerator(benchmark::State& state) {
  ebmf::Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ebmf::benchgen::known_optimal_matrix(10, 10, 5, rng));
  }
}
BENCHMARK(BM_KnownOptimalGenerator);

// ---- --json propagation-throughput summary ------------------------------

struct SatRun {
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  double seconds = 0.0;
  [[nodiscard]] double propagations_per_sec() const {
    return seconds > 0 ? static_cast<double>(propagations) / seconds : 0.0;
  }
};

/// Pigeonhole UNSAT proof (9 pigeons, 8 holes): small formula, deep search.
SatRun run_pigeonhole() {
  ebmf::sat::Solver s;
  constexpr int kHoles = 8;
  std::vector<std::vector<ebmf::sat::Lit>> x(kHoles + 1);
  for (auto& row : x)
    for (int h = 0; h < kHoles; ++h) row.push_back(ebmf::sat::pos(s.new_var()));
  for (auto& row : x) s.add_clause(ebmf::sat::Clause(row));
  for (int h = 0; h < kHoles; ++h)
    for (std::size_t p1 = 0; p1 < x.size(); ++p1)
      for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
        s.add_clause(x[p1][static_cast<std::size_t>(h)].neg(),
                     x[p2][static_cast<std::size_t>(h)].neg());
  ebmf::Stopwatch sw;
  (void)s.solve();
  SatRun run;
  run.seconds = sw.seconds();
  run.propagations = s.stats().propagations;
  run.conflicts = s.stats().conflicts;
  return run;
}

/// Large conflict-capped SMT decision formula (~330k clauses): the
/// cache-busting regime where clause-storage layout dominates.
SatRun run_large_smt() {
  ebmf::Rng rng(5);
  const auto gap = ebmf::benchgen::gap_matrix(24, 24, 8, rng);
  ebmf::smt::LabelFormula f(gap.matrix, ebmf::real_rank(gap.matrix));
  ebmf::Budget budget;
  budget.max_conflicts = 60000;
  ebmf::Stopwatch sw;
  (void)f.solve(budget);
  SatRun run;
  run.seconds = sw.seconds();
  run.propagations = f.solver().stats().propagations;
  run.conflicts = f.solver().stats().conflicts;
  return run;
}

/// Best-of-N to damp scheduler noise on shared machines.
template <typename Fn>
SatRun best_of(Fn fn, int reps) {
  SatRun best = fn();
  for (int r = 1; r < reps; ++r) {
    const SatRun run = fn();
    if (run.propagations_per_sec() > best.propagations_per_sec()) best = run;
  }
  return best;
}

/// One base of the routed repeat workload; `kind` cycles its four families
/// (logical 40x40, qLDPC 18x40, kron(logical, 3x3 checkerboard) and an
/// 18x18 checkerboard with atom loss) at fixed sizes.
ebmf::BinaryMatrix repeat_base(std::size_t kind, ebmf::Rng& rng) {
  using namespace ebmf::ftqc;
  switch (kind % 4) {
    case 0: return logical_pattern(40, 40, 0.03, rng);
    case 1: return qldpc_block_pattern(18, 40, 0.2, rng);
    case 2:
      return ebmf::BinaryMatrix::kron(logical_pattern(10, 10, 0.15, rng),
                                      checkerboard_patch(3, 0));
    default: {
      ebmf::BinaryMatrix m = checkerboard_patch(18, 0);
      for (std::size_t i = 0; i < 18; ++i)
        for (std::size_t j = 0; j < 18; ++j)
          if (m.test(i, j) && rng.below(8) == 0) m.set(i, j, false);
      return m;
    }
  }
}

ebmf::BinaryMatrix permuted_copy(const ebmf::BinaryMatrix& m,
                                 ebmf::Rng& rng) {
  const auto row_perm = rng.permutation(m.rows());
  const auto col_perm = rng.permutation(m.cols());
  ebmf::BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

struct CanonRun {
  double us_per_call = 0.0;
  std::size_t key_splits = 0;  ///< Bases whose permutations got >1 key.
};

constexpr std::size_t kBases = 64;
constexpr std::size_t kPermutations = 32;

/// kBases repeat bases x kPermutations row/column permutations each.
std::vector<ebmf::BinaryMatrix> repeat_pool() {
  ebmf::Rng rng(16);
  std::vector<ebmf::BinaryMatrix> pool;
  for (std::size_t b = 0; b < kBases; ++b) {
    ebmf::BinaryMatrix base;
    do {
      base = repeat_base(b, rng);
    } while (base.is_zero());
    for (std::size_t p = 0; p < kPermutations; ++p)
      pool.push_back(permuted_copy(base, rng));
  }
  return pool;
}

/// Micros per call of `fn` over the pool, best of 3 timed sweeps.
template <typename Fn>
double us_per_call(const std::vector<ebmf::BinaryMatrix>& pool, Fn fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    ebmf::Stopwatch sw;
    for (std::size_t i = 0; i < pool.size(); ++i) fn(i);
    const double us = sw.seconds() * 1e6 / static_cast<double>(pool.size());
    if (rep == 0 || us < best) best = us;
  }
  return best;
}

/// canonicalize over the repeat pool, and its key splits per base.
CanonRun run_canon(const std::vector<ebmf::BinaryMatrix>& pool) {
  CanonRun run;
  std::vector<ebmf::canon::CacheKey> keys(pool.size());
  run.us_per_call = us_per_call(pool, [&](std::size_t i) {
    keys[i] = ebmf::canon::canonicalize(pool[i]).key;
  });
  for (std::size_t b = 0; b < kBases; ++b) {
    const auto first =
        keys.begin() + static_cast<std::ptrdiff_t>(b * kPermutations);
    if (std::any_of(first, first + kPermutations,
                    [&](const auto& key) { return key != *first; }))
      ++run.key_splits;
  }
  return run;
}

/// The solver's preprocessing over the repeat pool.
double run_preprocess(const std::vector<ebmf::BinaryMatrix>& pool) {
  std::size_t components = 0;
  const double us = us_per_call(pool, [&](std::size_t i) {
    components +=
        ebmf::split_components(ebmf::reduce_duplicates(pool[i]).reduced)
            .size();
  });
  benchmark::DoNotOptimize(components);
  return us;
}

int json_summary() {
  const SatRun sat = best_of(run_pigeonhole, 3);
  const SatRun smt = best_of(run_large_smt, 3);
  const std::vector<ebmf::BinaryMatrix> pool = repeat_pool();
  const CanonRun canon = run_canon(pool);
  const double preprocess_us = run_preprocess(pool);
  std::printf(
      "{\"bench\":\"micro\",\"summary\":true,\"hardware_threads\":%u,"
      "\"sat\":{\"propagations\":%llu,\"conflicts\":%llu,\"seconds\":%.4f,"
      "\"propagations_per_sec\":%.0f},"
      "\"smt_large\":{\"propagations\":%llu,\"conflicts\":%llu,"
      "\"seconds\":%.4f,\"propagations_per_sec\":%.0f},"
      "\"canon\":{\"us_per_call\":%.3f,\"key_splits\":%zu},"
      "\"preprocess\":{\"us_per_call\":%.3f}}\n",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(sat.propagations),
      static_cast<unsigned long long>(sat.conflicts), sat.seconds,
      sat.propagations_per_sec(),
      static_cast<unsigned long long>(smt.propagations),
      static_cast<unsigned long long>(smt.conflicts), smt.seconds,
      smt.propagations_per_sec(), canon.us_per_call, canon.key_splits,
      preprocess_us);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return json_summary();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
