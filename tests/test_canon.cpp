// Tests for ebmf::canon: lift round-trips (property-style over benchgen
// matrices), permutation-invariant keys for the workloads the cache serves,
// determinism and idempotence of the canonical form, and agreement of
// concurrent calls (each thread canonicalizes in its own workspace).

#include "service/canon.h"

#include <gtest/gtest.h>

#include <thread>

#include "benchgen/generators.h"
#include "engine/engine.h"
#include "ftqc/patterns.h"
#include "support/rng.h"

namespace ebmf::canon {
namespace {

/// Apply row/column permutations: out[i][j] = m[row_perm[i]][col_perm[j]].
BinaryMatrix permuted(const BinaryMatrix& m,
                      const std::vector<std::size_t>& row_perm,
                      const std::vector<std::size_t>& col_perm) {
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

/// The per-patch pattern the routed repeat workload serves most: an 18x18
/// checkerboard with atom loss (each addressed site empty w.p. 1/8).
BinaryMatrix lossy_checkerboard(Rng& rng) {
  BinaryMatrix m = ftqc::checkerboard_patch(18, 0);
  for (std::size_t i = 0; i < 18; ++i)
    for (std::size_t j = 0; j < 18; ++j)
      if (m.test(i, j) && rng.below(8) == 0) m.set(i, j, false);
  return m;
}

/// One base of the routed repeat workload's four families, by `kind`.
BinaryMatrix repeat_base(std::size_t kind, Rng& rng) {
  switch (kind % 4) {
    case 0: return ftqc::logical_pattern(40, 40, 0.03, rng);
    case 1: return ftqc::qldpc_block_pattern(18, 40, 0.2, rng);
    case 2:
      return BinaryMatrix::kron(ftqc::logical_pattern(10, 10, 0.15, rng),
                                ftqc::checkerboard_patch(3, 0));
    default: return lossy_checkerboard(rng);
  }
}

BinaryMatrix randomly_permuted(const BinaryMatrix& m, Rng& rng) {
  return permuted(m, rng.permutation(m.rows()), rng.permutation(m.cols()));
}

/// How many of 64 bases drawn by `draw` get more than one key over 32
/// random row/column permutations each.
template <typename Draw>
int bases_with_split_keys(Draw draw, Rng& rng) {
  int split = 0;
  for (int base = 0; base < 64; ++base) {
    const BinaryMatrix m = draw(rng);
    const CacheKey key = canonicalize(m).key;
    for (int p = 0; p < 32; ++p) {
      if (canonicalize(randomly_permuted(m, rng)).key != key) {
        ++split;
        break;
      }
    }
  }
  return split;
}

TEST(Canon, CanonicalPatternPreservesBinaryRankWitness) {
  // Solving the canonical pattern and lifting must give a valid partition
  // of the original with the same depth — the cache's core contract.
  Rng rng(42);
  const engine::Engine engine;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t m = 4 + rng.below(8);
    const std::size_t n = 4 + rng.below(8);
    const double occupancy = 0.1 + 0.1 * static_cast<double>(trial % 6);
    const BinaryMatrix a = benchgen::random_matrix(m, n, occupancy, rng);
    const Canonical canonical = canonicalize(a);
    auto request = engine::SolveRequest::dense(canonical.pattern, "heuristic");
    request.trials = 20;
    const auto report = engine.solve(request);
    const Partition lifted = lift(report.partition, canonical);
    const auto validation = validate_partition(a, lifted);
    EXPECT_TRUE(validation.ok) << validation.reason;
    EXPECT_EQ(lifted.size(), report.partition.size());
  }
}

TEST(Canon, LiftRoundTripsForKnownOptimalFamily) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const auto inst = benchgen::known_optimal_matrix(10, 10, 4, rng);
    const Canonical canonical = canonicalize(inst.matrix);
    const engine::Engine engine;
    const auto report = engine.solve(
        engine::SolveRequest::dense(canonical.pattern, "heuristic"));
    const Partition lifted = lift(report.partition, canonical);
    EXPECT_TRUE(validate_partition(inst.matrix, lifted).ok);
  }
}

TEST(Canon, KeyInvariantUnderRowColPermutation) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const BinaryMatrix a = benchgen::random_matrix(8, 9, 0.35, rng);
    const auto row_perm = rng.permutation(a.rows());
    const auto col_perm = rng.permutation(a.cols());
    const BinaryMatrix b = permuted(a, row_perm, col_perm);
    const Canonical ca = canonicalize(a);
    const Canonical cb = canonicalize(b);
    EXPECT_EQ(ca.key, cb.key) << "trial " << trial;
    EXPECT_EQ(ca.pattern, cb.pattern) << "trial " << trial;
  }
}

TEST(Canon, ServedFamiliesGetOneKeyPerBase) {
  // Lossy checkerboards are the symmetric case: equitable refinement
  // leaves cells of automorphic lines that only individualization orders.
  Rng rng(16);
  EXPECT_EQ(bases_with_split_keys(lossy_checkerboard, rng), 0);
  EXPECT_EQ(bases_with_split_keys(
                [](Rng& r) { return ftqc::logical_pattern(40, 40, 0.03, r); },
                rng),
            0);
}

TEST(Canon, CanonicalPatternIsAFixpoint) {
  // The replica put handler refuses a pattern that does not canonicalize
  // to itself, so every canonical pattern must be a fixpoint.
  Rng rng(17);
  std::vector<BinaryMatrix> inputs;
  for (std::size_t b = 0; b < 64; ++b)
    inputs.push_back(randomly_permuted(repeat_base(b, rng), rng));
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t m = 1 + rng.below(24);
    const std::size_t n = 1 + rng.below(24);
    inputs.push_back(benchgen::random_matrix(
        m, n, 0.05 + 0.9 * static_cast<double>(trial % 8) / 8.0, rng));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Canonical c = canonicalize(inputs[i]);
    const Canonical again = canonicalize(c.pattern);
    EXPECT_EQ(again.pattern, c.pattern) << "input " << i;
    EXPECT_EQ(again.key, c.key) << "input " << i;
  }
}

TEST(Canon, ConcurrentCallsAgree) {
  Rng rng(18);
  std::vector<BinaryMatrix> pool;
  for (std::size_t b = 0; b < 64; ++b)
    pool.push_back(randomly_permuted(repeat_base(b, rng), rng));
  for (int trial = 0; trial < 32; ++trial)
    pool.push_back(benchgen::random_matrix(4 + rng.below(40),
                                           4 + rng.below(40), 0.3, rng));
  std::vector<Canonical> serial;
  for (const BinaryMatrix& m : pool) serial.push_back(canonicalize(m));

  constexpr std::size_t kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different slot so the calls interleave.
      for (std::size_t k = 0; k < pool.size(); ++k) {
        const std::size_t i = (k + t * pool.size() / kThreads) % pool.size();
        const Canonical c = canonicalize(pool[i]);
        if (c.key != serial[i].key || !(c.pattern == serial[i].pattern))
          ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(Canon, FtqcPatchVariantsShareOneCanonicalForm) {
  // The service's headline repeats: the same per-patch pattern shifted
  // around. Boundary rows at different offsets and the two checkerboard
  // parities must all collapse onto one cache entry.
  const Canonical row2 = canonicalize(ftqc::boundary_row_patch(7, 2));
  const Canonical row5 = canonicalize(ftqc::boundary_row_patch(7, 5));
  EXPECT_EQ(row2.key, row5.key);
  EXPECT_EQ(row2.pattern, row5.pattern);

  const Canonical even = canonicalize(ftqc::checkerboard_patch(6, 0));
  const Canonical odd = canonicalize(ftqc::checkerboard_patch(6, 1));
  EXPECT_EQ(even.key, odd.key);
  EXPECT_EQ(even.pattern, odd.pattern);
}

TEST(Canon, ComponentOrderIsCanonical) {
  // The same two blocks laid out in either diagonal order canonicalize
  // identically (components are re-sorted by content).
  const BinaryMatrix x = BinaryMatrix::parse("110;011;111");
  const BinaryMatrix y = BinaryMatrix::parse("11;10");
  BinaryMatrix xy(5, 5);
  BinaryMatrix yx(5, 5);
  for (const auto& [i, j] : x.ones()) {
    xy.set(i, j);
    yx.set(i + 2, j + 2);
  }
  for (const auto& [i, j] : y.ones()) {
    xy.set(i + 3, j + 3);
    yx.set(i, j);
  }
  const Canonical a = canonicalize(xy);
  const Canonical b = canonicalize(yx);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.components.size(), 2u);
}

TEST(Canon, DuplicatesCollapse) {
  // Duplicate rows/cols and zero lines vanish from the canonical form.
  const BinaryMatrix a = BinaryMatrix::parse("1010;1010;0000;0101");
  const Canonical c = canonicalize(a);
  EXPECT_EQ(c.pattern.rows(), 2u);
  EXPECT_EQ(c.pattern.cols(), 2u);
  // An all-ones row pattern of any width dedups to a single 1x1 block.
  const Canonical one = canonicalize(ftqc::transversal_patch(5));
  EXPECT_EQ(one.pattern.rows(), 1u);
  EXPECT_EQ(one.pattern.cols(), 1u);
}

TEST(Canon, DistinctPatternsGetDistinctKeys) {
  const Canonical a = canonicalize(BinaryMatrix::parse("110;011;111"));
  const Canonical b = canonicalize(
      BinaryMatrix::parse("101100;010011;101010;010101;111000;000111"));
  EXPECT_NE(a.key, b.key);
  // Mixing the strategy name produces a distinct key for the same pattern.
  EXPECT_NE(a.key, a.key.mixed_with("sap"));
  EXPECT_NE(a.key.mixed_with("sap"), a.key.mixed_with("heuristic"));
}

TEST(Canon, ZeroAndEmptyMatricesAreStable) {
  const Canonical zero = canonicalize(BinaryMatrix(4, 6));
  EXPECT_EQ(zero.pattern.rows(), 0u);
  EXPECT_EQ(zero.pattern.cols(), 0u);
  EXPECT_TRUE(lift({}, zero).empty());
  const Canonical empty = canonicalize(BinaryMatrix());
  EXPECT_EQ(zero.key, empty.key);  // both canonicalize to the 0x0 pattern
}

TEST(Canon, KeyHexIsStable32Digits) {
  const Canonical c = canonicalize(BinaryMatrix::parse("10;01"));
  EXPECT_EQ(c.key.hex().size(), 32u);
  EXPECT_EQ(c.key.hex(), canonicalize(BinaryMatrix::parse("10;01")).key.hex());
}

TEST(Canon, GoldenKeysOfTheRepeatFamilies) {
  // Result-cache snapshots (`--cache-file`) are keyed by these digests, so
  // a refactor of the canonical form must keep them or every saved entry
  // misses. One base per repeat family, plus the paper's Fig. 1b.
  const char* const golden[] = {
      "37f341ed211477fb81ff99f339812278", "05d72075e079e0e455ba8f0aea55059f",
      "6af696837393c0f308168a716cc2d904", "18ae8498f1a2a6c0307e73b5431f2517"};
  for (std::size_t kind = 0; kind < 4; ++kind) {
    Rng rng(1900 + kind);
    EXPECT_EQ(canonicalize(repeat_base(kind, rng)).key.hex(), golden[kind])
        << "family " << kind;
  }
  const BinaryMatrix fig1b = BinaryMatrix::parse(
      "101100;010011;101010;010101;111000;000111");
  EXPECT_EQ(canonicalize(fig1b).key.hex(), "fe76edab8f5d4739eb3876c4ff50a26e");
}

}  // namespace
}  // namespace ebmf::canon
