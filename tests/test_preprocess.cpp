// Tests for the exactness-preserving reductions: duplicate collapse and
// connected-component split, plus their interaction with SAP.

#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "benchgen/generators.h"
#include "core/bounds.h"
#include "core/brute_force.h"
#include "ftqc/patterns.h"
#include "smt/sap.h"
#include "support/rng.h"

namespace ebmf {
namespace {

/// The original lines behind derived line k, as a vector.
std::vector<std::size_t> sources(const LineSources& lines, std::size_t k) {
  return {lines[k].begin(), lines[k].end()};
}

TEST(Dedup, CollapsesDuplicatesAndZeros) {
  const auto m = BinaryMatrix::parse(
      "1100"
      ";1100"
      ";0000"
      ";0011"
      ";1100");
  const auto r = reduce_duplicates(m);
  EXPECT_EQ(r.reduced.rows(), 2u);  // {1100}, {0011}
  EXPECT_EQ(r.reduced.cols(), 2u);  // cols 0==1, 2==3
  EXPECT_EQ(sources(r.map.rows, 0), (std::vector<std::size_t>{0, 1, 4}));
  EXPECT_EQ(sources(r.map.rows, 1), (std::vector<std::size_t>{3}));
  EXPECT_EQ(sources(r.map.cols, 0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sources(r.map.cols, 1), (std::vector<std::size_t>{2, 3}));
}

TEST(Dedup, ZeroMatrixReducesToEmpty) {
  const BinaryMatrix z(3, 3);
  const auto r = reduce_duplicates(z);
  EXPECT_EQ(r.reduced.rows(), 0u);
  EXPECT_EQ(r.reduced.cols(), 0u);
}

TEST(Dedup, IdempotentOnIrreducible) {
  const auto m = BinaryMatrix::parse("110;011;111");
  const auto r = reduce_duplicates(m);
  EXPECT_EQ(r.reduced, m);
}

TEST(Dedup, PreservesRankAndBinaryRank) {
  Rng rng(41);
  for (int t = 0; t < 15; ++t) {
    auto m = BinaryMatrix::random(4, 4, 0.5, rng);
    // Duplicate some rows/cols by hand: append row 0 and col 0 copies.
    BinaryMatrix big(6, 5);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j)
        if (m.test(i, j)) big.set(i, j);
    for (std::size_t j = 0; j < 4; ++j) {
      if (m.test(0, j)) big.set(4, j);
      if (m.test(1, j)) big.set(5, j);
    }
    for (std::size_t i = 0; i < 4; ++i)
      if (m.test(i, 0)) big.set(i, 4);
    if (m.test(0, 0)) big.set(4, 4);
    if (m.test(1, 0)) big.set(5, 4);
    if (big.is_zero()) continue;
    const auto r = reduce_duplicates(big);
    EXPECT_EQ(real_rank(r.reduced), real_rank(big));
    const auto brute_red = brute_force_ebmf(r.reduced);
    const auto brute_big = brute_force_ebmf(big);
    ASSERT_TRUE(brute_red && brute_big);
    EXPECT_EQ(brute_red->binary_rank, brute_big->binary_rank);
  }
}

TEST(Dedup, ExpandedPartitionIsValid) {
  const auto m = BinaryMatrix::parse(
      "1100"
      ";1100"
      ";0011"
      ";0011");
  const auto r = reduce_duplicates(m);
  const auto brute = brute_force_ebmf(r.reduced);
  ASSERT_TRUE(brute.has_value());
  const auto expanded = lift_partition(brute->partition, r.map);
  const auto v = validate_partition(m, expanded);
  EXPECT_TRUE(v.ok) << v.reason;
  EXPECT_EQ(expanded.size(), brute->binary_rank);
}

TEST(Components, BlockDiagonalSplits) {
  const auto m = BinaryMatrix::parse(
      "1100"
      ";1000"
      ";0011"
      ";0001");
  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].matrix.rows() + comps[1].matrix.rows(), 4u);
  std::size_t total_ones = 0;
  for (const auto& c : comps) total_ones += c.matrix.ones_count();
  EXPECT_EQ(total_ones, m.ones_count());
}

TEST(Components, ConnectedMatrixIsOneComponent) {
  const auto m = BinaryMatrix::parse("110;011;111");
  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].matrix, m);
}

TEST(Components, ZeroMatrixHasNone) {
  const BinaryMatrix z(4, 4);
  EXPECT_TRUE(split_components(z).empty());
}

TEST(Components, InterleavedComponentsSeparate) {
  // Odd/even column groups interleaved across rows.
  const auto m = BinaryMatrix::parse(
      "1010"
      ";0101"
      ";1010");
  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 2u);
}

TEST(Components, LiftedPartitionsConcatenateValidly) {
  Rng rng(43);
  for (int t = 0; t < 15; ++t) {
    const auto m = BinaryMatrix::random(8, 8, 0.12, rng);  // sparse: splits
    const auto comps = split_components(m);
    Partition combined;
    for (const auto& comp : comps) {
      const auto brute = brute_force_ebmf(comp.matrix);
      ASSERT_TRUE(brute.has_value());
      auto lifted = lift_partition(brute->partition, comp.map);
      combined.insert(combined.end(), lifted.begin(), lifted.end());
    }
    const auto v = validate_partition(m, combined);
    EXPECT_TRUE(v.ok) << v.reason;
  }
}

TEST(Components, RankIsAdditive) {
  Rng rng(44);
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(10, 10, 0.1, rng);
    const auto comps = split_components(m);
    std::size_t sum = 0;
    for (const auto& c : comps) sum += real_rank(c.matrix);
    EXPECT_EQ(sum, real_rank(m));
  }
}

// ---- naive O(n²) reference for the reduction ------------------------------

using Lines = std::vector<std::vector<std::size_t>>;

/// Group the equal nonzero rows of `m` in first-occurrence order by
/// comparing every row with the first row of every group so far.
Lines naive_groups(const BinaryMatrix& m) {
  Lines groups;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (m.row(i).none()) continue;
    const auto same = std::find_if(groups.begin(), groups.end(), [&](auto& g) {
      return m.row(g[0]) == m.row(i);
    });
    if (same == groups.end())
      groups.push_back({i});
    else
      same->push_back(i);
  }
  return groups;
}

struct NaiveReduction {
  BinaryMatrix reduced;
  Lines row_groups, col_groups;
};

NaiveReduction naive_reduce(const BinaryMatrix& m) {
  NaiveReduction out;
  out.row_groups = naive_groups(m);
  BinaryMatrix row_reduced(out.row_groups.size(), m.cols());
  for (std::size_t k = 0; k < out.row_groups.size(); ++k)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(out.row_groups[k][0], j)) row_reduced.set(k, j);
  out.col_groups = naive_groups(row_reduced.transposed());
  out.reduced = BinaryMatrix(out.row_groups.size(), out.col_groups.size());
  for (std::size_t k = 0; k < out.row_groups.size(); ++k)
    for (std::size_t l = 0; l < out.col_groups.size(); ++l)
      if (row_reduced.test(k, out.col_groups[l][0])) out.reduced.set(k, l);
  return out;
}

/// Components by flood fill over the cells, numbered by their lowest row,
/// members ascending: {rows, cols} per component.
std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
naive_components(const BinaryMatrix& m) {
  std::vector<int> row_label(m.rows(), -1), col_label(m.cols(), -1);
  int labels = 0;
  for (std::size_t start = 0; start < m.rows(); ++start) {
    if (row_label[start] >= 0 || m.row(start).none()) continue;
    row_label[start] = labels;
    for (bool grew = true; grew;) {
      grew = false;
      for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j) {
          if (!m.test(i, j) ||
              (row_label[i] != labels && col_label[j] != labels))
            continue;
          if (row_label[i] != labels || col_label[j] != labels) grew = true;
          row_label[i] = col_label[j] = labels;
        }
    }
    ++labels;
  }
  std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      out(static_cast<std::size_t>(labels));
  for (std::size_t i = 0; i < m.rows(); ++i)
    if (row_label[i] >= 0)
      out[static_cast<std::size_t>(row_label[i])].first.push_back(i);
  for (std::size_t j = 0; j < m.cols(); ++j)
    if (col_label[j] >= 0)
      out[static_cast<std::size_t>(col_label[j])].second.push_back(j);
  return out;
}

/// One rectangle per row: a valid partition of any matrix with no zero row.
Partition row_partition(const BinaryMatrix& m) {
  Partition p;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    Rectangle r{BitVec(m.rows()), m.row(i)};
    r.rows.set(i);
    p.push_back(std::move(r));
  }
  return p;
}

void expect_matches_reference(const BinaryMatrix& m) {
  SCOPED_TRACE(std::to_string(m.rows()) + "x" + std::to_string(m.cols()));
  const NaiveReduction ref = naive_reduce(m);
  const DuplicateReduction r = reduce_duplicates(m);
  EXPECT_EQ(r.reduced, ref.reduced);
  ASSERT_EQ(r.map.rows.size(), ref.row_groups.size());
  ASSERT_EQ(r.map.cols.size(), ref.col_groups.size());
  for (std::size_t k = 0; k < ref.row_groups.size(); ++k)
    EXPECT_EQ(sources(r.map.rows, k), ref.row_groups[k]);
  for (std::size_t k = 0; k < ref.col_groups.size(); ++k)
    EXPECT_EQ(sources(r.map.cols, k), ref.col_groups[k]);
  EXPECT_EQ(r.map.original_rows, m.rows());
  EXPECT_EQ(r.map.original_cols, m.cols());

  const auto ref_components = naive_components(r.reduced);
  const auto components = split_components(r.reduced);
  ASSERT_EQ(components.size(), ref_components.size());
  Partition reduced_partition;
  std::size_t pieces = 0;
  for (std::size_t c = 0; c < components.size(); ++c) {
    const Component& comp = components[c];
    const auto& [rows, cols] = ref_components[c];
    ASSERT_EQ(comp.map.rows.size(), rows.size());
    ASSERT_EQ(comp.map.cols.size(), cols.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(sources(comp.map.rows, i), std::vector{rows[i]});
    for (std::size_t j = 0; j < cols.size(); ++j)
      EXPECT_EQ(sources(comp.map.cols, j), std::vector{cols[j]});
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t j = 0; j < cols.size(); ++j)
        EXPECT_EQ(comp.matrix.test(i, j), r.reduced.test(rows[i], cols[j]));
    const Partition piece = row_partition(comp.matrix);
    pieces += piece.size();
    Partition lifted = lift_partition(piece, comp.map);
    reduced_partition.insert(reduced_partition.end(), lifted.begin(),
                             lifted.end());
  }
  EXPECT_TRUE(validate_partition(r.reduced, reduced_partition).ok);
  const Partition original = lift_partition(reduced_partition, r.map);
  EXPECT_EQ(original.size(), pieces);
  EXPECT_TRUE(validate_partition(m, original).ok);
}

/// `base` with its rows and columns repeated in a shuffled order, so every
/// line has duplicates far from it; `cols` columns wide.
BinaryMatrix with_duplicates(std::size_t rows, std::size_t cols, Rng& rng) {
  const BinaryMatrix base =
      BinaryMatrix::random(rows / 2 + 1, cols / 2 + 1, 0.08, rng);
  BinaryMatrix m(rows, cols);
  std::vector<std::size_t> row_of(rows), col_of(cols);
  for (auto& x : row_of) x = rng.below(base.rows());
  for (auto& x : col_of) x = rng.below(base.cols());
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (base.test(row_of[i], col_of[j])) m.set(i, j);
  return m;
}

TEST(ReductionReference, BenchgenFamilies) {
  Rng rng(19);
  expect_matches_reference(benchgen::random_matrix(30, 40, 0.05, rng));
  expect_matches_reference(benchgen::random_matrix(20, 20, 0.4, rng));
  expect_matches_reference(
      benchgen::known_optimal_matrix(20, 24, 5, rng).matrix);
  expect_matches_reference(benchgen::gap_matrix(12, 12, 3, rng).matrix);
  expect_matches_reference(benchgen::qldpc_block_matrix(6, 12, 0.3, rng));
  expect_matches_reference(benchgen::neutral_atom_matrix(24, 24, 0.1, rng));
  expect_matches_reference(ftqc::logical_pattern(40, 40, 0.03, rng));
  expect_matches_reference(ftqc::qldpc_block_pattern(18, 40, 0.2, rng));
  expect_matches_reference(ftqc::checkerboard_patch(7, 1));
  expect_matches_reference(ftqc::boundary_row_patch(5, 2));
}

TEST(ReductionReference, DegenerateShapes) {
  Rng rng(20);
  expect_matches_reference(BinaryMatrix());
  expect_matches_reference(BinaryMatrix(0, 7));
  expect_matches_reference(BinaryMatrix(7, 0));
  expect_matches_reference(BinaryMatrix(5, 9));
  expect_matches_reference(BinaryMatrix::random(1, 70, 0.3, rng));
  expect_matches_reference(BinaryMatrix::random(70, 1, 0.3, rng));
  expect_matches_reference(BinaryMatrix::parse("1"));
}

TEST(ReductionReference, WordBoundaryWidths) {
  Rng rng(21);
  for (const std::size_t cols : {63u, 64u, 65u, 128u, 129u}) {
    expect_matches_reference(with_duplicates(40, cols, rng));
    expect_matches_reference(with_duplicates(cols, 40, rng));
    expect_matches_reference(BinaryMatrix::random(20, cols, 0.02, rng));
  }
}

TEST(SapPreprocess, SameAnswerWithAndWithout) {
  Rng rng(45);
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(6, 6, 0.25, rng);
    if (m.is_zero()) continue;
    SapOptions with;
    with.preprocess = true;
    SapOptions without;
    without.preprocess = false;
    const auto a = sap_solve(m, with);
    const auto b = sap_solve(m, without);
    ASSERT_TRUE(a.proven_optimal());
    ASSERT_TRUE(b.proven_optimal());
    EXPECT_EQ(a.depth(), b.depth()) << m.to_string();
    EXPECT_EQ(a.rank_lower, b.rank_lower);
    EXPECT_TRUE(validate_partition(m, a.partition).ok);
  }
}

TEST(SapPreprocess, SparseLargeMatrixExactlySolved) {
  // The paper's "too large for SMT" regime: 60x60 at 2% shatters into tiny
  // components, each exactly solvable - preprocessing turns the whole
  // instance provably optimal.
  Rng rng(46);
  const auto m = BinaryMatrix::random(60, 60, 0.02, rng);
  SapOptions opt;
  opt.budget.deadline = Deadline::after(20.0);
  const auto r = sap_solve(m, opt);
  EXPECT_TRUE(r.proven_optimal());
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

TEST(SapPreprocess, DuplicateHeavyMatrixShrinks) {
  // 12 copies of 3 distinct rows: the reduced problem is 3 rows.
  Rng rng(47);
  const auto base = BinaryMatrix::random(3, 8, 0.5, rng);
  std::vector<BitVec> rows;
  for (int copy = 0; copy < 4; ++copy)
    for (std::size_t i = 0; i < 3; ++i) rows.push_back(base.row(i));
  const auto m = BinaryMatrix::from_rows(rows, 8);
  if (m.is_zero()) GTEST_SKIP();
  const auto r = sap_solve(m);
  EXPECT_TRUE(r.proven_optimal());
  EXPECT_LE(r.depth(), 3u);
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

}  // namespace
}  // namespace ebmf
