#pragma once
/// \file preprocess.h
/// \brief Exactness-preserving problem reductions applied before search.
///
/// Two structural facts about rectangle partitions enable large reductions
/// with no loss of optimality:
///
///  1. **Duplicates.** Equal rows always join the same rectangles (their 1s
///     are partitioned identically WLOG), so r_B is invariant under
///     collapsing duplicate rows/columns and dropping zero ones. The paper
///     uses this inside the trivial heuristic; applying it *before the SMT
///     phase* shrinks the formula quadratically.
///
///  2. **Connected components.** A rectangle is a biclique of the bipartite
///     row/column graph, hence connected: no rectangle spans two connected
///     components, so r_B(M) = Σ r_B(component). Sparse patterns (the
///     paper's 100×100 at 1–5% occupancy) shatter into many small
///     components, each individually within reach of the exact solver even
///     though the whole matrix is "too large for SMT" (paper §IV-B).
///
/// Both reductions run on flat word arrays (core/flat.h), the same passes
/// the result cache's canonical form (service/canon.h) builds on. Each
/// returns a LiftMap, and lift_partition() maps a partition of the smaller
/// matrix back through it; lifting preserves validity and size.

#include <span>
#include <vector>

#include "core/matrix.h"
#include "core/partition.h"

namespace ebmf {

/// Where the lines of a derived matrix come from: line k stands for the
/// original lines source[start[k] .. start[k + 1]) — a duplicate group, a
/// component line's one original line, or a canonical line and its copies.
struct LineSources {
  std::vector<std::size_t> start{0};
  std::vector<std::size_t> source;

  /// Number of derived lines.
  [[nodiscard]] std::size_t size() const { return start.size() - 1; }
  /// The original lines behind derived line k, ascending.
  [[nodiscard]] std::span<const std::size_t> operator[](std::size_t k) const {
    return {source.data() + start[k], start[k + 1] - start[k]};
  }
};

/// The record that lifts a partition of a derived matrix onto the matrix
/// it was derived from.
struct LiftMap {
  LineSources rows;
  LineSources cols;
  std::size_t original_rows = 0;
  std::size_t original_cols = 0;
};

/// Lift a partition of a derived matrix back to the original: each
/// rectangle's rows and columns expand to the lines they stand for.
Partition lift_partition(const Partition& p, const LiftMap& map);

/// Duplicate/zero row-and-column reduction of a matrix.
struct DuplicateReduction {
  BinaryMatrix reduced;  ///< No zero or duplicate rows/columns.
  /// Reduced row i stands for the duplicate group map.rows[i] (first
  /// occurrence order), and likewise for columns.
  LiftMap map;
};

/// Collapse duplicate rows and columns and drop zero ones.
/// r_B(reduced) == r_B(m); zero matrix reduces to 0×0.
DuplicateReduction reduce_duplicates(const BinaryMatrix& m);

/// One connected component of the bipartite row/column graph.
struct Component {
  BinaryMatrix matrix;  ///< The component's submatrix.
  LiftMap map;          ///< Component row/column -> one original line.
};

/// Split into connected components (rows/cols with no 1s appear in none),
/// numbered by their lowest row. The components' ones partition the ones
/// of `m`.
std::vector<Component> split_components(const BinaryMatrix& m);

}  // namespace ebmf
