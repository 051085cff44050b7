#pragma once
/// \file canon.h
/// \brief Pattern canonicalization for the result cache (`ebmf::canon`).
///
/// The service's headline workload — repeated addressing of per-patch FTQC
/// patterns — solves the *same* pattern over and over, usually shifted by a
/// row/column permutation (the boundary row of patch 3 vs patch 7, the two
/// checkerboard parities, …). r_B is invariant under row/column permutation,
/// duplicate collapse, and connected-component decomposition, so all those
/// variants share one canonical representative:
///
///  1. **Dedup** — collapse duplicate rows/columns and drop zero ones.
///  2. **Split** — decompose into connected components of the bipartite
///     row/column graph.
///
///     Steps 1 and 2 are the solver's own reductions (core/preprocess.h),
///     run by the same flat-word passes (core/flat.h); canonicalization
///     adds refinement, block order and the key.
///  3. **Refine** — inside each component, compute the coarsest
///     equitable partition of rows and columns (as in nauty/Traces): a
///     line's signature is popcount(line AND cell mask) for every cell of
///     the other side, and cells split by signature until nothing changes.
///     Cells are numbered by (old cell, signature), so the numbering depends
///     only on the isomorphism type. When refinement leaves a cell of
///     several lines (symmetric patterns), each line of the first smallest
///     such cell is tried as a singleton, refined, and the choice with the
///     greatest quotient matrix is kept, until every cell is a singleton.
///     The cells are then the canonical row and column order.
///  4. **Order** — sort the components themselves by weight, shape and
///     content and reassemble block-diagonally into one canonical pattern.
///
/// Every step runs on flat row-major word arrays (one buffer per matrix
/// plus its transpose) from a reusable per-thread workspace, so a call
/// allocates only its result.
///
/// This is a *sound but incomplete* canonical form: two patterns with equal
/// canonical matrices are always row/column-permutation equivalent up to
/// duplicates (every step is invertible), but ties between individualized
/// lines that are not automorphic are taken in input order (as is every
/// tie once a per-call work budget is spent, on huge inputs), so some
/// equivalent pairs may land on different forms and merely miss the cache.
/// Lookups therefore compare the full canonical pattern, never just the
/// 128-bit key, so a hash collision can never serve a wrong result.
///
/// Canonical keeps, for every canonical row and column, the original lines
/// it stands for, in the same LiftMap record the solver's reductions use,
/// and lift() maps a partition of the canonical pattern back to a valid
/// partition of the original through it — the certificate a cache hit
/// replays.

#include <cstdint>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/partition.h"
#include "core/preprocess.h"

namespace ebmf::canon {

/// A 128-bit content hash of a canonical pattern (FNV-1a over shape and row
/// words, two independent bases). Collisions are guarded by full pattern
/// comparison at the cache, so the key only needs to spread well.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// Fold extra bytes (e.g. the strategy name) into this key.
  [[nodiscard]] CacheKey mixed_with(const std::string& bytes) const;

  /// 32 hex digits, hi then lo (stable across runs; telemetry-friendly).
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const CacheKey& a, const CacheKey& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) noexcept {
    return !(a == b);
  }
};

/// Hash functor so CacheKey can key unordered containers.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// A pattern's canonical form plus the record needed to lift a partition
/// of the canonical pattern back onto the original matrix.
struct Canonical {
  BinaryMatrix pattern;  ///< Deduped, ordered, block-diagonal canonical form.
  CacheKey key;          ///< Content hash of `pattern`.

  /// The shape of one connected component's diagonal block of `pattern`.
  struct Block {
    std::size_t rows = 0;
    std::size_t cols = 0;
  };
  std::vector<Block> components;  ///< In diagonal order.

  /// Canonical row i stands for the original rows map.rows[i] (i and its
  /// duplicates), and likewise for columns; the original shape is that of
  /// the matrix canonicalize() was called on.
  LiftMap map;
};

/// Canonicalize a pattern. Deterministic; r_B(pattern) == r_B(input).
Canonical canonicalize(const BinaryMatrix& m);

/// Lift a valid partition of `c.pattern` to a valid partition of the matrix
/// `c` was built from. Preserves the partition size (and hence any
/// optimality certificate: r_B is invariant under every canonical step).
inline Partition lift(const Partition& p, const Canonical& c) {
  return lift_partition(p, c.map);
}

}  // namespace ebmf::canon
