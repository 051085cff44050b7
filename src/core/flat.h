#pragma once
/// \file flat.h
/// \brief Bit matrices as flat word arrays, and the duplicate collapse and
/// component search on them that the solver's preprocessing
/// (core/preprocess.h) and the cache's canonical form (service/canon.h)
/// share. The objects keep their buffers, so a reused one allocates nothing
/// once grown. Internal to the library.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/matrix.h"

namespace ebmf::flat {

using Word = std::uint64_t;
using Index = std::uint32_t;
using Indices = std::vector<Index>;

constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// A bit matrix as one flat row-major word array, `stride` words per line.
struct Flat {
  std::size_t lines = 0, bits = 0, stride = 0;
  std::vector<Word> words;

  void reset(std::size_t n_lines, std::size_t n_bits) {
    lines = n_lines;
    bits = n_bits;
    stride = words_for(n_bits);
    words.assign(lines * stride, 0);
  }
  /// Become a copy of `m`, one line per row.
  void load(const BinaryMatrix& m) {
    reset(m.rows(), m.cols());
    for (std::size_t i = 0; i < lines; ++i)
      std::copy_n(m.row(i).words().data(), stride, line(i));
  }
  Word* line(std::size_t i) { return words.data() + i * stride; }
  [[nodiscard]] const Word* line(std::size_t i) const {
    return words.data() + i * stride;
  }
  void set(std::size_t i, std::size_t j) {
    words[i * stride + (j >> 6)] |= Word{1} << (j & 63);
  }
};

/// Call fn(j) for every set bit j of a `stride`-word line, ascending.
template <typename Fn>
void for_each_bit(const Word* line, std::size_t stride, Fn&& fn) {
  for (std::size_t w = 0; w < stride; ++w)
    for (Word x = line[w]; x != 0; x &= x - 1)
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(x)));
}

/// `t` becomes the transpose of `a`.
inline void transpose(const Flat& a, Flat& t) {
  t.reset(a.bits, a.lines);
  for (std::size_t i = 0; i < a.lines; ++i)
    for_each_bit(a.line(i), a.stride, [&](std::size_t j) { t.set(j, i); });
}

/// Bucket lines by class (a cell, or a duplicate group): afterwards the
/// lines of class x are order[start[x] .. start[x + 1]), ascending.
inline void bucket_by_cell(const Indices& cell, std::size_t cells,
                           Indices& start, Indices& order) {
  start.assign(cells + 1, 0);
  for (const Index x : cell) ++start[x + 1];
  for (std::size_t x = 0; x < cells; ++x) start[x + 1] += start[x];
  order.resize(cell.size());
  for (std::size_t i = 0; i < cell.size(); ++i)
    order[start[cell[i]]++] = static_cast<Index>(i);
  for (std::size_t x = cells; x > 0; --x) start[x] = start[x - 1];
  start[0] = 0;
}

/// The distinct nonzero lines of a Flat in order of first occurrence: line
/// k of the reduced matrix is `rep[k]`, and
/// members[start[k] .. start[k + 1]) are all of its copies, ascending.
struct Groups {
  Indices rep, start, members;
  Indices table, group_of;  ///< group_lines() scratch.
};

/// Group the equal nonzero lines of `f` in order of first occurrence: each
/// line's words are hashed into an open-addressed table of group ids.
inline void group_lines(const Flat& f, Groups& g) {
  constexpr Index kNone = ~Index{0};
  std::size_t size = 1;
  while (size < 2 * f.lines) size <<= 1;
  g.table.assign(size, kNone);
  g.group_of.resize(f.lines);
  g.rep.clear();
  for (std::size_t i = 0; i < f.lines; ++i) {
    const Word* line = f.line(i);
    if (std::all_of(line, line + f.stride, [](Word w) { return w == 0; })) {
      g.group_of[i] = kNone;
      continue;
    }
    Word h = 0;
    for (std::size_t w = 0; w < f.stride; ++w)
      h = (h ^ line[w]) * 0x9e3779b97f4a7c15ULL;
    std::size_t slot = (h ^ (h >> 29)) & (size - 1);
    while (g.table[slot] != kNone &&
           !std::equal(line, line + f.stride, f.line(g.rep[g.table[slot]])))
      slot = (slot + 1) & (size - 1);
    if (g.table[slot] == kNone) {
      g.table[slot] = static_cast<Index>(g.rep.size());
      g.rep.push_back(static_cast<Index>(i));
    }
    g.group_of[i] = g.table[slot];
  }
  // Zero lines join one last group that no reduced line reads.
  for (Index& group : g.group_of)
    if (group == kNone) group = static_cast<Index>(g.rep.size());
  bucket_by_cell(g.group_of, g.rep.size() + 1, g.start, g.members);
}

/// Collapse duplicate rows and columns of a matrix and drop zero ones.
/// Reduced row k stands for the input rows in `row_groups` group k, and
/// likewise for columns; both keep first-occurrence order.
struct Dedup {
  Flat input, input_t;  ///< The input and its row-reduced transpose.
  Groups row_groups, col_groups;
  Flat rows, cols;  ///< The reduced matrix and its transpose.

  void run(const BinaryMatrix& m) {
    // Group equal rows, then equal columns of the distinct rows.
    input.load(m);
    group_lines(input, row_groups);
    const std::size_t reduced_rows = row_groups.rep.size();
    input_t.reset(m.cols(), reduced_rows);
    for (std::size_t k = 0; k < reduced_rows; ++k)
      for_each_bit(input.line(row_groups.rep[k]), input.stride,
                   [&](std::size_t j) { input_t.set(j, k); });
    group_lines(input_t, col_groups);
    const std::size_t reduced_cols = col_groups.rep.size();
    cols.reset(reduced_cols, reduced_rows);
    for (std::size_t k = 0; k < reduced_cols; ++k)
      std::copy_n(input_t.line(col_groups.rep[k]), cols.stride, cols.line(k));
    transpose(cols, rows);
  }
};

/// One breadth-first hop: `next` becomes the lines reachable through
/// `adjacency` from the set bits of `frontier` that are not `seen` yet, and
/// joins `seen` and `component`. Returns false when nothing new was reached.
inline bool hop(const std::vector<Word>& frontier, const Flat& adjacency,
                std::vector<Word>& next, std::vector<Word>& seen,
                std::vector<Word>& component) {
  next.assign(adjacency.stride, 0);
  for_each_bit(frontier.data(), frontier.size(), [&](std::size_t i) {
    const Word* line = adjacency.line(i);
    for (std::size_t w = 0; w < next.size(); ++w) next[w] |= line[w];
  });
  bool any = false;
  for (std::size_t w = 0; w < next.size(); ++w) {
    next[w] &= ~seen[w];
    seen[w] |= next[w];
    component[w] |= next[w];
    any |= next[w] != 0;
  }
  return any;
}

/// Connected components of the bipartite row/column graph, found by a
/// word-parallel breadth-first search over row and column masks.
/// Components come in order of their lowest row, members ascending; rows
/// and columns with no 1s belong to none.
class ComponentSearch {
 public:
  /// Start over on the matrix `rows` with transpose `cols`.
  void begin(const Flat& rows, const Flat& cols) {
    cursor_ = 0;
    seen_rows_.assign(cols.stride, 0);
    seen_cols_.assign(rows.stride, 0);
  }
  /// Find the next component of the pair given to begin() into
  /// `comp_rows` / `comp_cols`; false when every one has been found.
  bool next(const Flat& rows, const Flat& cols) {
    for (; cursor_ < rows.lines; ++cursor_) {
      const Word bit = Word{1} << (cursor_ & 63);
      const Word* line = rows.line(cursor_);
      if ((seen_rows_[cursor_ >> 6] & bit) ||
          std::all_of(line, line + rows.stride, [](Word w) { return w == 0; }))
        continue;
      seen_rows_[cursor_ >> 6] |= bit;
      row_mask_.assign(cols.stride, 0);
      col_mask_.assign(rows.stride, 0);
      row_mask_[cursor_ >> 6] = bit;
      frontier_ = row_mask_;
      while (hop(frontier_, rows, reached_, seen_cols_, col_mask_) &&
             hop(reached_, cols, frontier_, seen_rows_, row_mask_)) {
      }
      comp_rows.clear();
      comp_cols.clear();
      for_each_bit(row_mask_.data(), row_mask_.size(), [&](std::size_t i) {
        comp_rows.push_back(static_cast<Index>(i));
      });
      for_each_bit(col_mask_.data(), col_mask_.size(), [&](std::size_t j) {
        comp_cols.push_back(static_cast<Index>(j));
      });
      ++cursor_;
      return true;
    }
    return false;
  }

  Indices comp_rows, comp_cols;

 private:
  std::size_t cursor_ = 0;
  std::vector<Word> seen_rows_, seen_cols_, frontier_, reached_, row_mask_,
      col_mask_;
};

}  // namespace ebmf::flat
