// Canonicalization over flat word arrays: dedup, component split,
// equitable refinement with individualization of the cells it leaves, the
// 128-bit content key, and the lift back to the original index space.

#include "service/canon.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <utility>

#include "support/contracts.h"

namespace ebmf::canon {

namespace {

// FNV-1a, 64-bit per lane; the two lanes use independent offset bases so
// the 128-bit key is not just a repeated 64-bit hash.
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kFnvOffsetHi = 14695981039346656037ULL;
constexpr std::uint64_t kFnvOffsetLo = 0x6c62272e07bb0142ULL;

void fnv_byte(std::uint64_t& h, unsigned char byte) {
  h ^= byte;
  h *= kFnvPrime;
}

void fnv_u64(std::uint64_t& h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) fnv_byte(h, (value >> (8 * b)) & 0xff);
}

CacheKey hash_matrix(const BinaryMatrix& m) {
  CacheKey key{kFnvOffsetHi, kFnvOffsetLo};
  fnv_u64(key.hi, m.rows());
  fnv_u64(key.hi, m.cols());
  fnv_u64(key.lo, m.cols());
  fnv_u64(key.lo, m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (const std::uint64_t w : m.row(i).words()) {
      fnv_u64(key.hi, w);
      fnv_u64(key.lo, ~w);
    }
  }
  return key;
}

using Word = std::uint64_t;
using Index = std::uint32_t;
using Indices = std::vector<Index>;

/// Bound on one call's refinement work, counted in signature entries and
/// words scanned (a few milliseconds, and at most 16 MiB of signatures);
/// past it, the ties left are broken by input order.
constexpr std::size_t kWorkBudget = std::size_t{1} << 22;

constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// A bit matrix as one flat row-major word array, `stride` words per line.
struct Flat {
  std::size_t lines = 0;
  std::size_t bits = 0;
  std::size_t stride = 0;
  std::vector<Word> words;

  void reset(std::size_t n_lines, std::size_t n_bits) {
    lines = n_lines;
    bits = n_bits;
    stride = words_for(n_bits);
    words.assign(lines * stride, 0);
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
void transpose(const Flat& a, Flat& t) {
  t.reset(a.bits, a.lines);
  for (std::size_t i = 0; i < a.lines; ++i)
    for_each_bit(a.line(i), a.stride, [&](std::size_t j) { t.set(j, i); });
}

/// Content order between two distinct lines: the one holding the first
/// differing bit comes first.
bool line_before(const Word* a, const Word* b, std::size_t stride) {
  for (std::size_t w = 0; w < stride; ++w) {
    const Word diff = a[w] ^ b[w];
    if (diff != 0) return (a[w] & diff & (~diff + 1)) != 0;
  }
  return false;
}

/// The distinct nonzero lines of a Flat in order of first occurrence: line
/// k of the reduced matrix is `rep[k]`, and
/// members[start[k] .. start[k + 1]) are all of its copies, ascending.
struct Groups {
  Indices rep;
  Indices start;
  Indices members;
};

/// An ordered partition of a component's rows and of its columns into
/// cells: `row[i]` is row i's cell, numbered from 0.
struct Coloring {
  Indices row;
  Indices col;
  std::size_t row_cells = 0;
  std::size_t col_cells = 0;

  [[nodiscard]] bool discrete() const {
    return row_cells == row.size() && col_cells == col.size();
  }
};

/// Memory reused across calls on one thread: canonicalize() allocates
/// only its result once the buffers have grown to the largest input seen.
struct Workspace {
  Flat input, input_t, rows, cols, local, local_t, scratch;
  Groups row_groups, col_groups;
  Indices table, group_of, perm;
  // Component split.
  std::vector<Word> seen_rows, seen_cols, frontier, reached, comp_rows_mask,
      comp_cols_mask;
  Indices comp_rows, comp_cols, col_local;
  // Refinement.
  Coloring best, from, trial;
  Indices signature, slot, cell_start, rep, cell_size, trace, best_trace;
  std::vector<Word> signature_hash;
  std::size_t work = 0;  ///< Refinement work this call (see kWorkBudget).
  // Order.
  Indices row_id, col_id;
  // Finished blocks: reduced indices in canonical order, and block words.
  struct Block {
    std::size_t rows, cols, stride, ones;
    std::size_t words_at, rows_at, cols_at;
  };
  std::vector<Block> blocks;
  std::vector<Word> block_words;
  Indices placed_rows, placed_cols, block_order;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Bucket lines by class (a cell, or a duplicate group): afterwards the
/// lines of class x are order[start[x] .. start[x + 1]), ascending.
void bucket_by_cell(const Indices& cell, std::size_t cells, Indices& start,
                    Indices& order) {
  start.assign(cells + 1, 0);
  for (const Index x : cell) ++start[x + 1];
  for (std::size_t x = 0; x < cells; ++x) start[x + 1] += start[x];
  order.resize(cell.size());
  for (std::size_t i = 0; i < cell.size(); ++i)
    order[start[cell[i]]++] = static_cast<Index>(i);
  for (std::size_t x = cells; x > 0; --x) start[x] = start[x - 1];
  start[0] = 0;
}

/// Group the equal nonzero lines of `f` in order of first occurrence: each
/// line's words are hashed into an open-addressed table of group ids.
void group_lines(const Flat& f, Workspace& ws, Groups& g) {
  constexpr Index kNone = ~Index{0};
  std::size_t size = 1;
  while (size < 2 * f.lines) size <<= 1;
  ws.table.assign(size, kNone);
  ws.group_of.resize(f.lines);
  g.rep.clear();
  for (std::size_t i = 0; i < f.lines; ++i) {
    const Word* line = f.line(i);
    if (std::all_of(line, line + f.stride, [](Word w) { return w == 0; })) {
      ws.group_of[i] = kNone;
      continue;
    }
    Word h = 0;
    for (std::size_t w = 0; w < f.stride; ++w)
      h = (h ^ line[w]) * 0x9e3779b97f4a7c15ULL;
    std::size_t slot = (h ^ (h >> 29)) & (size - 1);
    while (ws.table[slot] != kNone &&
           !std::equal(line, line + f.stride, f.line(g.rep[ws.table[slot]])))
      slot = (slot + 1) & (size - 1);
    if (ws.table[slot] == kNone) {
      ws.table[slot] = static_cast<Index>(g.rep.size());
      g.rep.push_back(static_cast<Index>(i));
    }
    ws.group_of[i] = ws.table[slot];
  }
  // Zero lines join one last group that no reduced line reads.
  for (Index& group : ws.group_of)
    if (group == kNone) group = static_cast<Index>(g.rep.size());
  bucket_by_cell(ws.group_of, g.rep.size() + 1, g.start, g.members);
}

/// Split the `cells` cells of the lines of `f` by signature — how many
/// bits each line has in every one of the `k` cells of `other`, i.e.
/// popcount(line AND cell mask) — and renumber them in (old cell,
/// signature) order, so the numbering depends only on the isomorphism
/// type. Singleton cells cannot split and are not looked at.
/// Returns the new cell count (unchanged, with the budget spent, when the
/// pass would overrun the work budget).
std::size_t refine_side(const Flat& f, Indices& cell, std::size_t cells,
                        const Indices& other, std::size_t k, Workspace& ws) {
  Indices& order = ws.perm;
  Indices& start = ws.cell_start;
  bucket_by_cell(cell, cells, start, order);
  // Signatures of the lines of non-singleton cells, by position in order.
  std::size_t open = 0;
  for (std::size_t x = 0; x < cells; ++x)
    if (start[x + 1] - start[x] > 1) open += start[x + 1] - start[x];
  if (ws.work + open * (k + f.stride) > kWorkBudget) {
    ws.work = kWorkBudget;
    return cells;
  }
  ws.work += open * (k + f.stride);
  Indices& slot = ws.slot;  // line -> signature row
  slot.resize(f.lines);
  Indices& sig = ws.signature;
  sig.assign(open * k, 0);
  // A hash of each signature orders most pairs in one comparison; equal
  // hashes fall back to the counts, so the order stays exact.
  std::vector<Word>& hash = ws.signature_hash;
  hash.assign(open, 0);
  std::size_t next_slot = 0;
  for (std::size_t x = 0; x < cells; ++x) {
    if (start[x + 1] - start[x] < 2) continue;
    for (std::size_t p = start[x]; p < start[x + 1]; ++p) {
      slot[order[p]] = static_cast<Index>(next_slot);
      Index* counts = sig.data() + next_slot * k;
      Word& h = hash[next_slot++];
      for_each_bit(f.line(order[p]), f.stride, [&](std::size_t j) {
        ++counts[other[j]];
        const Word mixed = (other[j] + Word{1}) * 0x9e3779b97f4a7c15ULL;
        h += mixed ^ (mixed >> 29);
      });
    }
  }
  const auto compare = [&](Index a, Index b) {
    if (hash[slot[a]] != hash[slot[b]])
      return hash[slot[a]] < hash[slot[b]] ? -1 : 1;
    const Index* sa = sig.data() + std::size_t{slot[a]} * k;
    const Index* sb = sig.data() + std::size_t{slot[b]} * k;
    for (std::size_t c = 0; c < k; ++c)
      if (sa[c] != sb[c]) return sa[c] < sb[c] ? -1 : 1;
    return 0;
  };
  Index id = 0;
  for (std::size_t x = 0; x < cells; ++x) {
    const auto first = order.begin() + start[x];
    const auto last = order.begin() + start[x + 1];
    const bool splits = std::any_of(
        first + 1, last, [&](Index v) { return compare(*first, v) != 0; });
    if (splits)
      std::sort(first, last,
                [&](Index a, Index b) { return compare(a, b) < 0; });
    for (auto it = first; it != last; ++it) {
      if (splits && it != first && compare(*(it - 1), *it) != 0) ++id;
      cell[*it] = id;
    }
    ++id;
  }
  return id;
}

/// Refine `k` to the coarsest equitable coloring finer than it: every
/// line of a cell meets every cell of the other side equally often. Only
/// a side whose counterpart changed needs another look.
void make_equitable(Coloring& k, bool rows_stale, bool cols_stale,
                    Workspace& ws) {
  while ((rows_stale || cols_stale) && !k.discrete() &&
         ws.work < kWorkBudget) {
    if (rows_stale) {
      const std::size_t cells =
          refine_side(ws.local, k.row, k.row_cells, k.col, k.col_cells, ws);
      rows_stale = false;
      if (cells != k.row_cells) {
        k.row_cells = cells;
        cols_stale = true;
      }
    }
    if (cols_stale) {
      const std::size_t cells =
          refine_side(ws.local_t, k.col, k.col_cells, k.row, k.row_cells, ws);
      cols_stale = false;
      if (cells != k.col_cells) {
        k.col_cells = cells;
        rows_stale = true;
      }
    }
  }
}

/// Give line `v` of the cell it shares with others a cell of its own,
/// numbered just before the rest of its old cell.
void individualize(Indices& cell, std::size_t& cells, Index v) {
  const Index target = cell[v];
  for (std::size_t i = 0; i < cell.size(); ++i)
    if (cell[i] > target || (cell[i] == target && i != v)) ++cell[i];
  ++cells;
}

/// An isomorphism invariant of an equitable coloring: the cell counts and
/// the quotient matrix (how often a row of each row cell meets each column
/// cell). For a discrete coloring it is the ordered matrix itself.
void quotient(const Coloring& k, Workspace& ws, Indices& out) {
  ws.rep.resize(k.row_cells);
  for (std::size_t i = k.row.size(); i-- > 0;)
    ws.rep[k.row[i]] = static_cast<Index>(i);
  out.assign(2 + k.row_cells * k.col_cells, 0);
  out[0] = static_cast<Index>(k.row_cells);
  out[1] = static_cast<Index>(k.col_cells);
  for (std::size_t a = 0; a < k.row_cells; ++a) {
    Index* counts = out.data() + 2 + a * k.col_cells;
    for_each_bit(ws.local.line(ws.rep[a]), ws.local.stride,
                 [&](std::size_t j) { ++counts[k.col[j]]; });
  }
  ws.work += k.row_cells * (k.col_cells + ws.local.stride);
}

/// Color the component in `ws.local` / `ws.local_t` into `ws.best`,
/// discretely unless the work budget runs out. Equitable refinement alone
/// separates almost every line of a random pattern; cells it leaves are
/// split as in nauty/Traces: try each line of the first smallest cell as
/// an individualized singleton, refine, and keep the choice whose quotient
/// matrix is greatest. Lines whose choices tie are almost always
/// automorphic, so which one is taken does not change the ordered matrix.
void color_component(Workspace& ws) {
  const std::size_t r = ws.local.lines;
  const std::size_t c = ws.local_t.lines;
  Coloring& k = ws.best;
  k.row.assign(r, 0);
  k.col.assign(c, 0);
  k.row_cells = 1;
  k.col_cells = 1;
  make_equitable(k, true, true, ws);
  while (!k.discrete() && ws.work + r * c < kWorkBudget) {
    // The first smallest non-singleton cell, rows before columns.
    ws.cell_size.assign(k.row_cells + k.col_cells, 0);
    for (const Index x : k.row) ++ws.cell_size[x];
    for (const Index x : k.col) ++ws.cell_size[k.row_cells + x];
    std::size_t target = ws.cell_size.size();
    for (std::size_t x = 0; x < ws.cell_size.size(); ++x)
      if (ws.cell_size[x] > 1 && (target == ws.cell_size.size() ||
                                  ws.cell_size[x] < ws.cell_size[target]))
        target = x;
    const bool on_rows = target < k.row_cells;
    const Index cell =
        static_cast<Index>(on_rows ? target : target - k.row_cells);
    ws.from = k;
    const Indices& side = on_rows ? ws.from.row : ws.from.col;
    bool have = false;
    for (std::size_t v = 0; v < side.size(); ++v) {
      if (side[v] != cell) continue;
      if (have && ws.work >= kWorkBudget) break;
      Coloring& trial = ws.trial;
      trial = ws.from;
      individualize(on_rows ? trial.row : trial.col,
                    on_rows ? trial.row_cells : trial.col_cells,
                    static_cast<Index>(v));
      make_equitable(trial, !on_rows, on_rows, ws);
      quotient(trial, ws, ws.trace);
      if (!have || ws.trace > ws.best_trace) {
        std::swap(k, trial);
        std::swap(ws.best_trace, ws.trace);
        have = true;
      }
    }
  }
}

/// Put the component in `ws.local` into the order of its coloring —
/// lines by cell, and any ties the work budget left by input order —
/// recording in `ws.row_id` / `ws.col_id` the component-local line at each
/// position.
void order_component(Workspace& ws) {
  Coloring& k = ws.best;
  const auto place = [&](Indices& cell, std::size_t cells, Indices& id) {
    bucket_by_cell(cell, cells, ws.cell_start, id);
    for (std::size_t p = 0; p < id.size(); ++p)
      cell[id[p]] = static_cast<Index>(p);
  };
  place(k.row, k.row_cells, ws.row_id);
  place(k.col, k.col_cells, ws.col_id);
  ws.scratch.reset(ws.local.lines, ws.local.bits);
  for (std::size_t i = 0; i < ws.local.lines; ++i)
    for_each_bit(ws.local.line(i), ws.local.stride, [&](std::size_t j) {
      ws.scratch.set(k.row[i], k.col[j]);
    });
  std::swap(ws.local, ws.scratch);
}

/// Canonicalize the component with reduced rows `ws.comp_rows` and columns
/// `ws.comp_cols`, appending its block to `ws.blocks`.
void add_component(Workspace& ws) {
  const std::size_t r = ws.comp_rows.size();
  const std::size_t c = ws.comp_cols.size();
  Workspace::Block block{r, c, words_for(c), 0, ws.block_words.size(),
                         ws.placed_rows.size(), ws.placed_cols.size()};
  if (r == 1 && c == 1) {
    // A lone cell (dedup collapses any single-row or single-column
    // component to this).
    ws.block_words.push_back(1);
    ws.placed_rows.push_back(ws.comp_rows[0]);
    ws.placed_cols.push_back(ws.comp_cols[0]);
    block.ones = 1;
    ws.blocks.push_back(block);
    return;
  }
  for (std::size_t j = 0; j < c; ++j)
    ws.col_local[ws.comp_cols[j]] = static_cast<Index>(j);
  ws.local.reset(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for_each_bit(ws.rows.line(ws.comp_rows[i]), ws.rows.stride,
                 [&](std::size_t j) { ws.local.set(i, ws.col_local[j]); });
  transpose(ws.local, ws.local_t);
  color_component(ws);
  order_component(ws);

  for (const Word w : ws.local.words)
    block.ones += static_cast<std::size_t>(std::popcount(w));
  ws.block_words.insert(ws.block_words.end(), ws.local.words.begin(),
                        ws.local.words.end());
  for (std::size_t i = 0; i < r; ++i)
    ws.placed_rows.push_back(ws.comp_rows[ws.row_id[i]]);
  for (std::size_t j = 0; j < c; ++j)
    ws.placed_cols.push_back(ws.comp_cols[ws.col_id[j]]);
  ws.blocks.push_back(block);
}

/// One breadth-first hop: `next` becomes the lines reachable through
/// `adjacency` from the set bits of `frontier` that are not `seen` yet, and
/// joins `seen` and `component`. Returns false when nothing new was reached.
bool hop(const std::vector<Word>& frontier, const Flat& adjacency,
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

/// Word-parallel breadth-first search over the reduced row/column masks;
/// each connected component is canonicalized as it is found.
void split_and_order(Workspace& ws) {
  const std::size_t row_words = ws.cols.stride;
  const std::size_t col_words = ws.rows.stride;
  ws.seen_rows.assign(row_words, 0);
  ws.seen_cols.assign(col_words, 0);
  ws.col_local.resize(ws.cols.lines);
  for (std::size_t start = 0; start < ws.rows.lines; ++start) {
    const Word bit = Word{1} << (start & 63);
    if (ws.seen_rows[start >> 6] & bit) continue;
    ws.seen_rows[start >> 6] |= bit;
    ws.comp_rows_mask.assign(row_words, 0);
    ws.comp_cols_mask.assign(col_words, 0);
    ws.comp_rows_mask[start >> 6] = bit;
    ws.frontier = ws.comp_rows_mask;
    while (hop(ws.frontier, ws.rows, ws.reached, ws.seen_cols,
               ws.comp_cols_mask) &&
           hop(ws.reached, ws.cols, ws.frontier, ws.seen_rows,
               ws.comp_rows_mask)) {
    }
    ws.comp_rows.clear();
    ws.comp_cols.clear();
    for_each_bit(ws.comp_rows_mask.data(), row_words, [&](std::size_t i) {
      ws.comp_rows.push_back(static_cast<Index>(i));
    });
    for_each_bit(ws.comp_cols_mask.data(), col_words, [&](std::size_t j) {
      ws.comp_cols.push_back(static_cast<Index>(j));
    });
    add_component(ws);
  }
}

/// Canonical order of the finished blocks: heavier first, then larger, then
/// content.
bool block_before(const Workspace& ws, Index a, Index b) {
  const Workspace::Block& x = ws.blocks[a];
  const Workspace::Block& y = ws.blocks[b];
  if (x.ones != y.ones) return x.ones > y.ones;
  if (x.rows != y.rows) return x.rows > y.rows;
  if (x.cols != y.cols) return x.cols > y.cols;
  for (std::size_t i = 0; i < x.rows; ++i) {
    const Word* lx = ws.block_words.data() + x.words_at + i * x.stride;
    const Word* ly = ws.block_words.data() + y.words_at + i * y.stride;
    if (std::equal(lx, lx + x.stride, ly)) continue;
    return line_before(lx, ly, x.stride);
  }
  return false;
}

/// Append the original lines behind reduced line `reduced` to the lift map.
void add_source(const Groups& groups, Index reduced,
                std::vector<std::size_t>& start,
                std::vector<std::size_t>& source) {
  start.push_back(source.size());
  source.insert(source.end(), groups.members.begin() + groups.start[reduced],
                groups.members.begin() + groups.start[reduced + 1]);
}

}  // namespace

CacheKey CacheKey::mixed_with(const std::string& bytes) const {
  CacheKey out = *this;
  for (const char c : bytes) {
    fnv_byte(out.hi, static_cast<unsigned char>(c));
    fnv_byte(out.lo, static_cast<unsigned char>(c) ^ 0x5a);
  }
  return out;
}

std::string CacheKey::hex() const {
  char buffer[36];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buffer;
}

Canonical canonicalize(const BinaryMatrix& m) {
  Workspace& ws = workspace();
  Canonical c;
  c.original_rows = m.rows();
  c.original_cols = m.cols();

  // Dedup: group equal rows, then equal columns of the distinct rows. The
  // reduced lines keep first-occurrence order, so a canonical pattern is
  // a fixpoint of canonicalize().
  ws.input.reset(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    std::copy_n(m.row(i).words().data(), ws.input.stride, ws.input.line(i));
  group_lines(ws.input, ws, ws.row_groups);
  const std::size_t reduced_rows = ws.row_groups.rep.size();
  ws.input_t.reset(m.cols(), reduced_rows);
  for (std::size_t k = 0; k < reduced_rows; ++k)
    for_each_bit(ws.input.line(ws.row_groups.rep[k]), ws.input.stride,
                 [&](std::size_t j) { ws.input_t.set(j, k); });
  group_lines(ws.input_t, ws, ws.col_groups);
  const std::size_t reduced_cols = ws.col_groups.rep.size();
  ws.cols.reset(reduced_cols, reduced_rows);
  for (std::size_t k = 0; k < reduced_cols; ++k)
    std::copy_n(ws.input_t.line(ws.col_groups.rep[k]), ws.cols.stride,
                ws.cols.line(k));
  transpose(ws.cols, ws.rows);

  ws.work = 0;
  ws.blocks.clear();
  ws.block_words.clear();
  ws.placed_rows.clear();
  ws.placed_cols.clear();
  split_and_order(ws);

  ws.block_order.resize(ws.blocks.size());
  std::iota(ws.block_order.begin(), ws.block_order.end(), Index{0});
  std::stable_sort(ws.block_order.begin(), ws.block_order.end(),
                   [&](Index a, Index b) { return block_before(ws, a, b); });

  c.pattern = BinaryMatrix(reduced_rows, reduced_cols);
  c.components.reserve(ws.blocks.size());
  c.row_start.reserve(reduced_rows + 1);
  c.col_start.reserve(reduced_cols + 1);
  c.row_source.reserve(m.rows());
  c.col_source.reserve(m.cols());
  std::size_t row_at = 0;
  std::size_t col_at = 0;
  for (const Index b : ws.block_order) {
    const Workspace::Block& block = ws.blocks[b];
    for (std::size_t i = 0; i < block.rows; ++i)
      for_each_bit(ws.block_words.data() + block.words_at + i * block.stride,
                   block.stride, [&](std::size_t j) {
                     c.pattern.set(row_at + i, col_at + j);
                   });
    for (std::size_t i = 0; i < block.rows; ++i)
      add_source(ws.row_groups, ws.placed_rows[block.rows_at + i],
                 c.row_start, c.row_source);
    for (std::size_t j = 0; j < block.cols; ++j)
      add_source(ws.col_groups, ws.placed_cols[block.cols_at + j],
                 c.col_start, c.col_source);
    c.components.push_back({block.rows, block.cols});
    row_at += block.rows;
    col_at += block.cols;
  }
  c.row_start.push_back(c.row_source.size());
  c.col_start.push_back(c.col_source.size());
  c.key = hash_matrix(c.pattern);
  return c;
}

Partition lift(const Partition& p, const Canonical& c) {
  // Canonical row i stands for its original rows (duplicates included), and
  // likewise for columns, so mapping each rectangle's lines through that
  // record keeps the partition valid and its size unchanged.
  const std::size_t rows = c.pattern.rows();
  const std::size_t cols = c.pattern.cols();
  Partition out;
  out.reserve(p.size());
  for (const Rectangle& r : p) {
    EBMF_EXPECTS(!r.empty());
    Rectangle lifted{BitVec(c.original_rows), BitVec(c.original_cols)};
    for (std::size_t i = r.rows.find_first(); i < r.rows.size();
         i = r.rows.find_next(i)) {
      EBMF_EXPECTS(i < rows);
      for (std::size_t k = c.row_start[i]; k < c.row_start[i + 1]; ++k)
        lifted.rows.set(c.row_source[k]);
    }
    for (std::size_t j = r.cols.find_first(); j < r.cols.size();
         j = r.cols.find_next(j)) {
      EBMF_EXPECTS(j < cols);
      for (std::size_t k = c.col_start[j]; k < c.col_start[j + 1]; ++k)
        lifted.cols.set(c.col_source[k]);
    }
    out.push_back(std::move(lifted));
  }
  return out;
}

}  // namespace ebmf::canon
