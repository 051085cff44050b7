// Canonicalization over flat word arrays: the shared dedup and component
// split (core/flat.h), then equitable refinement with individualization of
// the cells it leaves, the canonical block order and the 128-bit key.

#include "service/canon.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "core/flat.h"

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

using namespace flat;

/// Bound on one call's refinement work, counted in signature entries and
/// words scanned (a few milliseconds, and at most 16 MiB of signatures);
/// past it, the ties left are broken by input order.
constexpr std::size_t kWorkBudget = std::size_t{1} << 22;

/// Content order between two distinct lines: the one holding the first
/// differing bit comes first.
bool line_before(const Word* a, const Word* b, std::size_t stride) {
  for (std::size_t w = 0; w < stride; ++w) {
    const Word diff = a[w] ^ b[w];
    if (diff != 0) return (a[w] & diff & (~diff + 1)) != 0;
  }
  return false;
}

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
  Dedup dedup;
  ComponentSearch search;
  Flat local, local_t, scratch;
  Indices perm, col_local;
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

/// Canonicalize the component the search just found, appending its block to
/// `ws.blocks`.
void add_component(Workspace& ws) {
  const Indices& comp_rows = ws.search.comp_rows;
  const Indices& comp_cols = ws.search.comp_cols;
  const std::size_t r = comp_rows.size();
  const std::size_t c = comp_cols.size();
  Workspace::Block block{r, c, words_for(c), 0, ws.block_words.size(),
                         ws.placed_rows.size(), ws.placed_cols.size()};
  if (r == 1 && c == 1) {
    // A lone cell (dedup collapses any single-row or single-column
    // component to this).
    ws.block_words.push_back(1);
    ws.placed_rows.push_back(comp_rows[0]);
    ws.placed_cols.push_back(comp_cols[0]);
    block.ones = 1;
    ws.blocks.push_back(block);
    return;
  }
  for (std::size_t j = 0; j < c; ++j)
    ws.col_local[comp_cols[j]] = static_cast<Index>(j);
  const Flat& rows = ws.dedup.rows;
  ws.local.reset(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for_each_bit(rows.line(comp_rows[i]), rows.stride,
                 [&](std::size_t j) { ws.local.set(i, ws.col_local[j]); });
  transpose(ws.local, ws.local_t);
  color_component(ws);
  order_component(ws);

  for (const Word w : ws.local.words)
    block.ones += static_cast<std::size_t>(std::popcount(w));
  ws.block_words.insert(ws.block_words.end(), ws.local.words.begin(),
                        ws.local.words.end());
  for (std::size_t i = 0; i < r; ++i)
    ws.placed_rows.push_back(comp_rows[ws.row_id[i]]);
  for (std::size_t j = 0; j < c; ++j)
    ws.placed_cols.push_back(comp_cols[ws.col_id[j]]);
  ws.blocks.push_back(block);
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
void add_source(const Groups& groups, Index reduced, LineSources& out) {
  out.source.insert(out.source.end(),
                    groups.members.begin() + groups.start[reduced],
                    groups.members.begin() + groups.start[reduced + 1]);
  out.start.push_back(out.source.size());
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
  c.map.original_rows = m.rows();
  c.map.original_cols = m.cols();

  // Dedup keeps first-occurrence order, so a canonical pattern is a
  // fixpoint of canonicalize(). Each component is canonicalized as the
  // search finds it.
  const Dedup& dedup = ws.dedup;
  ws.dedup.run(m);
  const std::size_t reduced_rows = dedup.rows.lines;
  const std::size_t reduced_cols = dedup.cols.lines;
  ws.work = 0;
  ws.blocks.clear();
  ws.block_words.clear();
  ws.placed_rows.clear();
  ws.placed_cols.clear();
  ws.col_local.resize(reduced_cols);
  ws.search.begin(dedup.rows, dedup.cols);
  while (ws.search.next(dedup.rows, dedup.cols)) add_component(ws);

  ws.block_order.resize(ws.blocks.size());
  std::iota(ws.block_order.begin(), ws.block_order.end(), Index{0});
  std::stable_sort(ws.block_order.begin(), ws.block_order.end(),
                   [&](Index a, Index b) { return block_before(ws, a, b); });

  c.pattern = BinaryMatrix(reduced_rows, reduced_cols);
  c.components.reserve(ws.blocks.size());
  c.map.rows.start.reserve(reduced_rows + 1);
  c.map.cols.start.reserve(reduced_cols + 1);
  c.map.rows.source.reserve(m.rows());
  c.map.cols.source.reserve(m.cols());
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
      add_source(dedup.row_groups, ws.placed_rows[block.rows_at + i],
                 c.map.rows);
    for (std::size_t j = 0; j < block.cols; ++j)
      add_source(dedup.col_groups, ws.placed_cols[block.cols_at + j],
                 c.map.cols);
    c.components.push_back({block.rows, block.cols});
    row_at += block.rows;
    col_at += block.cols;
  }
  c.key = hash_matrix(c.pattern);
  return c;
}

}  // namespace ebmf::canon
