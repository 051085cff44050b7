#include "core/preprocess.h"

#include <numeric>

#include "core/flat.h"

namespace ebmf {

namespace {

/// The lift record of the duplicate groups `g` (its trailing group of zero
/// lines left out).
void add_groups(const flat::Groups& g, LineSources& out) {
  const std::size_t n = g.rep.size();
  out.start.assign(g.start.begin(), g.start.begin() + n + 1);
  out.source.assign(g.members.begin(), g.members.begin() + g.start[n]);
}

/// The lift record of a line selection: line k stands for `lines[k]` alone.
void add_lines(const flat::Indices& lines, LineSources& out) {
  out.start.resize(lines.size() + 1);
  std::iota(out.start.begin(), out.start.end(), std::size_t{0});
  out.source.assign(lines.begin(), lines.end());
}

}  // namespace

Partition lift_partition(const Partition& p, const LiftMap& map) {
  Partition out;
  out.reserve(p.size());
  for (const Rectangle& rect : p) {
    EBMF_EXPECTS(!rect.empty());
    Rectangle big{BitVec(map.original_rows), BitVec(map.original_cols)};
    for (std::size_t i = rect.rows.find_first(); i < rect.rows.size();
         i = rect.rows.find_next(i)) {
      EBMF_EXPECTS(i < map.rows.size());
      for (const std::size_t orig : map.rows[i]) big.rows.set(orig);
    }
    for (std::size_t j = rect.cols.find_first(); j < rect.cols.size();
         j = rect.cols.find_next(j)) {
      EBMF_EXPECTS(j < map.cols.size());
      for (const std::size_t orig : map.cols[j]) big.cols.set(orig);
    }
    out.push_back(std::move(big));
  }
  return out;
}

DuplicateReduction reduce_duplicates(const BinaryMatrix& m) {
  flat::Dedup dedup;
  dedup.run(m);
  DuplicateReduction out;
  out.reduced = BinaryMatrix(dedup.rows.lines, dedup.rows.bits);
  for (std::size_t i = 0; i < dedup.rows.lines; ++i)
    flat::for_each_bit(dedup.rows.line(i), dedup.rows.stride,
                       [&](std::size_t j) { out.reduced.set(i, j); });
  add_groups(dedup.row_groups, out.map.rows);
  add_groups(dedup.col_groups, out.map.cols);
  out.map.original_rows = m.rows();
  out.map.original_cols = m.cols();
  return out;
}

std::vector<Component> split_components(const BinaryMatrix& m) {
  flat::Flat rows, cols;
  rows.load(m);
  flat::transpose(rows, cols);
  flat::ComponentSearch search;
  search.begin(rows, cols);
  flat::Indices col_local(m.cols());
  std::vector<Component> components;
  while (search.next(rows, cols)) {
    const flat::Indices& comp_rows = search.comp_rows;
    const flat::Indices& comp_cols = search.comp_cols;
    Component& comp = components.emplace_back();
    for (std::size_t j = 0; j < comp_cols.size(); ++j)
      col_local[comp_cols[j]] = static_cast<flat::Index>(j);
    comp.matrix = BinaryMatrix(comp_rows.size(), comp_cols.size());
    for (std::size_t i = 0; i < comp_rows.size(); ++i)
      flat::for_each_bit(rows.line(comp_rows[i]), rows.stride,
                         [&](std::size_t j) {
                           comp.matrix.set(i, col_local[j]);
                         });
    add_lines(comp_rows, comp.map.rows);
    add_lines(comp_cols, comp.map.cols);
    comp.map.original_rows = m.rows();
    comp.map.original_cols = m.cols();
  }
  return components;
}

}  // namespace ebmf
