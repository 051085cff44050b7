#include "check.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/binary_io.h"
#include "io/request_io.h"
#include "net/frame.h"

namespace perfbench {

namespace {

/// Threads of the reference searches (after the clock).
constexpr std::size_t kSearchThreads = 4;

}  // namespace

std::size_t rank_mod_p(const ebmf::BinaryMatrix& m, std::uint32_t p) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::vector<std::vector<std::uint64_t>> a(rows,
                                            std::vector<std::uint64_t>(cols));
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a[i][j] = m.test(i, j) ? 1 : 0;
  const auto inverse = [p](std::uint64_t x) {  // x^(p-2) mod p
    std::uint64_t result = 1;
    for (std::uint64_t e = p - 2; e != 0; e >>= 1, x = x * x % p)
      if (e & 1) result = result * x % p;
    return result;
  };
  std::size_t rank = 0;
  for (std::size_t j = 0; j < cols && rank < rows; ++j) {
    std::size_t pivot = rank;
    while (pivot < rows && a[pivot][j] == 0) ++pivot;
    if (pivot == rows) continue;
    std::swap(a[pivot], a[rank]);
    const std::uint64_t inv = inverse(a[rank][j]);
    for (std::size_t i = rank + 1; i < rows; ++i) {
      if (a[i][j] == 0) continue;
      const std::uint64_t f = a[i][j] * inv % p;
      for (std::size_t k = j; k < cols; ++k)
        a[i][k] = (a[i][k] + (p - f) * a[rank][k]) % p;
    }
    ++rank;
  }
  return rank;
}

Reference lower_reference(const ebmf::BinaryMatrix& m) {
  // Reduction mod p can only lose rank; two primes make a loss on both
  // vanishingly unlikely, so the bound is tight wherever r_B is the rank.
  Reference ref;
  ref.lower = std::max(rank_mod_p(m, 2147483647u), rank_mod_p(m, 1000000007u));
  return ref;
}

void search_reference(const ebmf::engine::Engine& engine,
                      const ebmf::BinaryMatrix& m, Reference& ref) {
  auto request = ebmf::engine::SolveRequest::dense(m, "completion");
  request.budget = ebmf::Budget::after(60.0);
  request.budget.max_conflicts = kSearchConflicts;
  const auto report = engine.solve(request);
  ref.searched = true;
  if (!partition_error(m, report.partition).empty()) return;  // no witness
  ref.upper = report.depth();
  ref.exact = report.proven_optimal();
  if (ref.exact) ref.lower = ref.upper;
}

std::string partition_error(const ebmf::BinaryMatrix& pattern,
                            const ebmf::Partition& partition) {
  const std::size_t rows = pattern.rows();
  const std::size_t cols = pattern.cols();
  std::vector<unsigned> cover(rows * cols, 0);
  for (std::size_t r = 0; r < partition.size(); ++r) {
    const auto& rect = partition[r];
    if (rect.rows.size() != rows || rect.cols.size() != cols)
      return "rectangle " + std::to_string(r) + " has the wrong shape";
    if (rect.empty()) return "rectangle " + std::to_string(r) + " is empty";
    for (std::size_t i = 0; i < rows; ++i) {
      if (!rect.rows.test(i)) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        if (!rect.cols.test(j)) continue;
        if (!pattern.test(i, j))
          return "rectangle " + std::to_string(r) + " addresses the 0 at (" +
                 std::to_string(i) + "," + std::to_string(j) + ")";
        ++cover[i * cols + j];
      }
    }
  }
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (pattern.test(i, j) && cover[i * cols + j] != 1)
        return "the 1 at (" + std::to_string(i) + "," + std::to_string(j) +
               ") is addressed " + std::to_string(cover[i * cols + j]) +
               " times";
  return "";
}

Verdict certify(const ebmf::engine::SolveReport& report,
                const ebmf::BinaryMatrix& pattern) {
  Verdict v;
  v.depth = report.depth();
  v.proven = report.proven_optimal();
  const std::string invalid = partition_error(pattern, report.partition);
  if (invalid.empty())
    v.ok = true;
  else
    v.why = "invalid partition certificate: " + invalid;
  return v;
}

void judge(Verdict& v, const Reference& ref) {
  if (!v.ok) return;
  v.ok = false;
  if (v.depth < ref.lower) {
    v.why = "depth " + std::to_string(v.depth) +
            " is below the lower bound " + std::to_string(ref.lower);
  } else if (v.proven && ref.upper != 0 && v.depth > ref.upper) {
    v.why = "depth " + std::to_string(v.depth) + " claimed optimal, but " +
            std::to_string(ref.upper) + " is attainable";
  } else if (v.proven && needs_search(ref, v.depth)) {
    v.why = "optimality claim at depth " + std::to_string(v.depth) +
            " was never checked";
  } else {
    v.ok = true;
  }
}

ebmf::engine::SolveReport decode_reply(const std::string& reply, Wire wire,
                                       const ebmf::BinaryMatrix& pattern) {
  if (wire == Wire::Line)
    return ebmf::io::parse_wire_response(reply, pattern.rows(),
                                         pattern.cols());
  ebmf::net::FrameBuffer frames(reply.size());
  frames.append(reply.data(), reply.size());
  ebmf::net::Frame frame;
  if (frames.pop(&frame) != ebmf::net::FrameBuffer::Pop::Ok)
    throw std::runtime_error("malformed frame: " + frames.error());
  if (frame.type == ebmf::net::kFrameError)
    throw std::runtime_error("error reply: " +
                             ebmf::io::parse_binary_error(frame.payload).message);
  if (frame.type != ebmf::net::kFrameSolveReport)
    throw std::runtime_error("unexpected frame type " +
                             std::to_string(frame.type));
  return ebmf::io::parse_binary_report(frame.payload).report;
}

Verdict certify_reply(const std::string& reply, Wire wire,
                      const ebmf::BinaryMatrix& pattern) {
  try {
    return certify(decode_reply(reply, wire, pattern), pattern);
  } catch (const std::exception& e) {
    Verdict v;
    v.why = e.what();
    return v;
  }
}

void References::note(std::size_t d, const ebmf::BinaryMatrix& m,
                      const Verdict& v) {
  Entry& e = refs_[d];
  if (!e.seen) {
    e.ref = lower_reference(m);
    e.seen = true;
  }
  if (v.ok && v.proven && !e.wanted && needs_search(e.ref, v.depth)) {
    e.wanted = true;
    e.pattern = m;
  }
}

void References::know(std::size_t d, std::size_t depth) {
  Entry& e = refs_[d];
  e.ref = {depth, depth, true, true};
  e.seen = true;
}

std::string References::summary() const {
  std::size_t seen = 0, searched = 0, exact = 0, known = 0;
  for (const Entry& e : refs_) {
    if (!e.seen) continue;
    ++seen;
    if (e.wanted) {
      ++searched;
      if (e.ref.exact) ++exact;
    } else if (e.ref.exact) {
      ++known;
    }
  }
  return std::to_string(seen) + " patterns: " +
         std::to_string(seen - searched - known) + " by rank bound, " +
         std::to_string(searched) + " searched (" + std::to_string(exact) +
         " exact), " + std::to_string(known) + " known";
}

void References::search() {
  std::vector<std::size_t> todo;
  for (std::size_t d = 0; d < refs_.size(); ++d)
    if (refs_[d].wanted && !refs_[d].ref.searched) todo.push_back(d);
  const ebmf::engine::Engine engine;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::string error;
  const auto work = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < todo.size();) {
      Entry& e = refs_[todo[k]];
      try {
        search_reference(engine, e.pattern, e.ref);
      } catch (const std::exception& ex) {
        if (!failed.exchange(true)) error = ex.what();
      }
      e.pattern = ebmf::BinaryMatrix{};
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kSearchThreads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (failed) throw std::runtime_error("reference search failed: " + error);
}

}  // namespace perfbench
