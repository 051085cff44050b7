#pragma once
/// \file check.h
/// \brief Output checks that do not lean on the solver code under test.
/// Every reply's partition must be a valid certificate of the request's
/// pattern, checked here cell by cell. Its depth must be at least a lower
/// bound computed here: the rank over two prime fields, which never exceeds
/// the real rank. A reply that claims optimality above that bound must
/// agree with a reference search by another strategy (`completion`: its own
/// SAT encoding, no rank cut-off).

#include <cstdint>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/partition.h"
#include "engine/engine.h"
#include "wire.h"

namespace perfbench {

/// What a reply to one distinct pattern must agree with.
struct Reference {
  std::size_t lower = 0;  ///< A lower bound on r_B.
  std::size_t upper = 0;  ///< An attainable depth the search found (0 = none).
  bool exact = false;     ///< The search converged: r_B == upper.
  bool searched = false;
};

/// Rank of `m` over GF(`p`) (`p` an odd prime below 2^31).
std::size_t rank_mod_p(const ebmf::BinaryMatrix& m, std::uint32_t p);

/// The reference before any search: the larger GF(p) rank of two primes.
Reference lower_reference(const ebmf::BinaryMatrix& m);

/// A reply claiming `depth` optimal is confirmed by the rank bound alone
/// when the two meet; otherwise the reference must be searched.
inline bool needs_search(const Reference& ref, std::size_t depth) {
  return !ref.searched && depth > ref.lower;
}

/// Per-SAT-call conflict cap of the reference search.
inline constexpr std::int64_t kSearchConflicts = 20000;

/// Tighten `ref` with the `completion` strategy's search under a conflict
/// cap. Used after the clock stops.
void search_reference(const ebmf::engine::Engine& engine,
                      const ebmf::BinaryMatrix& m, Reference& ref);

/// A reply as read: its certificate checked, its claims recorded.
struct Verdict {
  bool ok = false;
  std::size_t depth = 0;
  bool proven = false;  ///< The reply claims certified optimality.
  std::string why;      ///< Diagnosis when !ok.
};

/// Why `partition` is not an exact cover of `pattern`'s ones by all-ones
/// rectangles ("" when it is).
std::string partition_error(const ebmf::BinaryMatrix& pattern,
                            const ebmf::Partition& partition);

/// Check a decoded report's certificate against its pattern.
Verdict certify(const ebmf::engine::SolveReport& report,
                const ebmf::BinaryMatrix& pattern);

/// Decode one raw reply (a JSON line or a whole frame) and certify it.
/// Error replies and undecodable bytes are failures.
Verdict certify_reply(const std::string& reply, Wire wire,
                      const ebmf::BinaryMatrix& pattern);

/// Check a certified reply's depth against its pattern's reference.
void judge(Verdict& v, const Reference& ref);

/// Decode one raw reply into a report (partition included). Throws on an
/// error reply or malformed bytes.
ebmf::engine::SolveReport decode_reply(const std::string& reply, Wire wire,
                                       const ebmf::BinaryMatrix& pattern);

/// The references of a workload's distinct patterns, built after the clock
/// from what the replies claimed: a rank bound for every pattern seen, and
/// a search for each pattern some reply claims optimal above its bound.
class References {
 public:
  explicit References(std::size_t distinct) : refs_(distinct) {}

  /// Record a certified reply to distinct pattern `d` (pattern `m` up to
  /// row/column order).
  void note(std::size_t d, const ebmf::BinaryMatrix& m, const Verdict& v);

  /// Distinct pattern `d` has optimum `depth`, known by construction.
  void know(std::size_t d, std::size_t depth);

  /// Run the searches the recorded claims need, on a few threads.
  void search();

  /// "N patterns: R by rank bound, S searched (E exact), K known".
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] const Reference& operator[](std::size_t d) const {
    return refs_[d].ref;
  }

 private:
  struct Entry {
    Reference ref;
    bool seen = false;
    bool wanted = false;
    ebmf::BinaryMatrix pattern;  ///< Kept only when a search is wanted.
  };
  std::vector<Entry> refs_;
};

}  // namespace perfbench
