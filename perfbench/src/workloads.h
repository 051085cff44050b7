#pragma once
/// \file workloads.h
/// \brief Input generation. Every input is drawn from the run's seed; the
/// program under test only ever sees the generated patterns.

#include <cstdint>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "engine/engine.h"
#include "wire.h"

namespace perfbench {

/// One request slot of a routed workload: the pattern it carries, which
/// distinct pattern that is (repeats share one), and its wire bytes.
struct RoutedInputs {
  Wire wire = Wire::Line;
  double l1_mb = 16.0;   ///< Router L1 budget (0 = off).
  bool cold = false;     ///< Slots are consumed once, never cycled.
  /// Per slot, for repeat workloads. A cold workload keeps only its
  /// request bytes: each pattern is needed once, after the clock.
  std::vector<ebmf::BinaryMatrix> patterns;
  std::vector<std::uint32_t> distinct_of;    ///< Per slot.
  /// A repeat workload's distinct patterns (a cold workload's slots are
  /// all distinct).
  std::vector<ebmf::BinaryMatrix> distinct;

  [[nodiscard]] std::size_t distinct_count() const {
    return cold ? requests.size() : distinct.size();
  }

  /// The pattern `slot` carries: stored, or decoded from the request line
  /// into `decoded`.
  const ebmf::BinaryMatrix& pattern(std::size_t slot,
                                    ebmf::BinaryMatrix& decoded) const;
  std::vector<std::string> requests;         ///< Untraced wire bytes.
  std::vector<std::string> traced;  ///< Same, carrying a trace context.
  /// Leading slots sent once, untimed, before the clock starts: they fill
  /// the caches of the repeat workloads and open the router's backend pool.
  std::size_t prime = 0;
};

/// The routed request template: strategy, knobs, deadline.
ebmf::engine::SolveRequest routed_request(const ebmf::BinaryMatrix& m);
inline constexpr double kRoutedBudgetSeconds = 10.0;
/// Per-SAT-call conflict cap of routed requests: the rare pattern whose
/// rank certificate does not close is cut by work, not by the deadline.
inline constexpr std::int64_t kRoutedConflicts = 1000;

/// Render one slot's request bytes for `wire`.
std::string render_request(const ebmf::BinaryMatrix& m, Wire wire,
                           bool traced);

/// cold-ftqc: `count` distinct FTQC-family patterns (logical, qLDPC,
/// kron two-level, defective patch), line JSON through an L1-on router.
RoutedInputs cold_ftqc_inputs(std::uint64_t seed, std::size_t count,
                              bool with_traced);

/// repeat-l1 / repeat-hop: `bases` distinct FTQC patterns, `pool` slots of
/// fresh row/column permutations of them (cycled), line JSON through an
/// L1-on router (`hop` = false) or binary frames through an L1-off router.
RoutedInputs repeat_inputs(std::uint64_t seed, bool hop, std::size_t bases,
                           std::size_t pool, bool with_traced);

/// One Table 1 instance and how it is solved.
struct Table1Instance {
  std::string row;  ///< Table 1 row label, e.g. "10x10, gap, 2".
  ebmf::BinaryMatrix matrix;
  std::size_t known_optimal = 0;  ///< r_B by construction (opt family).
  bool smt_feasible = true;       ///< false: 100x100 rows (rank only).
};

/// Twice the paper's Table 1 populations (1640 instances), in a seeded
/// order.
std::vector<Table1Instance> table1_inputs(std::uint64_t seed);

/// The `sap` request Table 1 solves each instance with (no cache).
ebmf::engine::SolveRequest table1_request(const Table1Instance& inst);

/// Per-SAT-call conflict cap of the Table 1 solves, and their deadline.
inline constexpr std::int64_t kTable1Conflicts = 2000;
inline constexpr double kTable1BudgetSeconds = 30.0;

/// Trial counts of the row-packing ladder that follows each SAP solve.
inline constexpr std::size_t kPackingTrials[4] = {1, 10, 100, 1000};

}  // namespace perfbench
