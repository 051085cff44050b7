#pragma once
/// \file layers.h
/// \brief The layer ledger: each layer's cost measured from outside, by
/// timing calls into its public functions on the workload's own patterns,
/// request bytes and reply reports.

#include <string>
#include <vector>

#include "common.h"
#include "core/matrix.h"
#include "engine/engine.h"

namespace perfbench {

struct LedgerInput {
  std::vector<ebmf::BinaryMatrix> patterns;
  /// The in-process request the fleet would run for each pattern; every
  /// replayed solve restarts its deadline at `budget_seconds`.
  std::vector<ebmf::engine::SolveRequest> requests;
  double budget_seconds = 10.0;
  std::vector<std::string> lines;   ///< Line-JSON request bytes per pattern.
  std::vector<std::string> frames;  ///< Binary request frames per pattern.
  std::vector<ebmf::engine::SolveReport> replies;  ///< Decoded, per pattern.
};

/// Every layer metric the ledger measures, by name (see BENCHMARK.json).
Metrics layer_ledger(const LedgerInput& in);

/// The value of `name` in `metrics` (0 when absent).
double metric_value(const Metrics& metrics, const std::string& name);

}  // namespace perfbench
