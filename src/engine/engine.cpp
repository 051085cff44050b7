// Engine: strategy resolution, report finalization/validation, batch
// execution, the component-parallel solve, and the result-cache hook.

#include <algorithm>
#include <utility>

#include "core/preprocess.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "service/cache.h"
#include "service/canon.h"

namespace ebmf::engine {

namespace {

/// Weakest status wins when merging component reports: a single piece
/// without a bound search (Heuristic) leaves the whole answer heuristic; a
/// single budget-cut piece (Bounded) leaves it bounded.
Status merge_status(Status a, Status b) {
  if (a == Status::Heuristic || b == Status::Heuristic)
    return Status::Heuristic;
  if (a == Status::Bounded || b == Status::Bounded) return Status::Bounded;
  return Status::Optimal;
}

int certificate_strength(Status status) {
  switch (status) {
    case Status::Optimal:
      return 2;
    case Status::Bounded:
      return 1;
    case Status::Heuristic:
      return 0;
  }
  return 0;
}

/// True when `a` is a strictly better answer than `b` for the same
/// pattern: stronger certificate, then smaller depth, then tighter bound.
bool strictly_better(const SolveReport& a, const SolveReport& b) {
  if (certificate_strength(a.status) != certificate_strength(b.status))
    return certificate_strength(a.status) > certificate_strength(b.status);
  if (a.depth() != b.depth()) return a.depth() < b.depth();
  return a.lower_bound > b.lower_bound;
}

/// Settle the anytime fields once upper_bound is final, then check the
/// facade's contract. Establishes the report contract: a matching bracket
/// promotes to Optimal, Optimal pins lower == upper, incumbent_depth
/// defaults to the final depth, and gap == upper − lower — so gap == 0 iff
/// the answer is certified optimal for every solve that produced a
/// partition — and every report's partition is a valid witness of
/// `request`'s pattern.
void finalize(SolveReport& report, const SolveRequest& request) {
  if (!report.partition.empty() &&
      report.lower_bound == report.upper_bound)
    report.status = Status::Optimal;
  if (report.status == Status::Optimal) report.lower_bound = report.upper_bound;
  if (report.incumbent_depth == 0) report.incumbent_depth = report.upper_bound;
  report.gap = report.upper_bound > report.lower_bound
                   ? report.upper_bound - report.lower_bound
                   : 0;
  if (request.masked) {
    std::string why;
    const bool at_most_once =
        request.semantics == completion::DontCareSemantics::AtMostOnce;
    EBMF_ENSURES(completion::validate_masked(*request.masked,
                                             report.partition, at_most_once,
                                             &why));
  } else {
    EBMF_ENSURES(
        static_cast<bool>(validate_partition(request.matrix,
                                             report.partition)));
  }
  EBMF_ENSURES(report.partition.empty() ||
               report.depth() >= report.lower_bound);
}

/// The span a traced request's engine stages parent under: the caller's
/// enclosing span (the server's request root).
std::uint64_t span_parent(const SolveRequest& request) {
  return request.trace ? request.trace->context().parent_span : 0;
}

}  // namespace

SolveReport Engine::run_checked(const SolveRequest& request) const {
  const SolverRegistry::Entry* entry = registry_.find(request.strategy);
  if (entry == nullptr)
    throw UnknownStrategyError(request.strategy, registry_.names());

  // Masked requests bypass the cache: don't-care cells are not part of the
  // canonical form and two masks with equal DC-as-0 patterns differ.
  if (cache_ && !request.masked) return run_cached(*entry, request);

  SolveReport report;
  obs::Phase solve({.seconds = &report.total_seconds,
                    .trace = request.trace.get(),
                    .span = "engine.solve",
                    .parent = span_parent(request)});
  report = entry->solve(request);
  solve.end();
  report.label = request.label;
  if (report.strategy.empty()) report.strategy = request.strategy;
  report.upper_bound = report.depth();
  finalize(report, request);
  return report;
}

SolveReport Engine::run_cached(const SolverRegistry::Entry& entry,
                               const SolveRequest& request) const {
  // `report` is declared first so the total can stamp it whichever answer
  // (fresh solve or cached) ends up in it; the canon pass shares the
  // total's entry read. Traced requests get a span per stage under the
  // caller's enclosing span (the server's request root).
  SolveReport report;
  const obs::Phase::Clock::time_point start = obs::Phase::Clock::now();
  obs::Phase total({.seconds = &report.total_seconds}, start);
  obs::TraceRecorder* const recorder = request.trace.get();
  const std::uint64_t parent = span_parent(request);
  // A pre-canonical request (the router's binary fast path) arrives in
  // canonical form with its 128-bit key, so there is no canon pass and the
  // lift is the identity. Lookup still compares the full stored pattern
  // and every partition is validated below.
  std::optional<canon::Canonical> canonical;
  double canon_seconds = 0.0;
  if (!request.pre_canonical) {
    const obs::Phase phase({.seconds = &canon_seconds, .trace = recorder,
                            .span = "engine.canon", .parent = parent},
                           start);
    canonical = canon::canonicalize(request.matrix);
  }
  const BinaryMatrix& pattern =
      canonical ? canonical->pattern : request.matrix;
  // The key distinguishes strategies: a heuristic answer must not shadow a
  // pending "sap" certificate and vice versa. Tuning knobs (trials, seed,
  // encoding) are deliberately not part of the key — every stored partition
  // is a valid answer for the pattern, and the upgrade-only insert policy
  // keeps the strongest one seen.
  const canon::CacheKey key =
      (canonical ? canonical->key
                 : canon::CacheKey{request.canon_hi, request.canon_lo})
          .mixed_with(request.strategy);

  obs::Phase lookup(recorder, "engine.cache_lookup", parent);
  std::optional<cache::CachedResult> cached =
      cache_->lookup(key, request.strategy, pattern);
  lookup.end();
  // A Bounded entry is a budget-cut exact search; when this request can
  // afford meaningfully more time than the stored attempt spent, re-solve
  // and let the upgrade-only insert keep the better certificate. Optimal
  // entries are final, and Heuristic entries would return the same answer
  // regardless of budget (no bound search is attempted), so both serve.
  const bool retry_for_upgrade =
      cached && cached->report.status == Status::Bounded &&
      !request.budget.exhausted() &&
      request.budget.deadline.remaining_seconds() >
          2.0 * cached->report.total_seconds + 0.01;
  bool served_from_cache = cached.has_value() && !retry_for_upgrade;
  const char* upgrade = nullptr;
  if (!served_from_cache) {
    // Solve the canonical pattern itself: the cache stays in canonical
    // space, and the strategy benefits from the deduplicated instance.
    SolveRequest sub = request;
    if (canonical) sub.matrix = canonical->pattern;
    sub.masked.reset();
    sub.label.clear();
    obs::Phase solve({.seconds = &report.total_seconds,  // what it cost
                      .trace = recorder, .span = "engine.solve",
                      .parent = parent});
    report = entry.solve(sub);
    solve.end();
    if (report.strategy.empty()) report.strategy = request.strategy;
    report.upper_bound = report.depth();
    cache_->insert(key, request.strategy, pattern, report);
    if (retry_for_upgrade) {
      // A retry cut short (cancellation, contention) can come back weaker
      // than the certificate it tried to beat — never serve that.
      if (strictly_better(cached->report, report)) {
        served_from_cache = true;
        upgrade = "retry-kept-stored";
      } else {
        upgrade = "retry";
      }
    }
  }
  if (served_from_cache) report = std::move(cached->report);
  if (canonical) {
    const obs::Phase phase({.timings = &report.timings, .timing = "cache.lift",
                            .trace = recorder, .span = "engine.lift",
                            .parent = parent});
    report.partition = canon::lift(report.partition, *canonical);
  }
  report.add_telemetry("cache_hit", served_from_cache ? "true" : "false");
  if (upgrade != nullptr) report.add_telemetry("cache.upgrade", upgrade);

  report.label = request.label;
  if (report.strategy.empty()) report.strategy = request.strategy;
  report.upper_bound = report.depth();
  report.add_telemetry("canon.key", key.hex());
  if (canonical) {
    report.add_timing("canon", canon_seconds);
    report.add_telemetry(
        "canon.shape", std::to_string(canonical->pattern.rows()) + "x" +
                           std::to_string(canonical->pattern.cols()));
    report.add_telemetry(
        "canon.components",
        static_cast<std::uint64_t>(canonical->components.size()));
  } else {
    report.add_telemetry("canon.precanonical", "true");
  }
  const cache::CacheStats stats = cache_->counters();
  report.add_telemetry("cache.hits", stats.hits);
  report.add_telemetry("cache.misses", stats.misses);
  report.add_telemetry("cache.evictions", stats.evictions);
  total.end();
  finalize(report, request);
  return report;
}

SolveReport Engine::solve(const SolveRequest& request) const {
  return run_checked(request);
}

std::vector<SolveReport> Engine::solve_batch(
    const std::vector<SolveRequest>& requests, std::size_t threads) const {
  std::vector<SolveReport> reports(requests.size());
  parallel_for(requests.size(), threads, [&](std::size_t i) {
    try {
      reports[i] = run_checked(requests[i]);
    } catch (const std::exception& e) {
      SolveReport failed;
      failed.label = requests[i].label;
      failed.strategy = requests[i].strategy;
      failed.add_telemetry("error", e.what());
      reports[i] = std::move(failed);
    }
  });
  return reports;
}

SolveReport Engine::solve_split(const SolveRequest& request,
                                std::size_t threads) const {
  // Masked patterns do not split (a don't-care can bridge components of
  // the DC-as-0 pattern), and unknown names should throw before any work.
  if (request.masked) return solve(request);
  if (!registry_.contains(request.strategy))
    throw UnknownStrategyError(request.strategy, registry_.names());

  SolveReport merged;
  obs::Phase total({.seconds = &merged.total_seconds});
  obs::Phase split({.timings = &merged.timings, .timing = "split"});
  const DuplicateReduction reduction = reduce_duplicates(request.matrix);
  const std::vector<Component> components =
      split_components(reduction.reduced);
  split.end();

  // One giant component serializes the whole pool while the merge still
  // pays the reduce/lift overhead — fall back to the plain path and let the
  // strategy's own preprocessing handle the few stray ones. 90% is the
  // share past which the parallel speedup cannot reach ~1.1x.
  constexpr double kGiantComponentShare = 0.9;
  std::size_t largest_ones = 0;
  for (const Component& component : components)
    largest_ones = std::max(largest_ones, component.matrix.ones_count());
  const std::size_t total_ones = reduction.reduced.ones_count();
  if (components.size() <= 1 ||
      static_cast<double>(largest_ones) >=
          kGiantComponentShare * static_cast<double>(total_ones)) {
    SolveReport whole = run_checked(request);
    whole.add_telemetry("split.fallback", components.size() <= 1
                                              ? "single-component"
                                              : "giant-component");
    whole.add_telemetry("split.components",
                        static_cast<std::uint64_t>(components.size()));
    return whole;
  }

  std::vector<SolveRequest> subs;
  subs.reserve(components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    SolveRequest sub = request;
    sub.matrix = components[c].matrix;
    sub.masked.reset();
    sub.preprocess = false;  // already deduplicated and split
    sub.label = request.label + "#" + std::to_string(c);
    subs.push_back(std::move(sub));
  }

  std::vector<SolveReport> reports(subs.size());
  parallel_for(subs.size(), threads,
               [&](std::size_t i) { reports[i] = run_checked(subs[i]); });

  merged.label = request.label;
  merged.strategy = request.strategy;
  merged.status = Status::Optimal;
  Partition reduced_partition;
  for (std::size_t c = 0; c < reports.size(); ++c) {
    Partition lifted = lift_partition(reports[c].partition, components[c].map);
    reduced_partition.insert(reduced_partition.end(),
                             std::make_move_iterator(lifted.begin()),
                             std::make_move_iterator(lifted.end()));
    merged.lower_bound += reports[c].lower_bound;
    merged.status = merge_status(merged.status, reports[c].status);
    for (const auto& t : reports[c].timings)
      merged.add_timing(t.phase, t.seconds);
  }
  merged.partition = lift_partition(reduced_partition, reduction.map);
  merged.upper_bound = merged.depth();
  merged.add_telemetry("split.components",
                       static_cast<std::uint64_t>(components.size()));
  merged.add_telemetry(
      "split.reduced_shape",
      std::to_string(reduction.reduced.rows()) + "x" +
          std::to_string(reduction.reduced.cols()));
  total.end();
  finalize(merged, request);
  return merged;
}

}  // namespace ebmf::engine
