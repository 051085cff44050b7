#pragma once
/// \file common.h
/// \brief Small shared pieces of the benchmark: clocks, order statistics,
/// and the named-metric list every phase reports into.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns`.
inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// The q-quantile (0..1) of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The tail: p95, or when fewer than 200 samples leave fewer than ten
/// beyond it, the highest percentile with ten samples beyond it. (p99 sits
/// where the samples thin out, between the bulk of the solves and the few
/// that the conflict cap cuts, and moved by a third between runs.)
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

inline Tail tail_latency(const std::vector<double>& values) {
  if (values.size() <= 10) return {0.0, 0.0};
  const double n = static_cast<double>(values.size());
  const double p = std::min(0.95, 1.0 - 10.0 / n);
  return {100.0 * p, quantile(values, p)};
}

/// Medians over consecutive windows of a timed phase: each window's
/// throughput, p50, tail (as above) and CPU per op, then the median of
/// each across windows, so a transient stall on a shared machine moves one
/// window rather than the run's figures.
struct WindowedFigures {
  double throughput = 0.0;  ///< ops/s
  double p50_us = 0.0;
  double tail_us = 0.0;
  double tail_percentile = 0.0;
  double cpu_us_per_op = 0.0;
  std::size_t windows = 0;
};

/// `bounds` are the window edges (ns, ascending; n edges make n-1 windows)
/// and `cpu_s` the CPU seconds read at each edge (empty = not measured).
/// Ops are assigned to windows by completion time `done_ns`.
inline WindowedFigures windowed(const std::vector<double>& latency_us,
                                const std::vector<std::int64_t>& done_ns,
                                const std::vector<std::int64_t>& bounds,
                                const std::vector<double>& cpu_s) {
  std::vector<double> rate, p50, tail, pct, cpu;
  for (std::size_t w = 0; w + 1 < bounds.size(); ++w) {
    std::vector<double> in;
    for (std::size_t k = 0; k < done_ns.size(); ++k)
      if (done_ns[k] >= bounds[w] && done_ns[k] < bounds[w + 1])
        in.push_back(latency_us[k]);
    if (in.size() <= 10) continue;
    const double seconds = static_cast<double>(bounds[w + 1] - bounds[w]) * 1e-9;
    rate.push_back(static_cast<double>(in.size()) / seconds);
    const Tail t = tail_latency(in);
    tail.push_back(t.value);
    pct.push_back(t.percentile);
    if (w + 1 < cpu_s.size())
      cpu.push_back((cpu_s[w + 1] - cpu_s[w]) * 1e6 /
                    static_cast<double>(in.size()));
    p50.push_back(median(std::move(in)));
  }
  return {median(rate), median(p50), median(tail), median(pct), median(cpu),
          rate.size()};
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Printed next to the value, e.g. "whole run".
};

using Metrics = std::vector<Metric>;

/// Thrown for a broken run: a fleet that will not start, a dead socket, a
/// served-by class that is not what the workload claims.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace perfbench
