#pragma once

/// \file bench_math.h
/// The benchmark's own arithmetic: per-op summaries, the percentile
/// support rule, peak-RSS reading and the trace ratios.  Kept apart from
/// the workloads so tests/test_bench_math.cpp can pin it down.

#include <cstddef>
#include <span>
#include <string_view>

namespace e2e {

/// Samples strictly beyond the p-th percentile (p in [0, 100]) of n
/// samples, with the percentile at the linearly interpolated rank
/// p/100 * (n - 1) that util::percentile uses.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Highest of the percentiles 50, 90, 95, 99, 99.9 with at least
/// \p min_beyond samples beyond it at \p n samples; 0 when even the
/// median lacks them.
[[nodiscard]] double highest_supported_percentile(std::size_t n,
                                                  std::size_t min_beyond = 10);

/// End-to-end summary of one closed-loop timed phase.
struct OpSummary {
  std::size_t ops = 0;
  double busy_s = 0.0;     ///< sum of the op wall times
  double ops_per_s = 0.0;  ///< ops / busy_s
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::size_t p95_beyond = 0;  ///< samples beyond the p95
};

/// Summarise per-op wall times in seconds.  Requires at least one op.
[[nodiscard]] OpSummary summarize_ops(std::span<const double> op_seconds);

/// Median of \p values (linear interpolation).  Requires a non-empty span.
[[nodiscard]] double median(std::span<const double> values);

/// Peak resident set size in MiB from the text of /proc/<pid>/status (its
/// "VmHWM:  <n> kB" line).  Throws std::runtime_error when the line is
/// missing or malformed.
[[nodiscard]] double parse_peak_rss_mib(std::string_view status);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Share of the traced op time the named layers explain:
/// sum(layer_seconds) / op_seconds.  Requires op_seconds > 0.
[[nodiscard]] double coverage(std::span<const double> layer_seconds,
                              double op_seconds);

/// Relative cost of tracing: traced / untraced - 1.  Requires
/// untraced > 0.
[[nodiscard]] double overhead_frac(double traced, double untraced);

}  // namespace e2e
