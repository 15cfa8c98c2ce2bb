#pragma once

/// \file metrics.h
/// Measurement of simulated latency against the analytic model.
///
/// The paper's total latency L(x) = sum_i x_i * l_i(x_i) interprets l_i as
/// the expected *waiting* time at computer i (the linear M/G/1 light-load
/// term has no constant part).  The simulated analogue replaces x_i by the
/// observed throughput and l_i by the mean observed waiting time.

#include <span>
#include <vector>

#include "lbmv/sim/server.h"
#include "lbmv/util/stats.h"

namespace lbmv::sim {

/// Per-server observation summary over a finished run.
struct ServerMetrics {
  std::size_t jobs_completed = 0;
  double throughput = 0.0;         ///< completions / duration
  double mean_waiting_time = 0.0;  ///< queueing delay before service
  double mean_service_time = 0.0;
  double mean_response_time = 0.0;
  double utilization = 0.0;        ///< busy_time / duration
  double waiting_ci95 = 0.0;       ///< CI half-width of the mean waiting time
};

/// Whole-system summary.
struct SystemMetrics {
  std::vector<ServerMetrics> servers;
  double duration = 0.0;
  /// Measured analogue of L(x): sum_i throughput_i * mean_waiting_i.
  double measured_total_latency = 0.0;

  [[nodiscard]] std::size_t total_jobs() const;
};

/// What one server observed over a finished run.
struct ServerRecord {
  std::span<const Completion> completions;  ///< in service order
  double busy_time = 0.0;                   ///< sum of the service times
};

/// Summarise per-server records after running a simulation for
/// \p duration simulated seconds.  Jobs arriving within the first
/// \p warmup_fraction * duration are discarded as transient.
[[nodiscard]] SystemMetrics collect_metrics(
    std::span<const ServerRecord> servers, double duration,
    double warmup_fraction = 0.1);

/// collect_metrics over event-loop servers' completion logs and busy times.
[[nodiscard]] SystemMetrics collect_metrics(std::span<Server* const> servers,
                                            double duration,
                                            double warmup_fraction = 0.1);

}  // namespace lbmv::sim
