#pragma once

/// \file workloads.h
/// The benchmark's five workloads (README.md): inputs generated from the
/// workload seed, the op each one times, the checks on every op's output,
/// and the per-layer metrics of the traced run.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "traced.h"

namespace e2e {

/// Name and unit of one reported metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric the traced run reports, in output order.  A
/// workload that does not exercise a layer reports 0 for it.
[[nodiscard]] std::span<const MetricSpec> per_layer_specs();

/// Workload names in the order `--workload all` runs them.
[[nodiscard]] std::span<const std::string_view> workload_names();

using Metrics = std::map<std::string, double>;
using Counters = std::map<std::string, std::uint64_t>;

/// What the traced run measured, handed to Workload::layer_metrics.
struct TraceSummary {
  std::size_t ops = 0;
  LayerTotals on;   ///< composed ops with the workload's telemetry
  LayerTotals off;  ///< telemetry workloads: composed ops, probes off
  std::vector<double> untraced_s;  ///< the program's own op, per op
  Counters counters;               ///< counting pass (one op, probes on)
  std::uint64_t monitor_checks = 0;  ///< counting pass monitor checks
};

/// One workload: fixed inputs plus a closed loop of ops from one caller.
class Workload {
 public:
  virtual ~Workload() = default;

  /// The timed call: op number \p index, with its own seed derived from
  /// the workload seed.  Keeps the output for check() and fidelity().
  virtual void op(std::uint64_t index) = 0;

  /// Empty when the kept output passes every check, else the reason.
  /// Releases the kept outputs.
  [[nodiscard]] virtual std::string check() = 0;

  /// Whether composed() rebuilds the op from public calls.
  [[nodiscard]] virtual bool composable() const { return false; }

  /// The op rebuilt from its public calls with a timer per layer; keeps
  /// the output for fidelity().
  virtual void composed(std::uint64_t /*index*/, LayerTotals& /*totals*/) {}

  /// Empty when the composed output equals the op's bit for bit.
  [[nodiscard]] virtual std::string fidelity() const { return {}; }

  /// Whether the workload runs with telemetry on (obs::set_enabled).
  [[nodiscard]] virtual bool telemetry() const { return false; }

  /// Fill this workload's per-layer metrics from the traced run.  Empty
  /// when the trace is consistent, else the reason (e.g. the composed
  /// op's counts disagree with the counting pass).
  [[nodiscard]] virtual std::string layer_metrics(const TraceSummary& trace,
                                                  Metrics& out) const = 0;
};

/// Build a workload by name; nullptr for an unknown name.  Generates the
/// inputs and constructs the mechanism: the set-up the benchmark times.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace e2e
