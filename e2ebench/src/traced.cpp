#include "traced.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "lbmv/core/delta_engine.h"
#include "lbmv/sim/engine.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/rate_estimator.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// Run \p fn and add its wall time to \p acc; returns what fn returns.
template <typename Fn>
decltype(auto) timed(double& acc, Fn&& fn) {
  struct Stop {
    double& acc;
    Clock::time_point t0 = Clock::now();
    ~Stop() {
      acc += std::chrono::duration<double>(Clock::now() - t0).count();
    }
  } stop{acc};
  return fn();
}

}  // namespace

lbmv::sim::RoundReport composed_round(
    const lbmv::core::Mechanism& mechanism,
    const lbmv::sim::ProtocolOptions& options,
    const lbmv::model::SystemConfig& config,
    const lbmv::model::BidProfile& intents, std::uint64_t seed,
    LayerTotals& totals) {
  using namespace lbmv::sim;
  auto& layers = totals.seconds;
  const std::size_t n = config.size();
  RoundReport report;
  report.messages += n;
  report.allocation = timed(layers[kAllocate], [&] {
    return mechanism.allocator().allocate(config.family(), intents.bids,
                                          config.arrival_rate());
  });
  report.messages += n;

  const Clock::time_point setup_start = Clock::now();
  lbmv::util::Rng rng(seed);
  Simulation sim;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Server*> server_ptrs;
  servers.reserve(n);
  const double expected_jobs =
      config.arrival_rate() * options.horizon / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    servers.push_back(std::make_unique<Server>(
        sim, "C" + std::to_string(i + 1), intents.executions[i],
        options.service_model, rng.split(i + 1)));
    servers.back()->reserve(static_cast<std::size_t>(2.0 * expected_jobs) +
                            16);
    server_ptrs.push_back(servers.back().get());
  }
  std::vector<double> rates(report.allocation.rates().begin(),
                            report.allocation.rates().end());
  JobSource source(sim, server_ptrs, std::move(rates), options.horizon,
                   rng.split(0));
  source.start();
  layers[kSimSetup] +=
      std::chrono::duration<double>(Clock::now() - setup_start).count();

  timed(layers[kSimRun], [&] { sim.run(); });
  report.metrics = timed(layers[kSimMetrics], [&] {
    return collect_metrics(server_ptrs, options.horizon,
                           options.warmup_fraction);
  });
  totals.jobs += source.jobs_emitted();
  totals.events += sim.processed();

  lbmv::model::BidProfile verified = intents;
  timed(layers[kSimEstimate], [&] {
    report.estimated_execution.resize(n);
    report.estimate_available.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto estimate =
          options.trim_fraction > 0.0
              ? estimate_execution_value_trimmed(servers[i]->completions(),
                                                 options.service_model,
                                                 options.trim_fraction)
              : estimate_execution_value(servers[i]->completions(),
                                         options.service_model);
      report.estimate_available[i] = estimate.has_value();
      report.estimated_execution[i] =
          estimate ? estimate->execution_value : intents.bids[i];
      verified.executions[i] = report.estimated_execution[i];
    }
  });
  totals.fallbacks += static_cast<std::uint64_t>(
      std::count(report.estimate_available.begin(),
                 report.estimate_available.end(), false));

  timed(layers[kPay], [&] {
    lbmv::core::DeltaRoundEngine engine(mechanism, config.family_ptr(),
                                        config.arrival_rate(), verified);
    report.outcome = engine.outcome();
    engine.sync(intents.bids, intents.executions);
    report.oracle_outcome = engine.outcome();
  });
  report.messages += n;
  return report;
}

lbmv::sim::EpochReport composed_epochs(
    const lbmv::core::Mechanism& mechanism,
    const lbmv::model::SystemConfig& initial_config,
    const lbmv::sim::EpochOptions& options, LayerTotals& totals) {
  using namespace lbmv::sim;
  auto& layers = totals.seconds;
  const std::size_t n = initial_config.size();
  std::vector<int> lags = options.bid_lags;
  if (lags.empty()) lags.assign(n, 0);
  const int max_lag = *std::max_element(lags.begin(), lags.end());

  lbmv::util::Rng rng(options.seed);
  std::vector<double> current(initial_config.true_values().begin(),
                              initial_config.true_values().end());
  std::deque<std::vector<double>> history(
      static_cast<std::size_t>(max_lag) + 1, current);

  EpochReport report;
  report.cumulative_utility.assign(n, 0.0);
  report.records.reserve(static_cast<std::size_t>(options.epochs));
  double efficiency_sum = 0.0;
  lbmv::model::BidProfile profile;
  profile.bids.resize(n);
  profile.executions.resize(n);
  std::optional<lbmv::core::DeltaRoundEngine> engine;
  std::vector<double> draws(n);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    EpochRecord record;
    timed(layers[kRecord], [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& lagged =
            history[history.size() - 1 - static_cast<std::size_t>(lags[i])];
        profile.bids[i] = lagged[i];
        profile.executions[i] = current[i];
      }
    });
    const lbmv::model::SystemConfig config = timed(layers[kConfig], [&] {
      return lbmv::model::SystemConfig(current, initial_config.arrival_rate(),
                                       initial_config.family_ptr());
    });
    timed(layers[kRecord], [&] { record.true_values = current; });
    const lbmv::core::MechanismOutcome& outcome =
        timed(layers[kRound], [&]() -> const lbmv::core::MechanismOutcome& {
          if (!engine) {
            engine.emplace(mechanism, initial_config.family_ptr(),
                           initial_config.arrival_rate(), profile);
          } else {
            engine->sync(profile.bids, profile.executions);
          }
          return engine->outcome();
        });
    timed(layers[kRecord], [&] { record.outcome = outcome; });
    record.optimal_latency = timed(layers[kOptimal], [&] {
      return mechanism.allocator().optimal_latency(
          config.family(), current, config.arrival_rate());
    });
    timed(layers[kRecord], [&] {
      record.efficiency =
          record.optimal_latency / record.outcome.actual_latency;
      efficiency_sum += record.efficiency;
      for (std::size_t i = 0; i < n; ++i) {
        report.cumulative_utility[i] += record.outcome.agents[i].utility;
      }
      report.records.push_back(std::move(record));
    });

    timed(layers[kDrift], [&] {
      timed(layers[kRng], [&] {
        for (double& z : draws) z = rng.normal(0.0, options.drift_sigma);
      });
      for (std::size_t i = 0; i < n; ++i) {
        double& t = current[i];
        t *= std::exp(draws[i]);
        if (t < options.min_type) t = options.min_type * options.min_type / t;
        if (t > options.max_type) t = options.max_type * options.max_type / t;
        t = std::clamp(t, options.min_type, options.max_type);
      }
    });
    timed(layers[kRecord], [&] {
      history.push_back(current);
      history.pop_front();
    });
  }
  report.mean_efficiency =
      efficiency_sum / static_cast<double>(options.epochs);
  return report;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool close(double a, double b, double rel_tol) {
  if (rel_tol == 0.0) return same_bits(a, b);
  return std::fabs(a - b) <=
         rel_tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string span_difference(const char* what, std::span<const double> a,
                            std::span<const double> b, double rel_tol) {
  if (a.size() != b.size()) return std::string(what) + " size";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!close(a[i], b[i], rel_tol)) {
      return std::string(what) + "[" + std::to_string(i) + "]";
    }
  }
  return {};
}

}  // namespace

std::string outcome_difference(const lbmv::core::MechanismOutcome& a,
                               const lbmv::core::MechanismOutcome& b,
                               double rel_tol) {
  if (auto d = span_difference("allocation", a.allocation.rates(),
                               b.allocation.rates(), rel_tol);
      !d.empty()) {
    return d;
  }
  if (a.agents.size() != b.agents.size()) return "agent count";
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    const auto& x = a.agents[i];
    const auto& y = b.agents[i];
    if (!close(x.allocation, y.allocation, rel_tol) ||
        !close(x.compensation, y.compensation, rel_tol) ||
        !close(x.bonus, y.bonus, rel_tol) ||
        !close(x.payment, y.payment, rel_tol) ||
        !close(x.valuation, y.valuation, rel_tol) ||
        !close(x.utility, y.utility, rel_tol)) {
      return "agent " + std::to_string(i) + " outcome";
    }
  }
  if (!close(a.actual_latency, b.actual_latency, rel_tol)) {
    return "actual latency";
  }
  if (!close(a.reported_latency, b.reported_latency, rel_tol)) {
    return "reported latency";
  }
  return {};
}

std::string round_difference(const lbmv::sim::RoundReport& a,
                             const lbmv::sim::RoundReport& b) {
  if (auto d = span_difference("allocation", a.allocation.rates(),
                               b.allocation.rates(), 0.0);
      !d.empty()) {
    return d;
  }
  if (auto d = span_difference("estimated execution", a.estimated_execution,
                               b.estimated_execution, 0.0);
      !d.empty()) {
    return d;
  }
  if (a.estimate_available != b.estimate_available) {
    return "estimate availability";
  }
  if (auto d = outcome_difference(a.outcome, b.outcome, 0.0); !d.empty()) {
    return "outcome " + d;
  }
  if (auto d = outcome_difference(a.oracle_outcome, b.oracle_outcome, 0.0);
      !d.empty()) {
    return "oracle outcome " + d;
  }
  const auto& ma = a.metrics;
  const auto& mb = b.metrics;
  if (ma.servers.size() != mb.servers.size()) return "server count";
  for (std::size_t i = 0; i < ma.servers.size(); ++i) {
    const auto& x = ma.servers[i];
    const auto& y = mb.servers[i];
    if (x.jobs_completed != y.jobs_completed ||
        !same_bits(x.throughput, y.throughput) ||
        !same_bits(x.mean_waiting_time, y.mean_waiting_time) ||
        !same_bits(x.mean_service_time, y.mean_service_time) ||
        !same_bits(x.mean_response_time, y.mean_response_time) ||
        !same_bits(x.utilization, y.utilization) ||
        !same_bits(x.waiting_ci95, y.waiting_ci95)) {
      return "server " + std::to_string(i) + " metrics";
    }
  }
  if (!same_bits(ma.duration, mb.duration)) return "metrics duration";
  if (!same_bits(ma.measured_total_latency, mb.measured_total_latency)) {
    return "measured total latency";
  }
  if (a.messages != b.messages) return "message count";
  return {};
}

std::string epochs_difference(const lbmv::sim::EpochReport& a,
                              const lbmv::sim::EpochReport& b) {
  if (a.records.size() != b.records.size()) return "epoch count";
  for (std::size_t e = 0; e < a.records.size(); ++e) {
    const auto& x = a.records[e];
    const auto& y = b.records[e];
    const std::string at = "epoch " + std::to_string(e) + " ";
    if (auto d = span_difference("true values", x.true_values, y.true_values,
                                 0.0);
        !d.empty()) {
      return at + d;
    }
    if (auto d = outcome_difference(x.outcome, y.outcome, 0.0); !d.empty()) {
      return at + d;
    }
    if (!same_bits(x.optimal_latency, y.optimal_latency)) {
      return at + "optimal latency";
    }
    if (!same_bits(x.efficiency, y.efficiency)) return at + "efficiency";
  }
  if (auto d = span_difference("cumulative utility", a.cumulative_utility,
                               b.cumulative_utility, 0.0);
      !d.empty()) {
    return d;
  }
  if (!same_bits(a.mean_efficiency, b.mean_efficiency)) {
    return "mean efficiency";
  }
  return {};
}

}  // namespace e2e
