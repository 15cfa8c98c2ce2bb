#include "lbmv/sim/fcfs.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lbmv/util/error.h"

namespace lbmv::sim {

double draw_service_time(util::Rng& rng, ServiceModel model, double mean) {
  switch (model) {
    case ServiceModel::kExponential:
      return rng.exponential(1.0 / mean);
    case ServiceModel::kDeterministic:
      return mean;
    case ServiceModel::kErlang2:
      // Sum of two exponentials with mean m/2 each.
      return rng.exponential(2.0 / mean) + rng.exponential(2.0 / mean);
  }
  LBMV_ASSERT(false, "unknown service model");
  return mean;
}

std::vector<double> cumulative_rates(std::span<const double> rates) {
  std::vector<double> cumulative;
  cumulative.reserve(rates.size());
  double total = 0.0;
  for (const double rate : rates) {
    LBMV_REQUIRE(rate >= 0.0, "rates must be non-negative");
    total += rate;
    cumulative.push_back(total);
  }
  LBMV_REQUIRE(total > 0.0, "total arrival rate must be positive");
  return cumulative;
}

std::size_t route_job(std::span<const double> cumulative, util::Rng& rng) {
  const double u = rng.uniform() * cumulative.back();
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  if (it == cumulative.end()) return cumulative.size() - 1;
  return static_cast<std::size_t>(it - cumulative.begin());
}

namespace {

/// The source pass: emits jobs 0, 1, ... with Exp(total rate) gaps while
/// the arrival time is <= horizon, appending each as Completion{id,
/// arrival} to its server's log.  Returns the number of jobs emitted.
std::uint64_t route_arrivals(std::span<const double> cumulative,
                             SimTime horizon, util::Rng rng,
                             std::vector<std::vector<Completion>>& logs) {
  const double total = cumulative.back();
  std::uint64_t id = 0;
  // The first arrival is scheduled from t = 0, each later one from the
  // previous arrival: the same sums the event loop's clock forms.
  for (SimTime t = 0.0 + rng.exponential(total); t <= horizon;
       t = t + rng.exponential(total)) {
    logs[route_job(cumulative, rng)].push_back(Completion{id++, t});
  }
  return id;
}

}  // namespace

double serve_fcfs(std::span<Completion> jobs, ServiceModel model,
                  double mean_service, util::Rng rng) {
  double busy_time = 0.0;
  SimTime free_at = -std::numeric_limits<double>::infinity();
  for (Completion& job : jobs) {
    const double service = draw_service_time(rng, model, mean_service);
    job.start = std::max(job.arrival, free_at);
    job.finish = job.start + service;
    free_at = job.finish;
    busy_time += service;
  }
  return busy_time;
}

std::vector<ServerRecord> FcfsRun::records() const {
  std::vector<ServerRecord> records;
  records.reserve(completions.size());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    records.push_back(ServerRecord{completions[i], busy_time[i]});
  }
  return records;
}

FcfsRun simulate_fcfs(std::span<const double> rates,
                      std::span<const double> executions, ServiceModel model,
                      SimTime horizon, const util::Rng& rng) {
  const std::size_t n = rates.size();
  LBMV_REQUIRE(n > 0, "simulation needs at least one server");
  LBMV_REQUIRE(executions.size() == n, "one execution value per server");
  LBMV_REQUIRE(std::isfinite(horizon) && horizon > 0.0,
               "horizon must be finite and positive");
  const std::vector<double> cumulative = cumulative_rates(rates);
  std::vector<double> mean_service(n);
  for (std::size_t i = 0; i < n; ++i) {
    mean_service[i] = mean_service_from_linear_coefficient(executions[i],
                                                           model);
  }

  FcfsRun run;
  run.completions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Server i receives Poisson(x_i * horizon) jobs; four standard
    // deviations of headroom make a regrowth rare.
    const double expected = rates[i] * horizon;
    if (std::isfinite(expected)) {
      run.completions[i].reserve(
          static_cast<std::size_t>(expected + 4.0 * std::sqrt(expected)) +
          16);
    }
  }
  run.jobs = route_arrivals(cumulative, horizon, rng.split(0),
                            run.completions);
  run.busy_time.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    run.busy_time[i] = serve_fcfs(run.completions[i], model, mean_service[i],
                                  rng.split(i + 1));
  }
  return run;
}

}  // namespace lbmv::sim
