#include "lbmv/sim/job_source.h"

#include <algorithm>

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

JobSource::JobSource(Simulation& sim, std::span<Server* const> servers,
                     std::vector<double> rates, SimTime horizon,
                     util::Rng rng)
    : sim_(&sim),
      servers_(servers.begin(), servers.end()),
      rates_(std::move(rates)),
      total_rate_(0.0),
      horizon_(horizon),
      rng_(rng),
      counts_(servers_.size(), 0) {
  LBMV_REQUIRE(!servers_.empty(), "job source needs at least one server");
  LBMV_REQUIRE(rates_.size() == servers_.size(),
               "one rate per server required");
  cumulative_rates_.reserve(rates_.size());
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    LBMV_REQUIRE(servers_[i] != nullptr, "servers must not be null");
    LBMV_REQUIRE(rates_[i] >= 0.0, "rates must be non-negative");
    // Accumulate left-to-right exactly like Rng::categorical's running sum
    // so the binary-search routing is bit-identical to the linear scan.
    total_rate_ += rates_[i];
    cumulative_rates_.push_back(total_rate_);
  }
  LBMV_REQUIRE(total_rate_ > 0.0, "total arrival rate must be positive");
  LBMV_REQUIRE(horizon_ > 0.0, "horizon must be positive");
}

JobSource::~JobSource() { flush_telemetry(); }

void JobSource::flush_telemetry() {
  if (obs_jobs_pending_ == 0) return;
  obs::SimProbes::get().source_jobs.inc_batch(obs_jobs_pending_);
  obs_jobs_pending_ = 0;
}

void JobSource::start() {
  sim_->schedule_event_after(rng_.exponential(total_rate_),
                             EventKind::kArrival, this);
}

void JobSource::on_sim_event(Simulation& sim, EventKind kind) {
  (void)sim;
  LBMV_ASSERT(kind == EventKind::kArrival, "job source only handles arrivals");
  arrival();
}

std::size_t JobSource::route() {
  // Equivalent to rng_.categorical(rates_): one uniform draw, first index i
  // with u < prefix_sum(i), falling back to the last server on round-off.
  const double u = rng_.uniform() * total_rate_;
  const auto it = std::upper_bound(cumulative_rates_.begin(),
                                   cumulative_rates_.end(), u);
  if (it == cumulative_rates_.end()) return cumulative_rates_.size() - 1;
  return static_cast<std::size_t>(it - cumulative_rates_.begin());
}

void JobSource::arrival() {
  if (sim_->now() > horizon_) return;  // stop generating past the horizon
  const std::size_t target = route();
  if (obs::enabled() && ++obs_jobs_pending_ >= kTelemetryFlushEvery) {
    flush_telemetry();
  }
  ++counts_[target];
  servers_[target]->submit(Job{next_job_id_++, sim_->now()});
  sim_->schedule_event_after(rng_.exponential(total_rate_),
                             EventKind::kArrival, this);
}

}  // namespace lbmv::sim
