#include "lbmv/sim/job_source.h"

#include "lbmv/obs/probes.h"
#include "lbmv/sim/fcfs.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

JobSource::JobSource(Simulation& sim, std::span<Server* const> servers,
                     std::vector<double> rates, SimTime horizon,
                     util::Rng rng)
    : sim_(&sim),
      servers_(servers.begin(), servers.end()),
      horizon_(horizon),
      rng_(rng),
      counts_(servers_.size(), 0) {
  LBMV_REQUIRE(!servers_.empty(), "job source needs at least one server");
  LBMV_REQUIRE(rates.size() == servers_.size(),
               "one rate per server required");
  for (const Server* server : servers_) {
    LBMV_REQUIRE(server != nullptr, "servers must not be null");
  }
  cumulative_rates_ = cumulative_rates(rates);
  total_rate_ = cumulative_rates_.back();
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

void JobSource::arrival() {
  if (sim_->now() > horizon_) return;  // stop generating past the horizon
  const std::size_t target = route_job(cumulative_rates_, rng_);
  if (obs::enabled() && ++obs_jobs_pending_ >= kTelemetryFlushEvery) {
    flush_telemetry();
  }
  ++counts_[target];
  servers_[target]->submit(Job{next_job_id_++, sim_->now()});
  sim_->schedule_event_after(rng_.exponential(total_rate_),
                             EventKind::kArrival, this);
}

}  // namespace lbmv::sim
