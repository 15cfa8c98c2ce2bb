#include "lbmv/sim/server.h"

#include <cmath>

#include "lbmv/obs/obs.h"
#include "lbmv/sim/fcfs.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

double linear_coefficient_from_mean_service(double m, ServiceModel model) {
  LBMV_REQUIRE(m > 0.0, "mean service time must be positive");
  switch (model) {
    case ServiceModel::kExponential:
      return m * m;  // E[S^2]/2 = (2 m^2)/2
    case ServiceModel::kDeterministic:
      return 0.5 * m * m;  // E[S^2]/2 = m^2/2
    case ServiceModel::kErlang2:
      return 0.75 * m * m;  // E[S^2]/2 = (1.5 m^2)/2
  }
  LBMV_ASSERT(false, "unknown service model");
  return 0.0;
}

double mean_service_from_linear_coefficient(double t, ServiceModel model) {
  LBMV_REQUIRE(t > 0.0, "linear coefficient must be positive");
  switch (model) {
    case ServiceModel::kExponential:
      return std::sqrt(t);
    case ServiceModel::kDeterministic:
      return std::sqrt(2.0 * t);
    case ServiceModel::kErlang2:
      return std::sqrt(t / 0.75);
  }
  LBMV_ASSERT(false, "unknown service model");
  return 0.0;
}

Server::Server(Simulation& sim, std::string name, double execution_value,
               ServiceModel model, util::Rng rng)
    : sim_(&sim),
      name_(std::move(name)),
      execution_value_(execution_value),
      model_(model),
      mean_service_(mean_service_from_linear_coefficient(execution_value,
                                                         model)),
      rng_(rng) {
  // Labelled per-server families are only registered when recording is on
  // at construction time (enable observability before building the
  // simulation); otherwise the handles stay inert no-ops.
  if (obs::enabled()) {
    observed_ = true;
    obs::Registry& registry = obs::Registry::global();
    obs_arrivals_ = registry.counter(
        obs::labeled("lbmv_server_arrivals_total", "server", name_));
    obs_completions_ = registry.counter(
        obs::labeled("lbmv_server_completions_total", "server", name_));
    obs_waiting_ = registry.histogram(
        obs::labeled("lbmv_server_waiting_seconds", "server", name_));
  }
}

Server::~Server() { flush_telemetry(completions_.size()); }

void Server::submit(const Job& job) {
  if (observed_ && obs::enabled() &&
      ++obs_arrivals_pending_ >= kTelemetryFlushEvery) {
    flush_telemetry(obs_flushed_);
  }
  queue_.push_back(Job{job.id, sim_->now()});
  if (!busy_) begin_service();
}

void Server::begin_service() {
  LBMV_ASSERT(head_ < queue_.size(), "begin_service with an empty queue");
  busy_ = true;
  const Job job = queue_[head_++];
  // Reclaim the consumed prefix occasionally to bound memory.
  if (head_ > 1024 && head_ * 2 > queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const double service = draw_service_time(rng_, model_, mean_service_);
  in_service_ = job;
  service_start_ = sim_->now();
  service_duration_ = service;
  busy_time_ += service;
  sim_->schedule_event_after(service, EventKind::kServiceCompletion, this);
}

void Server::on_sim_event(Simulation& sim, EventKind kind) {
  (void)sim;
  LBMV_ASSERT(kind == EventKind::kServiceCompletion,
              "server only handles service completions");
  completions_.push_back(Completion{in_service_.id, in_service_.arrival,
                                    service_start_,
                                    service_start_ + service_duration_});
  if (observed_) tally_completion();
  if (head_ < queue_.size()) {
    begin_service();
  } else {
    busy_ = false;
  }
}

void Server::tally_completion() {
  const std::size_t done = completions_.size();
  if (!obs::enabled()) {
    // Not recorded: report the pending run before it and skip this one.
    flush_telemetry(done - 1);
    obs_flushed_ = done;
  } else if (done - obs_flushed_ >= kTelemetryFlushEvery) {
    flush_telemetry(done);
  }
}

void Server::flush_telemetry(std::size_t end) {
  if (!observed_ || (obs_arrivals_pending_ == 0 && end <= obs_flushed_)) {
    return;
  }
  obs_arrivals_.inc_batch(obs_arrivals_pending_);
  obs_arrivals_pending_ = 0;
  if (end <= obs_flushed_) return;
  obs_completions_.inc_batch(end - obs_flushed_);
  const Completion* pending = completions_.data() + obs_flushed_;
  obs::record_each(obs_waiting_, end - obs_flushed_, [pending](std::size_t k) {
    return pending[k].waiting_time();
  });
  obs_flushed_ = end;
}

void Server::reserve(std::size_t expected_jobs) {
  queue_.reserve(expected_jobs);
  completions_.reserve(expected_jobs);
}

void Server::reset() {
  LBMV_REQUIRE(!busy_, "cannot reset a server with a job in service");
  queue_.clear();
  head_ = 0;
  busy_time_ = 0.0;
  flush_telemetry(completions_.size());
  completions_.clear();
  obs_flushed_ = 0;
}

}  // namespace lbmv::sim
