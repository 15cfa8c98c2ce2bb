#pragma once

/// \file job_source.h
/// Poisson job generation with allocation-proportional routing.
///
/// The paper's workload is a stream of jobs arriving at the system with
/// rate R, split across computers according to the allocation x computed by
/// the mechanism.  JobSource realises the split probabilistically: each
/// arrival is routed to computer i with probability x_i / R, which makes
/// every per-computer arrival process Poisson with rate x_i (thinning).
///
/// Arrivals are typed events (the source is an EventSink).  Routing is
/// route_job over cumulative_rates (fcfs.h): one uniform draw and a binary
/// search of the prefix sums, the index Rng::categorical would return.
///
/// The protocol round does not run this class: simulate_fcfs (fcfs.h)
/// walks the same stream with the same routing function.  JobSource is the
/// event-loop reference that test_fcfs_pass, test_sim_determinism and the
/// end-to-end benchmark's composed round check the event-free pass
/// against, and it serves callers that drive their own Simulation.
///
/// Telemetry: jobs emitted while obs::enabled() are tallied locally and
/// flushed every kTelemetryFlushEvery jobs and on destruction.

#include <cstdint>
#include <span>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

/// Drives Poisson arrivals into a set of servers until a horizon.
class JobSource final : public EventSink {
 public:
  /// \p rates: per-server arrival rates (x_i); their sum is the system rate.
  /// \p servers must outlive the source.  Arrivals stop at \p horizon.
  JobSource(Simulation& sim, std::span<Server* const> servers,
            std::vector<double> rates, SimTime horizon, util::Rng rng);
  ~JobSource();
  // Scheduled events point at this source, and its telemetry tally is
  // flushed exactly once: neither copyable nor movable.
  JobSource(const JobSource&) = delete;
  JobSource& operator=(const JobSource&) = delete;

  /// Schedule the first arrival; subsequent arrivals self-schedule.
  void start();

  /// Typed-event entry point: fires one arrival.
  void on_sim_event(Simulation& sim, EventKind kind) override;

  [[nodiscard]] std::uint64_t jobs_emitted() const { return next_job_id_; }
  [[nodiscard]] std::span<const std::uint64_t> per_server_counts() const {
    return counts_;
  }

 private:
  void arrival();
  void flush_telemetry();

  Simulation* sim_;
  std::vector<Server*> servers_;
  std::vector<double> cumulative_rates_;  ///< prefix sums of the rates
  double total_rate_ = 0.0;
  SimTime horizon_;
  util::Rng rng_;
  std::uint64_t next_job_id_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t obs_jobs_pending_ = 0;  ///< emitted, not yet flushed
};

}  // namespace lbmv::sim
