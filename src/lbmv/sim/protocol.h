#pragma once

/// \file protocol.h
/// The centralised load balancing protocol with verification (paper §3).
///
/// One round of the protocol:
///   1. collect a bid from every computer                    (n messages)
///   2. run the allocation algorithm and assign the jobs     (n messages)
///   3. let the jobs execute on the (simulated) computers
///   4. estimate each computer's actual execution value from the observed
///      completions — the verification step
///   5. compute payments from (bids, estimated execution values) and send
///      them                                                 (n messages)
/// for a total of 3n = O(n) messages, matching the paper's claim.
///
/// Step 3 runs the event-free two-pass simulation of fcfs.h (a Poisson
/// source pass, then one Lindley pass per FCFS server), which reproduces
/// the calendar-queue event loop (Simulation + Server + JobSource) bit for
/// bit on the same seed; those classes remain the reference it is tested
/// against.  With recording on, the round adds the event loop's counts
/// (events per kind, jobs, per-server arrivals, completions and waiting
/// times) to the registry in one batch per family.
///
/// The round report carries both the payment computed from the *estimated*
/// execution values (what a real deployment can do) and from the *exact*
/// ones (the paper's oracle assumption), so benches can quantify the cost
/// of verification noise.

#include <cstdint>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/sim/metrics.h"
#include "lbmv/sim/replication.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/stats.h"

namespace lbmv::sim {

/// Tunables for a protocol round.
struct ProtocolOptions {
  SimTime horizon = 5000.0;       ///< simulated seconds of job execution
  double warmup_fraction = 0.1;   ///< transient discarded from estimates
  ServiceModel service_model = ServiceModel::kExponential;
  std::uint64_t seed = 42;        ///< base RNG seed (split per component)
  /// When positive, verification uses the outlier-robust trimmed estimator
  /// with this trim fraction (see rate_estimator.h).
  double trim_fraction = 0.0;
};

/// Everything observed and computed in one round.
struct RoundReport {
  model::Allocation allocation;          ///< x(b) assigned in step 2
  std::vector<double> estimated_execution;  ///< t^ per computer (step 4)
  std::vector<bool> estimate_available;  ///< false -> fell back to the bid
  core::MechanismOutcome outcome;        ///< payments at the estimates
  core::MechanismOutcome oracle_outcome; ///< payments at the exact t~
  SystemMetrics metrics;                 ///< simulation measurements
  std::size_t messages = 0;              ///< protocol messages (3n)
};

/// Monte-Carlo summary over independent replications of one round.
/// Per-replication reports are kept (indexed by replication) alongside
/// merged statistics accumulated in replication order, so the summary is
/// bit-identical regardless of how many threads ran the fan-out.
struct ReplicatedRoundReport {
  std::vector<RoundReport> rounds;          ///< one per replication
  util::RunningStats measured_latency;      ///< measured L across reps
  util::RunningStats total_jobs;            ///< completed jobs across reps
  /// Per-agent estimate t^ across replications (verification noise).
  std::vector<util::RunningStats> estimated_execution;
  /// Per-agent verified payment across replications.
  std::vector<util::RunningStats> payments;
};

/// Orchestrates mechanism + simulator + estimator.
class VerifiedProtocol {
 public:
  /// The mechanism must outlive the protocol.
  VerifiedProtocol(const core::Mechanism& mechanism, ProtocolOptions options);

  /// Run one round.  \p intents carries each agent's chosen bid and the
  /// execution value it secretly runs at; the mechanism sees the bids
  /// up front and the execution values only through estimation.
  [[nodiscard]] RoundReport run_round(const model::SystemConfig& config,
                                      const model::BidProfile& intents) const;

  /// run_round with the RNG seed overridden (the rest of the options are
  /// unchanged).  This is the entry point replications use: each gets a
  /// distinct seed derived from the replication root.
  [[nodiscard]] RoundReport run_round(const model::SystemConfig& config,
                                      const model::BidProfile& intents,
                                      std::uint64_t seed) const;

  /// Fan \p replication.replications independent rounds (distinct RNG
  /// streams split from replication.root_seed) across the thread pool and
  /// merge the metrics at the barrier.
  [[nodiscard]] ReplicatedRoundReport run_replicated(
      const model::SystemConfig& config, const model::BidProfile& intents,
      const ReplicationOptions& replication = {}) const;

  [[nodiscard]] const ProtocolOptions& options() const { return options_; }

 private:
  const core::Mechanism* mechanism_;
  ProtocolOptions options_;
};

}  // namespace lbmv::sim
