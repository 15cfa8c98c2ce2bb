#pragma once

/// \file traced.h
/// The protocol round and the epoch loop rebuilt from the public calls
/// sim::VerifiedProtocol::run_round and sim::run_epochs make, in the same
/// order, with a wall-clock timer around each call.  The composed outputs
/// must equal the program's bit for bit (same_round / same_epochs); the
/// timers give the per-layer numbers.  The telemetry that run_round does
/// on its own (its span, round counter and two monitor checks) is not
/// repeated: it changes no output and costs microseconds.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/sim/protocol.h"

namespace e2e {

/// Timed layers.  kRng runs inside kDrift; every other layer is disjoint
/// from the rest.
enum Layer : std::size_t {
  kAllocate,     ///< Allocator::allocate
  kSimSetup,     ///< Rng, Simulation, Servers, JobSource and start()
  kSimRun,       ///< Simulation::run
  kSimMetrics,   ///< collect_metrics
  kSimEstimate,  ///< estimate_execution_value per computer
  kPay,          ///< DeltaRoundEngine: verified and oracle outcomes
  kConfig,       ///< the epoch's SystemConfig
  kRound,        ///< DeltaRoundEngine sync + outcome
  kOptimal,      ///< Allocator::optimal_latency
  kRecord,       ///< EpochRecord, utility sums and the lag history
  kDrift,        ///< the reflected log-normal step
  kRng,          ///< util::Rng::normal draws (inside kDrift)
  kLayerCount,
};

/// What the composed ops measured, summed over the ops.
struct LayerTotals {
  std::array<double, kLayerCount> seconds{};  ///< wall time per layer
  std::uint64_t jobs = 0;     ///< JobSource::jobs_emitted
  std::uint64_t events = 0;   ///< Simulation::processed
  std::uint64_t fallbacks = 0;  ///< computers verified at their bid
};

/// run_round(config, intents, seed) from its public calls.
[[nodiscard]] lbmv::sim::RoundReport composed_round(
    const lbmv::core::Mechanism& mechanism,
    const lbmv::sim::ProtocolOptions& options,
    const lbmv::model::SystemConfig& config,
    const lbmv::model::BidProfile& intents, std::uint64_t seed,
    LayerTotals& totals);

/// run_epochs(mechanism, initial_config, options) from its public calls.
/// The n drift draws of an epoch are taken in one batch before the walk
/// uses them, which gives the same draws in the same order.
[[nodiscard]] lbmv::sim::EpochReport composed_epochs(
    const lbmv::core::Mechanism& mechanism,
    const lbmv::model::SystemConfig& initial_config,
    const lbmv::sim::EpochOptions& options, LayerTotals& totals);

/// Empty when the two reports are bit-identical, else the first field
/// that differs.
[[nodiscard]] std::string round_difference(const lbmv::sim::RoundReport& a,
                                           const lbmv::sim::RoundReport& b);
[[nodiscard]] std::string epochs_difference(const lbmv::sim::EpochReport& a,
                                            const lbmv::sim::EpochReport& b);

/// Empty when the outcomes agree to \p rel_tol per field (relative to
/// max(1, |value|)), else the first field that differs.  \p rel_tol = 0
/// asks for bit identity.
[[nodiscard]] std::string outcome_difference(
    const lbmv::core::MechanismOutcome& a,
    const lbmv::core::MechanismOutcome& b, double rel_tol);

}  // namespace e2e
