#pragma once

/// \file delta_engine.h
/// Cached round for loops that re-run the mechanism on a slowly changing
/// profile (epochs, the protocol's verified/oracle payment pair).
///
/// The engine keeps a copy of the last bid/execution planes it was given
/// and the outcome Mechanism::run_into produced for them.  sync() replaces
/// the planes; outcome() re-runs the round only when they changed since the
/// last call, so its result is exactly run_into's (DESIGN.md §15).

#include <memory>
#include <span>

#include "lbmv/core/batch.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace lbmv::core {

/// The mechanism and family must outlive the engine.  Not thread-safe; one
/// engine per round loop, like a RoundWorkspace.
class DeltaRoundEngine {
 public:
  DeltaRoundEngine(const Mechanism& mechanism,
                   std::shared_ptr<const model::LatencyFamily> family,
                   double arrival_rate, const model::BidProfile& initial);

  /// Move the committed planes to (bids, executions), same agent count.
  /// Unchanged planes keep the cached outcome.
  void sync(std::span<const double> bids, std::span<const double> executions);

  /// Mechanism::run_into at the committed planes, cached until they change.
  [[nodiscard]] const MechanismOutcome& outcome();

 private:
  const Mechanism* mechanism_;
  std::shared_ptr<const model::LatencyFamily> family_;
  double arrival_rate_;
  model::BidProfile committed_;
  bool outcome_valid_ = false;
  MechanismOutcome outcome_;
  RoundWorkspace ws_;
};

}  // namespace lbmv::core
