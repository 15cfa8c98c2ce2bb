#include "lbmv/core/delta_engine.h"

#include <algorithm>
#include <cmath>

#include "lbmv/util/error.h"

namespace lbmv::core {

DeltaRoundEngine::DeltaRoundEngine(
    const Mechanism& mechanism,
    std::shared_ptr<const model::LatencyFamily> family, double arrival_rate,
    const model::BidProfile& initial)
    : mechanism_(&mechanism),
      family_(std::move(family)),
      arrival_rate_(arrival_rate),
      committed_(initial) {
  LBMV_REQUIRE(family_ != nullptr, "delta engine requires a latency family");
  LBMV_REQUIRE(initial.size() >= 2, "mechanisms require at least two agents");
  LBMV_REQUIRE(std::isfinite(arrival_rate_) && arrival_rate_ > 0.0,
               "arrival rate must be positive and finite");
  initial.validate(initial.size());
}

void DeltaRoundEngine::sync(std::span<const double> bids,
                            std::span<const double> executions) {
  const std::size_t n = committed_.size();
  LBMV_REQUIRE(bids.size() == n, "sync requires an unchanged agent count");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");
  if (std::equal(bids.begin(), bids.end(), committed_.bids.begin()) &&
      std::equal(executions.begin(), executions.end(),
                 committed_.executions.begin())) {
    return;
  }
  std::copy(bids.begin(), bids.end(), committed_.bids.begin());
  std::copy(executions.begin(), executions.end(),
            committed_.executions.begin());
  outcome_valid_ = false;
}

const MechanismOutcome& DeltaRoundEngine::outcome() {
  if (!outcome_valid_) {
    mechanism_->run_into(*family_, arrival_rate_, committed_.bids,
                         committed_.executions, outcome_, ws_);
    outcome_valid_ = true;
  }
  return outcome_;
}

}  // namespace lbmv::core
