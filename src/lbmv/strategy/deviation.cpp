#include "lbmv/strategy/deviation.h"

#include <cstdint>
#include <utility>

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::strategy {

DeviationEvaluator::DeviationEvaluator(const core::Mechanism& mechanism,
                                       const model::SystemConfig& config,
                                       model::BidProfile profile, Mode mode)
    : mechanism_(&mechanism),
      family_(config.family_ptr()),
      arrival_rate_(config.arrival_rate()),
      profile_(std::move(profile)) {
  LBMV_REQUIRE(profile_.size() == config.size(),
               "profile size must match config size");
  LBMV_REQUIRE(profile_.size() >= 2, "mechanisms require at least two agents");
  profile_.validate(profile_.size());
  if (mode == Mode::kAuto) {
    context_ =
        mechanism.make_profile_context(*family_, arrival_rate_, profile_);
  }
  if (context_ == nullptr) scratch_ = profile_;
}

DeviationEvaluator::DeviationEvaluator(const core::Mechanism& mechanism,
                                       const model::SystemConfig& config,
                                       Mode mode)
    : DeviationEvaluator(mechanism, config,
                         model::BidProfile::truthful(config), mode) {}

double DeviationEvaluator::utility(std::size_t agent, double bid,
                                   double execution) const {
  LBMV_REQUIRE(agent < profile().size(), "agent index out of range");
  core::require_valid_inputs(bid, execution);
  if (obs::enabled()) {
    obs::StrategyProbes& probes = obs::StrategyProbes::get();
    probes.deviation_evals.inc();
    if (context_ != nullptr) probes.mechanism_runs_avoided.inc();
  }
  if (context_ != nullptr) return context_->utility(agent, bid, execution);

  // Fallback: one full mechanism run against the scratch buffer, with the
  // deviated entries restored afterwards — no per-call profile copy, and the
  // round itself draws every plane from the evaluator's workspace.
  scratch_.bids[agent] = bid;
  scratch_.executions[agent] = execution;
  mechanism_->run_into(*family_, arrival_rate_, scratch_, ws_.scratch_outcome,
                       ws_);
  const double utility = ws_.scratch_outcome.agents[agent].utility;
  scratch_.bids[agent] = profile_.bids[agent];
  scratch_.executions[agent] = profile_.executions[agent];
  return utility;
}

void DeviationEvaluator::commit(std::size_t agent, double bid,
                                double execution) {
  LBMV_REQUIRE(agent < profile().size(), "agent index out of range");
  core::require_valid_inputs(bid, execution);
  if (obs::enabled()) obs::StrategyProbes::get().commits.inc();
  if (context_ != nullptr) {
    context_->commit(agent, bid, execution);
    return;
  }
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  scratch_.bids[agent] = bid;
  scratch_.executions[agent] = execution;
}

void DeviationEvaluator::commit_batch(
    std::span<const core::BidDelta> deltas) {
  for (const core::BidDelta& d : deltas) {
    LBMV_REQUIRE(d.agent < profile().size(), "agent index out of range");
    core::require_valid_inputs(d.bid, d.execution);
  }
  if (deltas.empty()) return;
  if (obs::enabled()) {
    obs::StrategyProbes::get().commits.inc(
        static_cast<std::uint64_t>(deltas.size()));
  }
  if (context_ != nullptr) {
    context_->commit_batch(deltas);
    return;
  }
  for (const core::BidDelta& d : deltas) {
    profile_.bids[d.agent] = d.bid;
    profile_.executions[d.agent] = d.execution;
    scratch_.bids[d.agent] = d.bid;
    scratch_.executions[d.agent] = d.execution;
  }
}

void DeviationEvaluator::outcome_into(core::MechanismOutcome& out) const {
  if (context_ != nullptr) {
    context_->outcome_into(out);
    return;
  }
  mechanism_->run_into(*family_, arrival_rate_, profile_, out, ws_);
}

double DeviationEvaluator::actual_latency() const {
  if (context_ != nullptr) return context_->actual_latency();
  mechanism_->run_into(*family_, arrival_rate_, profile_, ws_.scratch_outcome,
                       ws_);
  return ws_.scratch_outcome.actual_latency;
}

const model::BidProfile& DeviationEvaluator::profile() const {
  return context_ != nullptr ? context_->profile() : profile_;
}

}  // namespace lbmv::strategy
