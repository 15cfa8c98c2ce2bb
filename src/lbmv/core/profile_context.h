#pragma once

/// \file profile_context.h
/// Closed-form ProfileUtilityContext for the paper's setting: linear
/// latencies allocated by the PR algorithm.
///
/// With l_j(x) = b_j * x the PR allocation and the total latency depend on
/// the profile only through two running sums,
///
///   S = sum_j 1/b_j,            W = sum_j t~_j / b_j^2,
///
/// giving x_j = R/(b_j S), reported latency L(x, b) = R^2/S and verified
/// latency L(x, t~) = (R/S)^2 W.  A unilateral deviation of agent i to
/// (b, e) is the O(1) update
///
///   S' = S - 1/b_i + 1/b,       W' = W - t~_i/b_i^2 + e/b^2,
///
/// from which every payment rule built on leave-one-out optima follows in
/// O(1) as well, because L_{-i} = R^2/(S - 1/b_i) (DESIGN.md §10).
///
/// Mechanism::make_profile_context builds it for all five payment rules
/// (comp-bonus at either compensation basis, VCG, no-payment, and the
/// Archer–Tardos baseline via its closed-form payment tail) whenever
/// classify_round picks the linear-PR engine.  Its deviation utility is one
/// template over the lane type (profile_context.cpp): utility() runs it on
/// one candidate, and the grid sweeps run it on four candidate bids per
/// instruction, so the two agree bit for bit by construction.

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace lbmv::core {

/// The closed-form context (file comment above).  Maintains the committed
/// profile plus the two running sums S and W; every query is a constant
/// number of flops and every commit is an O(1) delta.  Committed deltas are
/// re-summed from scratch every max(64, n) commits so floating point drift
/// stays far below the 1e-9 differential-test tolerance while the amortised
/// commit cost stays O(1).
///
/// A deviation whose utility is not finite — a bid so small that
/// (R/S')^2 W' underflows against an overflowing W' — raises a typed
/// PreconditionError naming the agent, on utility() and on the grid sweeps
/// alike.
class LinearPrProfileContext final : public ProfileUtilityContext {
 public:
  LinearPrProfileContext(PaymentRule rule, double arrival_rate,
                         model::BidProfile base);

  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const override;
  void grid_utilities_into(std::size_t agent, std::span<const double> bids,
                           double execution,
                           std::span<double> out) const override;
  [[nodiscard]] GridBest grid_best(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution) const override;
  void commit(std::size_t agent, double bid, double execution) override;
  [[nodiscard]] double actual_latency() const override;
  [[nodiscard]] const model::BidProfile& profile() const override {
    return profile_;
  }

 private:
  void sweep(std::size_t agent, std::span<const double> bids,
             double execution, double* out, GridBest* best) const;
  void rebuild();

  PaymentRule rule_;
  double arrival_rate_;
  model::BidProfile profile_;
  double s_ = 0.0;
  double w_ = 0.0;
  std::size_t rebuild_period_ = 64;
  std::size_t commits_since_rebuild_ = 0;
};

}  // namespace lbmv::core
