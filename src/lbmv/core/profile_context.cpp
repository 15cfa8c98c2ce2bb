#include "lbmv/core/profile_context.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/rule_kernel.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/util/error.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;

/// The lane-constant part of one (agent, execution) deviation query, O(1)
/// from the cached sums.
struct LinearDeviation {
  double r;          ///< arrival rate
  double rr;         ///< r * r
  double s_rest;     ///< S - 1/b_i
  double l_rest;     ///< r * r / s_rest = L_{-i}
  double w_rest;     ///< W - t~_i / b_i^2
  double execution;  ///< the deviation's execution value
};

/// The deviation state of the committed agent (old_bid, old_execution)
/// moving to \p execution, against the cached sums \p s and \p w.
LinearDeviation deviation_state(double arrival_rate, double s, double w,
                                double old_bid, double old_execution,
                                double execution) {
  LinearDeviation st;
  st.r = arrival_rate;
  st.rr = st.r * st.r;
  const double old_inv = 1.0 / old_bid;
  st.s_rest = s - old_inv;
  st.l_rest = st.rr / st.s_rest;
  st.w_rest = w - old_execution * old_inv * old_inv;
  st.execution = execution;
  return st;
}

/// Utility of deviating to bid \p b (one candidate, or four per lane),
/// with the lanes whose utility came out finite.  With
/// S' = s_rest + 1/b and x = R (1/b) / S':
///
///   cost_e = e x^2, comp = b x^2, actual = (R/S')^2 (w_rest + e/b^2),
///   reported = R^2/S', transfer = L_{-i} or the Archer–Tardos tail
///   R^2 / (s_rest (1 + b s_rest)),
///
/// then rule_kernel.h's deviation_utility.
template <PaymentRule kRule, typename T>
LaneUtility<T> linear_utility(const LinearDeviation& st, T b) {
  const T one = v::splat<T>(1.0);
  const T inv = v::div(one, b);
  const T s = v::add(v::splat<T>(st.s_rest), inv);
  const T x = v::div(v::mul(v::splat<T>(st.r), inv), s);
  const T x2 = v::mul(x, x);
  const T e = v::splat<T>(st.execution);
  const T cost_e = v::mul(e, x2);
  const T comp = v::mul(b, x2);
  T transfer = v::splat<T>(st.l_rest);
  T actual = v::splat<T>(0.0);
  T reported = v::splat<T>(0.0);
  if constexpr (reads_actual_total(kRule)) {
    const T w = v::add(v::splat<T>(st.w_rest), v::mul(v::mul(e, inv), inv));
    const T rs = v::div(v::splat<T>(st.r), s);
    actual = v::mul(v::mul(rs, rs), w);
  }
  if constexpr (reads_reported_total(kRule)) {
    reported = v::div(v::splat<T>(st.rr), s);
  }
  if constexpr (kRule == PaymentRule::kArcherTardos) {
    const T s_rest = v::splat<T>(st.s_rest);
    transfer = v::div(v::splat<T>(st.rr),
                      v::mul(s_rest, v::add(one, v::mul(b, s_rest))));
  }
  const T u = deviation_utility<kRule>(comp, transfer, cost_e, actual,
                                       reported);
  return {u, v::mask_finite(u)};
}

}  // namespace

LinearPrProfileContext::LinearPrProfileContext(PaymentRule rule,
                                               double arrival_rate,
                                               model::BidProfile base)
    : rule_(rule), arrival_rate_(arrival_rate), profile_(std::move(base)) {
  LBMV_REQUIRE(profile_.size() >= 2, "mechanisms require at least two agents");
  profile_.validate(profile_.size());
  LBMV_REQUIRE(arrival_rate_ > 0.0 && std::isfinite(arrival_rate_),
               "arrival rate must be positive and finite");
  rebuild_period_ = std::max<std::size_t>(64, profile_.size());
  rebuild();
}

double LinearPrProfileContext::utility(std::size_t agent, double bid,
                                       double execution) const {
  require_agent_index(agent, profile_.size());
  require_valid_inputs(bid, execution);
  const LinearDeviation st =
      deviation_state(arrival_rate_, s_, w_, profile_.bids[agent],
                      profile_.executions[agent], execution);
  const LaneUtility<double> u = dispatch_rule(rule_, [&](auto kind) {
    return linear_utility<decltype(kind)::value>(st, bid);
  });
  LBMV_REQUIRE(u.ok, "deviation utility is not finite: the bid is beyond "
                     "what the closed form resolves (agent " +
                         std::to_string(agent) + " of " +
                         std::to_string(profile_.size()) + ")");
  return u.utility;
}

void LinearPrProfileContext::sweep(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution, double* out,
                                   GridBest* best) const {
  require_grid_query(profile_.size(), agent, execution);
  const LinearDeviation st =
      deviation_state(arrival_rate_, s_, w_, profile_.bids[agent],
                      profile_.executions[agent], execution);
  dispatch_rule(rule_, [&](auto kind) {
    grid_sweep(
        bids, out, best,
        [&](v::DVec b) { return linear_utility<decltype(kind)::value>(st, b); },
        [&](double b) { return utility(agent, b, execution); });
  });
}

void LinearPrProfileContext::grid_utilities_into(
    std::size_t agent, std::span<const double> bids, double execution,
    std::span<double> out) const {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  sweep(agent, bids, execution, out.data(), nullptr);
}

GridBest LinearPrProfileContext::grid_best(std::size_t agent,
                                           std::span<const double> bids,
                                           double execution) const {
  GridBest best;
  sweep(agent, bids, execution, nullptr, &best);
  return best;
}

void LinearPrProfileContext::commit(std::size_t agent, double bid,
                                    double execution) {
  require_agent_index(agent, profile_.size());
  require_valid_inputs(bid, execution);
  const double old_bid = profile_.bids[agent];
  const double old_exec = profile_.executions[agent];
  s_ += 1.0 / bid - 1.0 / old_bid;
  w_ += execution / (bid * bid) - old_exec / (old_bid * old_bid);
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  if (++commits_since_rebuild_ >= rebuild_period_) rebuild();
}

double LinearPrProfileContext::actual_latency() const {
  const double rs = arrival_rate_ / s_;
  return rs * rs * w_;
}

void LinearPrProfileContext::rebuild() {
  const double incremental_s = s_;
  const double incremental_w = w_;
  const bool periodic = commits_since_rebuild_ > 0;
  s_ = 0.0;
  w_ = 0.0;
  for (std::size_t j = 0; j < profile_.size(); ++j) {
    const double inv = 1.0 / profile_.bids[j];
    s_ += inv;
    w_ += profile_.executions[j] * inv * inv;
  }
  if (periodic && obs::enabled()) {
    // How far the O(1) commit deltas drifted from the exact sums over one
    // rebuild period — the PR-4 drift bound, observed live instead of
    // assumed (the differential suite holds it below 1e-9; the monitor
    // flags any round where accumulated cancellation breaks that).
    const double drift_s = std::fabs(incremental_s - s_) / std::fabs(s_);
    const double drift_w =
        std::fabs(incremental_w - w_) / std::max(std::fabs(w_), 1e-300);
    obs::Monitors::get().context_drift.check(
        std::max(drift_s, drift_w),
        {{"n", static_cast<double>(profile_.size())},
         {"drift_s", drift_s},
         {"drift_w", drift_w}});
  }
  commits_since_rebuild_ = 0;
}

}  // namespace lbmv::core
