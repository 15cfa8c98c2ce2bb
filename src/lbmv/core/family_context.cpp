#include "lbmv/core/family_context.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/rule_kernel.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

// ---------------------------------------------------------------------------
// M/M/1

Mm1PrProfileContext::Mm1PrProfileContext(PaymentRule rule, double arrival_rate,
                                         model::BidProfile base)
    : rule_(rule), arrival_rate_(arrival_rate), profile_(std::move(base)) {
  LBMV_REQUIRE(rule != PaymentRule::kArcherTardos,
               "the Archer-Tardos payment tail is linear-only");
  const std::size_t n = profile_.size();
  LBMV_REQUIRE(n >= 2, "mechanism rounds need at least two agents");
  profile_.validate(n);
  LBMV_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
               "arrival rate must be positive and finite");
  rebuild();
}

void Mm1PrProfileContext::rebuild() {
  const std::size_t n = profile_.size();
  mus_.resize(n);
  a_.resize(n);
  mue_.resize(n);
  inconsistent_.resize(n);
  sum_mu_ = 0.0;
  sum_a_ = 0.0;
  inconsistent_count_ = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double mu = 1.0 / profile_.bids[j];
    const double aj = std::sqrt(mu);
    mus_[j] = mu;
    a_[j] = aj;
    mue_[j] = 1.0 / profile_.executions[j];
    sum_mu_ += mu;
    sum_a_ += aj;
    const bool mismatch = profile_.executions[j] != profile_.bids[j];
    inconsistent_[j] = mismatch ? 1 : 0;
    if (mismatch) ++inconsistent_count_;
  }
  min_a_ = std::numeric_limits<double>::infinity();
  second_a_ = std::numeric_limits<double>::infinity();
  argmin_a_ = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double aj = a_[j];
    if (aj < min_a_) {
      second_a_ = min_a_;
      min_a_ = aj;
      argmin_a_ = j;
    } else if (aj < second_a_) {
      second_a_ = aj;
    }
  }

  // Committed solve — raises the allocator's typed PreconditionErrors on
  // infeasible / near-saturated profiles, exactly when Mechanism::run would.
  rates_.resize(n);
  (void)alloc::mm1_solve_into(mus_, arrival_rate_, rates_);
  actual_ = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates_[j];
    if (xj == 0.0) continue;
    const double de = mue_[j] - xj;
    LBMV_REQUIRE(de > 0.0, "M/M/1 latency requires 0 <= x < mu");
    actual_ += xj / de;
  }

  // Leave-one-out plane: deviation-independent, so precomputed eagerly —
  // utility() stays mutation-free and safe to call concurrently.
  if (uses_leave_one_out(rule_)) {
    const alloc::MM1Allocator allocator;
    const model::MM1Family family;
    allocator.leave_one_out_into(family, profile_.bids, arrival_rate_, loo_);
  }
}

struct Mm1PrProfileContext::Deviation {
  double r;           ///< arrival rate
  double rest_mu;     ///< sum_{j != agent} mu_j
  double rest_a;      ///< sum_{j != agent} sqrt(mu_j)
  double rest_min_a;  ///< min_{j != agent} sqrt(mu_j)
  double loo;         ///< L_{-agent} (0 when the rule needs none)
  double mu_e;        ///< 1 / execution
  double nm1;         ///< n - 1
  double nn;          ///< n
  /// Every opponent executes exactly as bid — required for the O(1)
  /// actual-latency form sum_{j != i} (a_j/c' - 1).
  bool rest_consistent;
};

Mm1PrProfileContext::Deviation Mm1PrProfileContext::deviation(
    std::size_t agent, double execution) const {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  Deviation st;
  st.r = arrival_rate_;
  st.rest_mu = sum_mu_ - mus_[agent];
  st.rest_a = sum_a_ - a_[agent];
  st.rest_min_a = agent == argmin_a_ ? second_a_ : min_a_;
  st.loo = uses_leave_one_out(rule_) ? loo_[agent] : 0.0;
  st.mu_e = 1.0 / execution;
  st.nm1 = static_cast<double>(profile_.size() - 1);
  st.nn = static_cast<double>(profile_.size());
  st.rest_consistent =
      inconsistent_count_ == 0 ||
      (inconsistent_count_ == 1 && inconsistent_[agent] != 0);
  return st;
}

namespace {

namespace v = lbmv::util::simd;

/// The all-active fast path of a deviation to bid \p b (one candidate, or
/// four per lane), with the lanes it covers: every computer active before
/// and after the deviation, away from saturation, inside the execution
/// domain.  With mu = 1/b, a = sqrt(mu) and c = (sum mu - R) / sum a, every
/// active queue length is a_j/c - 1, so
///
///   x = mu - c a,  cost_e = x / (1/e - x),  comp = a/c - 1,
///   actual = (rest_a/c - (n-1)) + cost_e,  reported = sum_a/c - n,
///
/// then rule_kernel.h's deviation_utility.
template <PaymentRule kRule, typename T>
LaneUtility<T> mm1_utility(const Mm1PrProfileContext::Deviation& st, T b) {
  const T one = v::splat<T>(1.0);
  const T zero = v::splat<T>(0.0);
  const T mu = v::div(one, b);
  const T a = v::sqrt(mu);
  const T sum_mu = v::add(v::splat<T>(st.rest_mu), mu);
  const T sum_a = v::add(v::splat<T>(st.rest_a), a);
  const T slack = v::sub(sum_mu, v::splat<T>(st.r));
  auto ok = v::mask_and(
      v::mask_greater(v::splat<T>(std::numeric_limits<double>::infinity()),
                      sum_mu),
      v::mask_greater(slack, v::mul(v::splat<T>(alloc::kMm1MinRelativeSlack),
                                    sum_mu)));
  const T c = v::div(slack, sum_a);
  ok = v::mask_and(ok, v::mask_greater(a, c));
  ok = v::mask_and(ok, v::mask_greater(v::splat<T>(st.rest_min_a), c));
  const T x = v::sub(mu, v::mul(c, a));
  ok = v::mask_and(ok, v::mask_greater(x, zero));
  const T de = v::sub(v::splat<T>(st.mu_e), x);
  ok = v::mask_and(ok, v::mask_greater(de, zero));
  const T cost_e = v::div(x, de);
  const T comp = v::sub(v::div(a, c), one);
  T actual = zero;
  T reported = zero;
  if constexpr (reads_actual_total(kRule)) {
    actual = v::add(
        v::sub(v::div(v::splat<T>(st.rest_a), c), v::splat<T>(st.nm1)),
        cost_e);
  }
  if constexpr (reads_reported_total(kRule)) {
    reported = v::sub(v::div(sum_a, c), v::splat<T>(st.nn));
  }
  return {deviation_utility<kRule>(comp, v::splat<T>(st.loo), cost_e, actual,
                                   reported),
          ok};
}

}  // namespace

double Mm1PrProfileContext::utility(std::size_t agent, double bid,
                                    double execution) const {
  require_valid_inputs(bid, execution);
  const Deviation st = deviation(agent, execution);
  if (st.rest_consistent) {
    const LaneUtility<double> u = dispatch_rule(rule_, [&](auto kind) {
      return mm1_utility<decltype(kind)::value>(st, bid);
    });
    if (u.ok) return u.utility;
  }
  return slow_utility(agent, bid, execution);
}

double Mm1PrProfileContext::slow_utility(std::size_t agent, double bid,
                                         double execution) const {
  const std::size_t n = profile_.size();
  // Local planes: utility() must stay safe under concurrent queries, so the
  // off-fast-path re-solve never touches shared scratch.
  std::vector<double> mus(mus_);
  mus[agent] = 1.0 / bid;
  std::vector<double> rates(n);
  const alloc::Mm1Solve solve = alloc::mm1_solve_into(mus, arrival_rate_, rates);
  double actual = 0.0;
  double cost_e = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates[j];
    if (xj == 0.0) continue;
    const double mu_e = j == agent ? 1.0 / execution : mue_[j];
    const double de = mu_e - xj;
    LBMV_REQUIRE(de > 0.0, "M/M/1 latency requires 0 <= x < mu");
    const double cost = xj / de;
    if (j == agent) cost_e = cost;
    actual += cost;
  }
  const double x = rates[agent];
  const double comp = x / (mus[agent] - x);
  const double loo = uses_leave_one_out(rule_) ? loo_[agent] : 0.0;
  return dispatch_rule(rule_, [&](auto kind) {
    return deviation_utility<decltype(kind)::value>(comp, loo, cost_e, actual,
                                                    solve.optimal_latency);
  });
}

void Mm1PrProfileContext::sweep(std::size_t agent,
                                std::span<const double> bids,
                                double execution, double* out,
                                GridBest* best) const {
  require_grid_query(profile_.size(), agent, execution);
  const Deviation st = deviation(agent, execution);
  dispatch_rule(rule_, [&](auto kind) {
    grid_sweep(
        bids, out, best,
        [&](v::DVec b) {
          if (!st.rest_consistent) return LaneUtility<v::DVec>{v::zero(), v::zero()};
          return mm1_utility<decltype(kind)::value>(st, b);
        },
        [&](double b) { return utility(agent, b, execution); });
  });
}

void Mm1PrProfileContext::grid_utilities_into(std::size_t agent,
                                              std::span<const double> bids,
                                              double execution,
                                              std::span<double> out) const {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  sweep(agent, bids, execution, out.data(), nullptr);
}

GridBest Mm1PrProfileContext::grid_best(std::size_t agent,
                                        std::span<const double> bids,
                                        double execution) const {
  GridBest best;
  sweep(agent, bids, execution, nullptr, &best);
  return best;
}

void Mm1PrProfileContext::commit(std::size_t agent, double bid,
                                 double execution) {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  require_valid_inputs(bid, execution);
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  // O(n) rebuild: the min/arg-min pair and the leave-one-out plane cannot
  // be delta-updated without a re-scan anyway, and commits are rare next
  // to queries in every strategy loop.
  rebuild();
}

void Mm1PrProfileContext::commit_batch(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  for (const BidDelta& d : deltas) {
    LBMV_ASSERT(d.agent < profile_.size(), "agent index out of range");
    require_valid_inputs(d.bid, d.execution);
    profile_.bids[d.agent] = d.bid;
    profile_.executions[d.agent] = d.execution;
  }
  rebuild();
}

// ---------------------------------------------------------------------------
// Workload-dependent rates

WorkloadProfileContext::WorkloadProfileContext(PaymentRule rule, double gamma,
                                               double arrival_rate,
                                               model::BidProfile base)
    : rule_(rule),
      gamma_(gamma),
      arrival_rate_(arrival_rate),
      profile_(std::move(base)) {
  LBMV_REQUIRE(rule != PaymentRule::kArcherTardos,
               "the Archer-Tardos payment tail is linear-only");
  const std::size_t n = profile_.size();
  LBMV_REQUIRE(n >= 2, "mechanism rounds need at least two agents");
  profile_.validate(n);
  LBMV_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
               "arrival rate must be positive and finite");
  LBMV_REQUIRE(gamma > 0.0,
               "workload family congestion coefficient must be positive");
  rebuild();
}

void WorkloadProfileContext::rebuild() {
  const std::size_t n = profile_.size();
  rates_.resize(n);
  const alloc::WorkloadSolve solve =
      alloc::workload_solve_into(profile_.bids, gamma_, arrival_rate_, rates_);
  actual_ = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double x = rates_[j];
    actual_ += x * ((profile_.executions[j] * x) * (1.0 + gamma_ * x));
  }
  if (uses_leave_one_out(rule_)) {
    loo_.resize(n);
    std::vector<double> scratch;
    alloc::workload_leave_one_out_into(profile_.bids, gamma_, arrival_rate_,
                                       solve.lambda, loo_, scratch);
  }
}

double WorkloadProfileContext::utility(std::size_t agent, double bid,
                                       double execution) const {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  require_valid_inputs(bid, execution);
  const std::size_t n = profile_.size();
  // The conservation constraint couples every rate through the multiplier,
  // so a deviation re-runs the Newton solve against local planes (queries
  // may be concurrent).  The cold start is the solver's own 2R/S estimate:
  // a faster deviated bid would invalidate a warm start at the committed
  // multiplier (g(lambda) > 0 breaks the monotone-from-below contract).
  std::vector<double> thetas(profile_.bids);
  thetas[agent] = bid;
  std::vector<double> x(n);
  const alloc::WorkloadSolve solve =
      alloc::workload_solve_into(thetas, gamma_, arrival_rate_, x);
  double actual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double e = j == agent ? execution : profile_.executions[j];
    actual += x[j] * ((e * x[j]) * (1.0 + gamma_ * x[j]));
  }
  const double xa = x[agent];
  const double cost_e = xa * ((execution * xa) * (1.0 + gamma_ * xa));
  const double comp = xa * ((bid * xa) * (1.0 + gamma_ * xa));
  const double loo = uses_leave_one_out(rule_) ? loo_[agent] : 0.0;
  return dispatch_rule(rule_, [&](auto kind) {
    return deviation_utility<decltype(kind)::value>(comp, loo, cost_e, actual,
                                                    solve.optimal_latency);
  });
}

void WorkloadProfileContext::commit(std::size_t agent, double bid,
                                    double execution) {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  require_valid_inputs(bid, execution);
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  rebuild();
}

void WorkloadProfileContext::commit_batch(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  for (const BidDelta& d : deltas) {
    LBMV_ASSERT(d.agent < profile_.size(), "agent index out of range");
    require_valid_inputs(d.bid, d.execution);
    profile_.bids[d.agent] = d.bid;
    profile_.executions[d.agent] = d.execution;
  }
  rebuild();
}

}  // namespace lbmv::core
