#include "lbmv/core/family_round.h"

#include <cmath>
#include <cstddef>
#include <limits>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/rule_kernel.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;
using v::DVec;

/// Publish pass for the all-active M/M/1 round.  Everything per agent is
/// in-register off the mu / a / inv-exec / rate planes: the reported and
/// verified cost terms x * (1/(mu - x)) in the generic path's operand order
/// (cost = x * latency, latency = 1/(mu - x)), and the leave-one-out
/// optimum through the same expressions MM1Allocator's O(1) branch uses,
///
///   rest_a = sum_a - a_i,  c_i = ((sum_mu - mu_i) - R) / rest_a,
///   L_{-i} = rest_a / c_i - (n - 1).
///
/// The caller has already proven every rest set all-active and every c_i
/// safely positive, so no masks are needed here.
template <PaymentRule kRule>
void publish_mm1(std::size_t n, const double* mu, const double* a,
                 const double* mue, const double* x, double sum_mu,
                 double sum_a, double arrival_rate, double actual_total,
                 double reported_total, AgentOutcome* agents) {
  const double nm1 = static_cast<double>(n - 1);
  (void)publish_block<kRule>(
      n, actual_total, reported_total, agents, [&](auto lane, std::size_t i) {
        using T = decltype(lane);
        const T one = v::splat<T>(1.0);
        RuleTerms<T> t;
        t.x = v::load_as<T>(x + i);
        t.cost_e =
            v::mul(t.x, v::div(one, v::sub(v::load_as<T>(mue + i), t.x)));
        t.comp = kRule == PaymentRule::kCompBonusExecution
                     ? t.cost_e
                     : v::mul(t.x, v::div(one, v::sub(v::load_as<T>(mu + i),
                                                      t.x)));
        t.transfer = v::splat<T>(0.0);
        if constexpr (uses_leave_one_out(kRule)) {
          const T rest_a = v::sub(v::splat<T>(sum_a), v::load_as<T>(a + i));
          const T ci = v::div(v::sub(v::sub(v::splat<T>(sum_mu),
                                            v::load_as<T>(mu + i)),
                                     v::splat<T>(arrival_rate)),
                              rest_a);
          t.transfer = v::sub(v::div(rest_a, ci), v::splat<T>(nm1));
        }
        return t;
      });
}

/// Publish pass for the workload round: the reported and verified cost
/// terms x * ((theta x) (1 + gamma x)) in WorkloadLatency's own operand
/// order, the leave-one-out plane precomputed by the Taylor-model solver.
/// \p loo may be null for kNoPayment only.
template <PaymentRule kRule>
void publish_workload(std::size_t n, const double* bids, const double* execs,
                      const double* x, const double* loo, double gamma,
                      double actual_total, double reported_total,
                      AgentOutcome* agents) {
  (void)publish_block<kRule>(
      n, actual_total, reported_total, agents, [&](auto lane, std::size_t i) {
        using T = decltype(lane);
        RuleTerms<T> t;
        t.x = v::load_as<T>(x + i);
        const T grow =
            v::add(v::splat<T>(1.0), v::mul(v::splat<T>(gamma), t.x));
        const auto cost = [&](const double* types) {
          return v::mul(t.x,
                        v::mul(v::mul(v::load_as<T>(types + i), t.x), grow));
        };
        t.cost_e = cost(execs);
        t.comp = kRule == PaymentRule::kCompBonusExecution ? t.cost_e
                                                           : cost(bids);
        t.transfer = uses_leave_one_out(kRule) ? v::load_as<T>(loo + i)
                                               : v::splat<T>(0.0);
        return t;
      });
}

}  // namespace

bool run_mm1_vectorized(PaymentRule rule, double arrival_rate,
                        std::span<const double> bids,
                        std::span<const double> executions,
                        MechanismOutcome& out, RoundWorkspace& ws) {
  LBMV_ASSERT(
      rule != PaymentRule::kArcherTardos,
      "the fused M/M/1 engine serves leave-one-out rules and no-payment");
  const std::size_t n = bids.size();
  ws.inv_bids.resize(n);
  ws.sqrt_mu.resize(n);
  ws.inv_execs.resize(n);
  double* const mu = ws.inv_bids.data();
  double* const a = ws.sqrt_mu.data();
  double* const mue = ws.inv_execs.data();

  // ---- P1: mu / a / 1/e planes, sums, validity masks ---------------------
  // Fixed reduction tree (pr_simd.h's idiom): two vector accumulators over
  // 8-agent steps, leftover full vector into the first, hsum, scalar tail
  // in index order.
  const DVec vone = v::set1(1.0);
  const DVec vzero = v::zero();
  DVec vmu0 = v::zero();
  DVec vmu1 = v::zero();
  DVec va0 = v::zero();
  DVec va1 = v::zero();
  DVec bok = v::mask_all();
  DVec eok = v::mask_all();
  std::size_t i = 0;
  for (; i + 2 * v::kLanes <= n; i += 2 * v::kLanes) {
    const DVec b0 = v::load(&bids[i]);
    const DVec b1 = v::load(&bids[i + v::kLanes]);
    bok = v::mask_and(bok, v::mask_positive_finite(b0));
    bok = v::mask_and(bok, v::mask_positive_finite(b1));
    const DVec m0 = v::div(vone, b0);
    const DVec m1 = v::div(vone, b1);
    v::store(&mu[i], m0);
    v::store(&mu[i + v::kLanes], m1);
    const DVec s0 = v::sqrt(m0);
    const DVec s1 = v::sqrt(m1);
    v::store(&a[i], s0);
    v::store(&a[i + v::kLanes], s1);
    vmu0 = v::add(vmu0, m0);
    vmu1 = v::add(vmu1, m1);
    va0 = v::add(va0, s0);
    va1 = v::add(va1, s1);
    const DVec e0 = v::load(&executions[i]);
    const DVec e1 = v::load(&executions[i + v::kLanes]);
    eok = v::mask_and(eok, v::mask_positive_finite(e0));
    eok = v::mask_and(eok, v::mask_positive_finite(e1));
    v::store(&mue[i], v::div(vone, e0));
    v::store(&mue[i + v::kLanes], v::div(vone, e1));
  }
  for (; i + v::kLanes <= n; i += v::kLanes) {
    const DVec b0 = v::load(&bids[i]);
    bok = v::mask_and(bok, v::mask_positive_finite(b0));
    const DVec m0 = v::div(vone, b0);
    v::store(&mu[i], m0);
    const DVec s0 = v::sqrt(m0);
    v::store(&a[i], s0);
    vmu0 = v::add(vmu0, m0);
    va0 = v::add(va0, s0);
    const DVec e0 = v::load(&executions[i]);
    eok = v::mask_and(eok, v::mask_positive_finite(e0));
    v::store(&mue[i], v::div(vone, e0));
  }
  double sum_mu = v::hsum(v::add(vmu0, vmu1));
  double sum_a = v::hsum(v::add(va0, va1));
  bool inputs_ok = v::mask_all_true(bok) && v::mask_all_true(eok);
  for (; i < n; ++i) {
    inputs_ok = inputs_ok && std::isfinite(bids[i]) && bids[i] > 0.0 &&
                std::isfinite(executions[i]) && executions[i] > 0.0;
    mu[i] = 1.0 / bids[i];
    a[i] = std::sqrt(mu[i]);
    mue[i] = 1.0 / executions[i];
    sum_mu += mu[i];
    sum_a += a[i];
  }
  if (!inputs_ok) {
    // Re-run the scalar validation loop so the diagnostic names the first
    // offender in the order the generic path would.
    for (std::size_t j = 0; j < n; ++j) {
      require_valid_inputs(bids[j], executions[j]);
    }
  }

  // ---- detection: closed form valid, full + rest sets all-active ---------
  // Any failure returns false and the generic path owns the round: the
  // active-set solver handles dropped computers, and the allocator raises
  // the canonical typed PreconditionError for infeasible / saturated /
  // cancellation-prone configurations.
  if (!(sum_mu < std::numeric_limits<double>::infinity()) ||
      !(sum_a < std::numeric_limits<double>::infinity())) {
    return false;
  }
  if (!(arrival_rate < sum_mu)) return false;
  if (sum_mu - arrival_rate < alloc::kMm1MinRelativeSlack * sum_mu) {
    return false;
  }
  double min_a = std::numeric_limits<double>::infinity();
  double second_a = std::numeric_limits<double>::infinity();
  std::size_t argmin_a = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double aj = a[j];
    if (aj < min_a) {
      second_a = min_a;
      min_a = aj;
      argmin_a = j;
    } else if (aj < second_a) {
      second_a = aj;
    }
  }
  const double c = (sum_mu - arrival_rate) / sum_a;
  if (!(min_a > c)) return false;
  if (uses_leave_one_out(rule)) {
    for (std::size_t j = 0; j < n; ++j) {
      const double rest_mu = sum_mu - mu[j];
      const double slack = rest_mu - arrival_rate;
      if (slack <= 0.0 || slack < alloc::kMm1MinRelativeSlack * rest_mu) {
        return false;  // generic path throws, naming agent j
      }
      const double rest_a = sum_a - a[j];
      const double cj = slack / rest_a;
      if (!((j == argmin_a ? second_a : min_a) > cj)) return false;
    }
  }

  // ---- P2: rate plane + both latency totals + domain masks ---------------
  // x_i = mu_i - c a_i off the bid planes; the verified latency needs the
  // execution-type domain x_i < 1/e_i, which closed-form feasibility does
  // not imply — on a mask failure the generic path re-derives the round and
  // MM1Latency raises its canonical domain diagnostic.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  double* const x = rates.data();
  const DVec vc = v::set1(c);
  const DVec vinf = v::set1(std::numeric_limits<double>::infinity());
  DVec vrep0 = v::zero();
  DVec vrep1 = v::zero();
  DVec vact0 = v::zero();
  DVec vact1 = v::zero();
  DVec dok = v::mask_all();
  i = 0;
  for (; i + 2 * v::kLanes <= n; i += 2 * v::kLanes) {
    const DVec m0 = v::load(&mu[i]);
    const DVec m1 = v::load(&mu[i + v::kLanes]);
    const DVec x0 = v::sub(m0, v::mul(vc, v::load(&a[i])));
    const DVec x1 = v::sub(m1, v::mul(vc, v::load(&a[i + v::kLanes])));
    v::store(&x[i], x0);
    v::store(&x[i + v::kLanes], x1);
    dok = v::mask_and(dok, v::mask_greater(vinf, x0));
    dok = v::mask_and(dok, v::mask_greater(vinf, x1));
    dok = v::mask_and(dok, v::mask_greater(x0, vzero));
    dok = v::mask_and(dok, v::mask_greater(x1, vzero));
    const DVec db0 = v::sub(m0, x0);
    const DVec db1 = v::sub(m1, x1);
    dok = v::mask_and(dok, v::mask_greater(db0, vzero));
    dok = v::mask_and(dok, v::mask_greater(db1, vzero));
    vrep0 = v::add(vrep0, v::mul(x0, v::div(vone, db0)));
    vrep1 = v::add(vrep1, v::mul(x1, v::div(vone, db1)));
    const DVec de0 = v::sub(v::load(&mue[i]), x0);
    const DVec de1 = v::sub(v::load(&mue[i + v::kLanes]), x1);
    dok = v::mask_and(dok, v::mask_greater(de0, vzero));
    dok = v::mask_and(dok, v::mask_greater(de1, vzero));
    vact0 = v::add(vact0, v::mul(x0, v::div(vone, de0)));
    vact1 = v::add(vact1, v::mul(x1, v::div(vone, de1)));
  }
  for (; i + v::kLanes <= n; i += v::kLanes) {
    const DVec m0 = v::load(&mu[i]);
    const DVec x0 = v::sub(m0, v::mul(vc, v::load(&a[i])));
    v::store(&x[i], x0);
    dok = v::mask_and(dok, v::mask_greater(vinf, x0));
    dok = v::mask_and(dok, v::mask_greater(x0, vzero));
    const DVec db0 = v::sub(m0, x0);
    dok = v::mask_and(dok, v::mask_greater(db0, vzero));
    vrep0 = v::add(vrep0, v::mul(x0, v::div(vone, db0)));
    const DVec de0 = v::sub(v::load(&mue[i]), x0);
    dok = v::mask_and(dok, v::mask_greater(de0, vzero));
    vact0 = v::add(vact0, v::mul(x0, v::div(vone, de0)));
  }
  double reported_total = v::hsum(v::add(vrep0, vrep1));
  double actual_total = v::hsum(v::add(vact0, vact1));
  bool domain_ok = v::mask_all_true(dok);
  for (; i < n; ++i) {
    const double xi = mu[i] - c * a[i];
    x[i] = xi;
    domain_ok = domain_ok && xi > 0.0 &&
                xi < std::numeric_limits<double>::infinity();
    const double db = mu[i] - xi;
    const double de = mue[i] - xi;
    domain_ok = domain_ok && db > 0.0 && de > 0.0;
    reported_total += xi * (1.0 / db);
    actual_total += xi * (1.0 / de);
  }
  if (!domain_ok) return false;

  // ---- P3: fused payments + transposed AoS publish -----------------------
  out.agents.resize(n);
  dispatch_rule(rule, [&](auto kind) {
    publish_mm1<decltype(kind)::value>(n, mu, a, mue, x, sum_mu, sum_a,
                                       arrival_rate, actual_total,
                                       reported_total, out.agents.data());
  });
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  return true;
}

FamilyRoundStats run_workload_vectorized(const model::WorkloadFamily& family,
                                         PaymentRule rule, double arrival_rate,
                                         std::span<const double> bids,
                                         std::span<const double> executions,
                                         MechanismOutcome& out,
                                         RoundWorkspace& ws) {
  LBMV_ASSERT(
      rule != PaymentRule::kArcherTardos,
      "the fused workload engine serves leave-one-out rules and no-payment");
  const std::size_t n = bids.size();
  for (std::size_t j = 0; j < n; ++j) {
    require_valid_inputs(bids[j], executions[j]);
  }
  const double gamma = family.gamma();

  FamilyRoundStats stats;
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  const alloc::WorkloadSolve full =
      alloc::workload_solve_into(bids, gamma, arrival_rate, rates);
  stats.newton_iters += full.iterations;
  // The allocation is the exact optimum for the reported types, so the
  // solve's closed-form cost accumulation IS the reported latency total.
  const double reported_total = full.optimal_latency;
  const double* const x = rates.data();

  // Verified latency total: one 4-lane sweep of x * ((e x)(1 + gamma x)),
  // the publish pass's own per-term operand order.
  const DVec vone = v::set1(1.0);
  const DVec vg = v::set1(gamma);
  DVec vact0 = v::zero();
  DVec vact1 = v::zero();
  std::size_t i = 0;
  for (; i + 2 * v::kLanes <= n; i += 2 * v::kLanes) {
    const DVec x0 = v::load(&x[i]);
    const DVec x1 = v::load(&x[i + v::kLanes]);
    vact0 = v::add(vact0,
                   v::mul(x0, v::mul(v::mul(v::load(&executions[i]), x0),
                                     v::add(vone, v::mul(vg, x0)))));
    vact1 = v::add(
        vact1,
        v::mul(x1, v::mul(v::mul(v::load(&executions[i + v::kLanes]), x1),
                          v::add(vone, v::mul(vg, x1)))));
  }
  for (; i + v::kLanes <= n; i += v::kLanes) {
    const DVec x0 = v::load(&x[i]);
    vact0 = v::add(vact0,
                   v::mul(x0, v::mul(v::mul(v::load(&executions[i]), x0),
                                     v::add(vone, v::mul(vg, x0)))));
  }
  double actual_total = v::hsum(v::add(vact0, vact1));
  for (; i < n; ++i) {
    const double xi = x[i];
    actual_total += xi * ((executions[i] * xi) * (1.0 + gamma * xi));
  }

  // Leave-one-out plane: the family's single O(n d) Taylor-model solver,
  // exact Newton only for the agents its error bound refuses.
  const double* loo = nullptr;
  if (uses_leave_one_out(rule)) {
    ws.leave_one_out.resize(n);
    const alloc::WorkloadLooStats loo_stats =
        alloc::workload_leave_one_out_into(bids, gamma, arrival_rate,
                                           full.lambda, ws.leave_one_out,
                                           ws.family_scratch);
    stats.newton_iters += loo_stats.newton_iters;
    stats.loo_fallbacks += loo_stats.fallbacks;
    loo = ws.leave_one_out.data();
  }

  out.agents.resize(n);
  dispatch_rule(rule, [&](auto kind) {
    publish_workload<decltype(kind)::value>(
        n, bids.data(), executions.data(), x, loo, gamma, actual_total,
        reported_total, out.agents.data());
  });
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  return stats;
}

}  // namespace lbmv::core
