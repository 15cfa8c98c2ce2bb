#pragma once

/// \file rule_kernel.h
/// The payment rules, written once over the lane type (DESIGN.md §12).
///
/// Every exact engine applies the same five rules to per-agent terms its
/// latency family supplies: the allocation x, the verified cost cost_e (the
/// valuation's magnitude), the compensation comp at the rule's own-cost
/// basis, and the transfer — L_{-i} for the leave-one-out rules, the
/// Archer–Tardos tail, nothing for no-payment.  This header is the one place
/// those rules are spelled out:
///
///   * record() turns the terms into the six AgentOutcome fields of a round
///     (the fused publish passes of simd_round.cpp and family_round.cpp);
///   * deviation_utility() turns them into one agent's utility under a
///     unilateral deviation (the profile contexts and their grid sweeps).
///
/// Both are templates over T = double or T = util::simd::DVec, built from
/// the lane ops of util/simd.h, so a scalar tail, a 4-lane body and a scalar
/// oracle instantiate the same expression and agree bit for bit.  The
/// association of each rule is fixed here; no FMA is used.

#include <cstddef>
#include <type_traits>

#include "lbmv/core/mechanism.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {

// The fused publish writes four AgentOutcome rows per transposed vector
// store, so the struct must be exactly its six doubles in field order
// (util::simd::store_records6's record layout).
static_assert(sizeof(AgentOutcome) == 6 * sizeof(double),
              "AgentOutcome must stay six packed doubles");
static_assert(std::is_standard_layout_v<AgentOutcome>,
              "AgentOutcome must stay standard-layout");
static_assert(offsetof(AgentOutcome, allocation) == 0 &&
                  offsetof(AgentOutcome, compensation) == 8 &&
                  offsetof(AgentOutcome, bonus) == 16 &&
                  offsetof(AgentOutcome, payment) == 24 &&
                  offsetof(AgentOutcome, valuation) == 32 &&
                  offsetof(AgentOutcome, utility) == 40,
              "AgentOutcome field order is part of the publish contract");

/// Whether \p rule's transfer is the leave-one-out optimum L_{-i}.
[[nodiscard]] constexpr bool uses_leave_one_out(PaymentRule rule) {
  return rule == PaymentRule::kCompBonusExecution ||
         rule == PaymentRule::kCompBonusBid || rule == PaymentRule::kVcg;
}

/// Whether \p rule reads the round's verified total L(x, t~) (the
/// comp-bonus bonus) or its reported total L(x, b) (the Clarke pivot).
/// Kernels skip the totals a rule does not read.
[[nodiscard]] constexpr bool reads_actual_total(PaymentRule rule) {
  return rule == PaymentRule::kCompBonusExecution ||
         rule == PaymentRule::kCompBonusBid;
}
[[nodiscard]] constexpr bool reads_reported_total(PaymentRule rule) {
  return rule == PaymentRule::kVcg;
}

/// One agent's (or four agents') inputs to a payment rule.
template <typename T>
struct RuleTerms {
  T x;         ///< allocation
  T cost_e;    ///< verified cost: the valuation is -cost_e
  T comp;      ///< compensation at the rule's basis (unread by no-payment)
  T transfer;  ///< L_{-i}, the Archer–Tardos tail, or unread (no-payment)
  /// Lanes whose family-side checks held (finite rate, rule guard); the
  /// publish driver AND-accumulates it for the caller's diagnostics.
  util::simd::Mask<T> ok = util::simd::all_lanes<T>();
};

/// The six AgentOutcome fields, in field order.
template <typename T>
struct RuleRecord {
  T allocation, compensation, bonus, payment, valuation, utility;
};

/// The round outcome of \p kRule for one agent or lane block, against the
/// round's verified total \p actual = L(x, t~) and reported total
/// \p reported = L(x, b):
///
///   comp-bonus     B = L_{-i} - actual,  P = C + B
///   VCG            B = L_{-i} - reported, P = L_{-i} - (reported - C)
///   Archer–Tardos  B = tail,             P = C + B
///   no-payment     C = B = P = 0
///
/// and V = -cost_e, U = P + V for all of them.
template <PaymentRule kRule, typename T>
[[nodiscard]] inline RuleRecord<T> record(T x, T cost_e, T comp, T transfer,
                                          T actual, T reported) {
  namespace v = util::simd;
  RuleRecord<T> r;
  r.allocation = x;
  if constexpr (kRule == PaymentRule::kNoPayment) {
    r.compensation = v::splat<T>(0.0);
    r.bonus = r.compensation;
    r.payment = r.compensation;
  } else if constexpr (kRule == PaymentRule::kArcherTardos) {
    r.compensation = comp;
    r.bonus = transfer;
    r.payment = v::add(comp, transfer);
  } else if constexpr (kRule == PaymentRule::kVcg) {
    r.compensation = comp;
    r.bonus = v::sub(transfer, reported);
    r.payment = v::sub(transfer, v::sub(reported, comp));
  } else {
    r.compensation = comp;
    r.bonus = v::sub(transfer, actual);
    r.payment = v::add(comp, r.bonus);
  }
  r.valuation = v::neg(cost_e);
  r.utility = v::add(r.payment, r.valuation);
  return r;
}

/// The deviating agent's utility under \p kRule: its payment plus its
/// valuation, with the round totals \p actual and \p reported taken at the
/// deviated profile.  Comp-bonus at the execution basis pays exactly the
/// verified cost back, so its utility is the bonus alone.
template <PaymentRule kRule, typename T>
[[nodiscard]] inline T deviation_utility(T comp, T transfer, T cost_e,
                                         T actual, T reported) {
  namespace v = util::simd;
  if constexpr (kRule == PaymentRule::kCompBonusExecution) {
    return v::sub(transfer, actual);
  } else if constexpr (kRule == PaymentRule::kCompBonusBid) {
    return v::sub(v::add(comp, v::sub(transfer, actual)), cost_e);
  } else if constexpr (kRule == PaymentRule::kVcg) {
    return v::sub(v::sub(transfer, v::sub(reported, comp)), cost_e);
  } else if constexpr (kRule == PaymentRule::kArcherTardos) {
    return v::sub(v::add(comp, transfer), cost_e);
  } else {
    return v::neg(cost_e);
  }
}

/// Call f(std::integral_constant<PaymentRule, rule>{}): the one switch from
/// a runtime rule to the template argument of the kernels above.
template <typename F>
decltype(auto) dispatch_rule(PaymentRule rule, F&& f) {
  using R = PaymentRule;
  switch (rule) {
    case R::kCompBonusExecution:
      return f(std::integral_constant<R, R::kCompBonusExecution>{});
    case R::kCompBonusBid:
      return f(std::integral_constant<R, R::kCompBonusBid>{});
    case R::kVcg:
      return f(std::integral_constant<R, R::kVcg>{});
    case R::kArcherTardos:
      return f(std::integral_constant<R, R::kArcherTardos>{});
    case R::kNoPayment:
      break;
  }
  return f(std::integral_constant<R, R::kNoPayment>{});
}

/// Publish \p n agents' outcomes: \p terms(lane, i) returns the RuleTerms of
/// agents i.. as the type of \p lane (a DVec for the 4-lane body, a double
/// for the scalar tail, both in index order), and each block goes through
/// record<kRule> into \p agents — four rows per transposed store in the
/// body.  Returns whether every lane's ok mask held.
template <PaymentRule kRule, typename Terms>
[[nodiscard]] bool publish_block(std::size_t n, double actual, double reported,
                                 AgentOutcome* agents, const Terms& terms) {
  namespace v = util::simd;
  const v::DVec vact = v::set1(actual);
  const v::DVec vrep = v::set1(reported);
  v::DVec ok = v::mask_all();
  std::size_t i = 0;
  for (; i + v::kLanes <= n; i += v::kLanes) {
    const RuleTerms<v::DVec> t = terms(v::DVec{}, i);
    ok = v::mask_and(ok, t.ok);
    const RuleRecord<v::DVec> r =
        record<kRule>(t.x, t.cost_e, t.comp, t.transfer, vact, vrep);
    v::store_records6(reinterpret_cast<double*>(agents + i), r.allocation,
                      r.compensation, r.bonus, r.payment, r.valuation,
                      r.utility);
  }
  bool all_ok = v::mask_all_true(ok);
  for (; i < n; ++i) {
    const RuleTerms<double> t = terms(0.0, i);
    all_ok = all_ok && t.ok;
    const RuleRecord<double> r =
        record<kRule>(t.x, t.cost_e, t.comp, t.transfer, actual, reported);
    agents[i] = AgentOutcome{r.allocation, r.compensation, r.bonus,
                             r.payment,    r.valuation,    r.utility};
  }
  return all_ok;
}

}  // namespace lbmv::core
