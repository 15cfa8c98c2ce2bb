#pragma once

/// \file family_round.h
/// Fused vectorized rounds for the nonlinear latency families (DESIGN.md
/// §14).
///
/// The generic round path handles any convex family by building 2n latency
/// function objects per round and dispatching virtually per agent — correct
/// everywhere, but the heap traffic and call overhead dwarf the O(n)
/// closed-form math for the two nonlinear families the repo ships exact
/// allocators for.  This header provides their fused counterparts, modelled
/// on the linear engine (simd_round.h): 4-lane kernels over contiguous
/// workspace planes, AND-accumulated validity masks tested once per pass,
/// the transposed util::simd::store_records6 publish, and zero steady-state
/// heap allocations once the workspace planes have grown to n.
///
/// **M/M/1** (run_mm1_vectorized).  With mu_i = 1/b_i and a_i = sqrt(mu_i)
/// the square-root closed form makes every round quantity a few vector ops
/// per agent when every computer stays active — in the full set AND in all
/// n leave-one-out subsystems, each an O(1) test against the cached
/// min/second-min of the a plane:
///
///   x_i    = mu_i - c a_i,          c   = (sum mu - R) / sum a
///   L_{-i} = rest_a_i / c_i - (n-1),  c_i = (rest_mu_i - R) / rest_a_i
///
/// The engine returns false — publishing nothing — whenever any active set
/// is a strict subset or any closed-form precondition fails, and the caller
/// falls through to the generic path, whose allocator raises the canonical
/// typed PreconditionError (capacity exceeded, saturation guard, or the
/// leave-one-out message naming the agent whose departure overloads the
/// rest).  Heavily loaded heterogeneous profiles where slow machines drop
/// out therefore still work; they just take the generic path.
///
/// **Workload-dependent rates** (run_workload_vectorized).  The family
/// l(x) = theta x (1 + gamma x) is always interior, so the fused round
/// always succeeds: one monotone damped-free Newton solve on the KKT
/// conservation residual for the full set (alloc/workload_allocator.h),
/// then the leave-one-out plane from alloc::workload_leave_one_out_into —
/// an O(n d) Taylor model of the full-set curves, exact per-agent Newton
/// only where its error bound fails — and one fused publish pass.  The
/// exact Newton iteration count and the model's fallbacks are returned so
/// the caller can feed the lbmv_mech_newton_iters_total and
/// lbmv_mech_loo_fallbacks_total probes.
///
/// Both engines run the agent axis serial: at the n these families target
/// the 4-lane kernels are already memory-lean, and a serial fixed-order
/// pass keeps results trivially independent of thread count.  Outcomes
/// agree with the generic path to a bounded relative error (reassociated
/// reductions), the contract the differential suite in
/// tests/test_nonlinear_kernels.cpp enforces at 1e-9.

#include <cstddef>
#include <span>

#include "lbmv/core/mechanism.h"

namespace lbmv::model {
class WorkloadFamily;
}  // namespace lbmv::model

namespace lbmv::core {

class RoundWorkspace;  // batch.h

/// What a fused nonlinear round actually did, for the caller's obs probes.
struct FamilyRoundStats {
  std::size_t newton_iters = 0;   ///< exact O(n) KKT Newton iterations
  std::size_t loo_fallbacks = 0;  ///< leave-one-out agents off the model
};

/// Run one fused M/M/1 round end to end (validation, closed-form
/// allocation, latency totals, payments, utilities) and return true, or
/// return false without touching \p out when the round needs the generic
/// active-set machinery (some computer would be dropped, or a closed-form
/// precondition fails and the generic path owns the canonical diagnostic).
/// \p rule must not be kArcherTardos (whose tail integral is
/// linear-family-specific) and \p arrival_rate must already be checked
/// positive and finite (run_into does).  Bids and executions are mean
/// service times (MM1Family's convention); invalid inputs throw the generic
/// path's diagnostics.
[[nodiscard]] bool run_mm1_vectorized(PaymentRule rule, double arrival_rate,
                                      std::span<const double> bids,
                                      std::span<const double> executions,
                                      MechanismOutcome& out,
                                      RoundWorkspace& ws);

/// Run one fused workload-family round end to end.  Always succeeds on
/// valid input (the KKT solution is interior at every R > 0); throws the
/// generic path's diagnostics otherwise.  Same preconditions as the M/M/1
/// engine.
FamilyRoundStats run_workload_vectorized(const model::WorkloadFamily& family,
                                         PaymentRule rule, double arrival_rate,
                                         std::span<const double> bids,
                                         std::span<const double> executions,
                                         MechanismOutcome& out,
                                         RoundWorkspace& ws);

}  // namespace lbmv::core
