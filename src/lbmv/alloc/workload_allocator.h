#pragma once

/// \file workload_allocator.h
/// Exact allocation for workload-dependent service rates.
///
/// For the WorkloadFamily latency l_i(x) = theta_i * x * (1 + gamma * x)
/// the cost theta_i * x^2 * (1 + gamma * x) is a strictly convex cubic, so
/// the KKT system is: find a multiplier lambda with
///
///     c_i'(x_i) = 2 theta_i x_i + 3 theta_i gamma x_i^2 = lambda,
///     sum_i x_i = R,
///
/// and every agent interior (the marginal cost at x = 0 is 0 < lambda, so
/// no agent is ever dropped — unlike M/M/1 there is no capacity bound and
/// no active-set search).  Inverting the quadratic gives the closed form
///
///     x_i(lambda) = (sqrt(1 + 3 gamma lambda / theta_i) - 1) / (3 gamma),
///
/// and the conservation residual g(lambda) = sum_i x_i(lambda) - R is
/// increasing and concave in lambda.  The solver is an undamped Newton
/// iteration on g started at the linear-model estimate lambda_0 = 2R / S
/// (S = sum 1/theta_i): since x_i(lambda) <= lambda/(2 theta_i), the start
/// satisfies g(lambda_0) <= 0, and for a concave increasing g every Newton
/// step from a point with g <= 0 lands again at g <= 0 — the iteration is
/// monotone from below, never overshoots, and needs no bracket or damping.
/// Termination is a fixed point (the step rounds to zero), g == 0 exactly,
/// or a 128-iteration cap, all deterministic: results depend only on the
/// inputs, never on timing or thread count.  The g/g' reductions run on the
/// 4-lane util/simd.h vectors, whose AVX2 and emulated backends are
/// bit-identical by construction.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/allocator.h"

namespace lbmv::alloc {

/// Hard cap on Newton iterations; the monotone iteration converges
/// quadratically, so hitting this means the inputs are degenerate (and the
/// result at the cap is still the best lower approximation found).
inline constexpr std::size_t kWorkloadNewtonMaxIters = 128;

/// Everything one workload-family KKT solve derives.
struct WorkloadSolve {
  double lambda = 0.0;           ///< KKT multiplier (marginal cost at optimum)
  double optimal_latency = 0.0;  ///< min sum_i x_i * l_i(x_i)
  std::size_t iterations = 0;    ///< Newton iterations consumed
};

/// Fused solve: fills rates_out[i] = x_i(lambda*) (thetas.size() slots) and
/// returns the solve summary.  Pass \p warm_start_lambda > 0 to start the
/// Newton iteration there instead of at 2R/S — only valid when
/// g(warm_start) <= 0, which holds for any multiplier of a superset of the
/// agents (leave-one-out fallbacks warm-start at the full-set lambda*).
WorkloadSolve workload_solve_into(std::span<const double> thetas, double gamma,
                                  double arrival_rate,
                                  std::span<double> rates_out,
                                  double warm_start_lambda = 0.0);

/// Degree d of the leave-one-out Taylor model (DESIGN.md §14).  Fixed: the
/// coefficient pass, the per-agent polynomial solve and the error bound are
/// all sized by it at compile time.
inline constexpr std::size_t kWorkloadLooDegree = 8;

/// Largest a-posteriori relative error bound on L_{-i} the model may return;
/// an agent whose bound exceeds it takes the exact per-agent Newton instead.
inline constexpr double kWorkloadLooMaxRelBound = 1e-12;

/// What one leave-one-out plane cost, for the caller's obs probes.
struct WorkloadLooStats {
  std::size_t newton_iters = 0;  ///< exact O(n) Newton passes (fallbacks)
  std::size_t fallbacks = 0;     ///< agents whose model bound failed
};

/// Fills loo_out[i] = L_{-i}, the optimal total latency of the profile
/// without agent i, for every agent, given the full-set KKT multiplier
/// \p lambda (workload_solve_into's WorkloadSolve::lambda).
///
/// With x_j(lambda) = (sqrt(1 + a_j lambda) - 1) / (3 gamma), a_j = 3 gamma
/// / theta_j, one O(n) 4-lane pass builds the Taylor coefficients of
/// F = sum_j x_j around lambda (fixed lane order: bit-identical on every
/// vector backend), and each agent then solves T_F(lambda) - x_i(lambda) = R
/// by Newton on the degree-kWorkloadLooDegree polynomial in O(d) and reads
/// L_{-i} off the cost model T_G (G' = lambda F') minus its own exact cost.
/// Every derivative x_j^(k), k >= 1, has sign (-1)^(k+1) and shrinks as
/// lambda grows, and every lambda_{-i} >= lambda, so the truncation error
/// has a rigorous bound; a result is accepted only when its a-posteriori
/// bound is <= kWorkloadLooMaxRelBound relative.  Agents that fail (small n,
/// or one agent dominating the fleet) take the exact warm-started
/// per-agent Newton over the rest set.  O(n d) when nothing falls back.
///
/// \p scratch holds the rest-set planes of the fallbacks; it grows on the
/// first fallback and is reused afterwards, so a caller that keeps it
/// across rounds allocates nothing per round.  Requires n >= 2.
WorkloadLooStats workload_leave_one_out_into(std::span<const double> thetas,
                                             double gamma,
                                             double arrival_rate,
                                             double lambda,
                                             std::span<double> loo_out,
                                             std::vector<double>& scratch);

/// Allocator-interface wrapper.  Requires the WorkloadFamily (the gamma is
/// read off the family); exact, so the compensation-and-bonus construction
/// applies.  leave_one_out_into is one full solve plus
/// workload_leave_one_out_into.
class WorkloadAllocator final : public Allocator {
 public:
  [[nodiscard]] model::Allocation allocate(
      const model::LatencyFamily& family, std::span<const double> types,
      double arrival_rate) const override;
  void allocate_into(const model::LatencyFamily& family,
                     std::span<const double> types, double arrival_rate,
                     std::vector<double>& rates) const override;
  [[nodiscard]] double optimal_latency(const model::LatencyFamily& family,
                                       std::span<const double> types,
                                       double arrival_rate) const override;
  void leave_one_out_into(const model::LatencyFamily& family,
                          std::span<const double> types, double arrival_rate,
                          std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "workload"; }
};

}  // namespace lbmv::alloc
