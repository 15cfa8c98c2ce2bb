#include "lbmv/alloc/workload_allocator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::alloc {

namespace {

namespace simd = util::simd;

/// One evaluation of the conservation residual g(lambda) = sum x_i - R and
/// its derivative g'(lambda) = sum 1/(2 theta_i s_i), s_i = sqrt(1 + 3
/// gamma lambda / theta_i), in a single 4-lane pass over the theta plane.
struct Residual {
  double g = 0.0;
  double gp = 0.0;
};

Residual eval_residual(std::span<const double> thetas, double gamma,
                       double arrival_rate, double lambda) {
  const std::size_t n = thetas.size();
  const double k3gl = 3.0 * gamma * lambda;
  const double inv3g = 1.0 / (3.0 * gamma);
  const simd::DVec one = simd::set1(1.0);
  simd::DVec vg = simd::zero();
  simd::DVec vgp = simd::zero();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::DVec t = simd::load(&thetas[i]);
    const simd::DVec s =
        simd::sqrt(simd::add(one, simd::div(simd::set1(k3gl), t)));
    vg = simd::add(vg, simd::mul(simd::sub(s, one), simd::set1(inv3g)));
    vgp = simd::add(
        vgp, simd::div(one, simd::mul(simd::set1(2.0), simd::mul(t, s))));
  }
  Residual r;
  r.g = simd::hsum(vg);
  r.gp = simd::hsum(vgp);
  for (; i < n; ++i) {
    const double s = std::sqrt(1.0 + k3gl / thetas[i]);
    r.g += (s - 1.0) * inv3g;
    r.gp += 1.0 / (2.0 * thetas[i] * s);
  }
  r.g -= arrival_rate;
  return r;
}

}  // namespace

WorkloadSolve workload_solve_into(std::span<const double> thetas, double gamma,
                                  double arrival_rate,
                                  std::span<double> rates_out,
                                  double warm_start_lambda) {
  const std::size_t n = thetas.size();
  LBMV_REQUIRE(n > 0, "need at least one computer");
  LBMV_REQUIRE(gamma > 0.0, "workload congestion coefficient must be positive");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(rates_out.size() == n, "rates_out size mismatch");

  double lambda = warm_start_lambda;
  if (!(lambda > 0.0)) {
    // Linear-model estimate: x_i ~ lambda/(2 theta_i) overestimates the true
    // x_i(lambda), so g(2R/S) <= 0 and the monotone Newton applies.
    double inv_sum = 0.0;
    for (double t : thetas) {
      LBMV_REQUIRE(t > 0.0, "types must be positive");
      inv_sum += 1.0 / t;
    }
    lambda = 2.0 * arrival_rate / inv_sum;
  }

  WorkloadSolve solve;
  for (std::size_t iter = 0; iter < kWorkloadNewtonMaxIters; ++iter) {
    const Residual r = eval_residual(thetas, gamma, arrival_rate, lambda);
    ++solve.iterations;
    if (r.g == 0.0) break;
    const double next = lambda - r.g / r.gp;
    // Fixed point: the step rounded away (or a warm start overshot by a few
    // ulps, making the "correction" non-positive) — lambda is converged.
    if (!(next > lambda)) break;
    lambda = next;
  }
  solve.lambda = lambda;

  // Fill pass: rates and the optimum's total latency in the same 4-lane
  // sweep, cost accumulated in the latency function's own operation order
  // x * (theta * x * (1 + gamma * x)).
  const double k3gl = 3.0 * gamma * lambda;
  const double inv3g = 1.0 / (3.0 * gamma);
  const simd::DVec one = simd::set1(1.0);
  simd::DVec vl = simd::zero();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::DVec t = simd::load(&thetas[i]);
    const simd::DVec s =
        simd::sqrt(simd::add(one, simd::div(simd::set1(k3gl), t)));
    const simd::DVec x = simd::mul(simd::sub(s, one), simd::set1(inv3g));
    simd::store(&rates_out[i], x);
    const simd::DVec lat = simd::mul(
        t, simd::mul(x, simd::add(one, simd::mul(simd::set1(gamma), x))));
    vl = simd::add(vl, simd::mul(x, lat));
  }
  solve.optimal_latency = simd::hsum(vl);
  for (; i < n; ++i) {
    const double s = std::sqrt(1.0 + k3gl / thetas[i]);
    const double x = (s - 1.0) * inv3g;
    rates_out[i] = x;
    solve.optimal_latency += x * (thetas[i] * x * (1.0 + gamma * x));
  }
  return solve;
}

namespace {

constexpr std::size_t kDeg = kWorkloadLooDegree;
constexpr std::size_t kModelMaxIters = 32;
/// Rounding allowance of the model's final subtraction T_G - own cost, in
/// units of epsilon times the operands' magnitude: an agent that carries
/// nearly all of the fleet's cost cancels most digits and falls back.
constexpr double kCancellationUlps = 32.0;

/// Taylor coefficients of the full-set curves in the relative offset
/// tau = (lambda' - lambda) / lambda:
///   F(lambda (1 + tau)) = sum_k c[k] tau^k,   k = 0..d+1,
///   G(lambda (1 + tau)) = sum_m g[m] tau^m,   m = 0..d+1 (see below).
struct TaylorModel {
  double c[kDeg + 2] = {};
  double g[kDeg + 2] = {};
};

/// One 4-lane pass over the theta plane.  Per agent, with w = 3 gamma
/// lambda / theta, u = 1 + w, s = sqrt(u) and rho = w / u in [0, 1):
///   x^(k) lambda^k / k! = (s / (3 gamma)) binom(1/2, k) rho^k   (k >= 1),
/// built by t_k = t_{k-1} rho (3/2 - k) / k from t_0 = s / (3 gamma).
/// Working in tau keeps every coefficient bounded by t_0 whatever the
/// scale of lambda.
TaylorModel build_model(std::span<const double> thetas, double gamma,
                        double lambda) {
  const std::size_t n = thetas.size();
  const double k3gl = 3.0 * gamma * lambda;
  const double inv3g = 1.0 / (3.0 * gamma);
  double beta[kDeg + 2] = {};
  for (std::size_t k = 1; k < kDeg + 2; ++k) {
    beta[k] = (1.5 - static_cast<double>(k)) / static_cast<double>(k);
  }
  const simd::DVec one = simd::set1(1.0);
  const simd::DVec vk3gl = simd::set1(k3gl);
  const simd::DVec vinv3g = simd::set1(inv3g);
  const simd::DVec vgamma = simd::set1(gamma);
  simd::DVec acc[kDeg + 2];
  for (simd::DVec& a : acc) a = simd::zero();
  simd::DVec vcost = simd::zero();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::DVec t = simd::load(&thetas[i]);
    const simd::DVec w = simd::div(vk3gl, t);
    const simd::DVec u = simd::add(one, w);
    const simd::DVec s = simd::sqrt(u);
    const simd::DVec rho = simd::div(w, u);
    const simd::DVec x = simd::mul(simd::sub(s, one), vinv3g);
    acc[0] = simd::add(acc[0], x);
    const simd::DVec congestion = simd::add(one, simd::mul(vgamma, x));
    vcost = simd::add(vcost,
                      simd::mul(x, simd::mul(t, simd::mul(x, congestion))));
    simd::DVec tk = simd::mul(s, vinv3g);
    for (std::size_t k = 1; k < kDeg + 2; ++k) {
      tk = simd::mul(simd::mul(tk, rho), simd::set1(beta[k]));
      acc[k] = simd::add(acc[k], tk);
    }
  }
  TaylorModel m;
  for (std::size_t k = 0; k < kDeg + 2; ++k) m.c[k] = simd::hsum(acc[k]);
  double cost = simd::hsum(vcost);
  for (; i < n; ++i) {
    const double t = thetas[i];
    const double w = k3gl / t;
    const double u = 1.0 + w;
    const double s = std::sqrt(u);
    const double rho = w / u;
    const double x = (s - 1.0) * inv3g;
    m.c[0] += x;
    cost += x * (t * (x * (1.0 + gamma * x)));
    double tk = s * inv3g;
    for (std::size_t k = 1; k < kDeg + 2; ++k) {
      tk = (tk * rho) * beta[k];
      m.c[k] += tk;
    }
  }
  // G' = lambda F' in tau: dG/dtau = lambda (1 + tau) dF/dtau, so
  //   g[0] = G(lambda),  g[m] = lambda (c[m] + (m-1)/m c[m-1])  (1 <= m <= d),
  // and the top coefficient keeps only its c[d] part, lambda d/(d+1) c[d]:
  // that T_G equals lambda T_F + T_Psi with Psi = G - lambda F, Psi' = -F,
  // i.e. the Lagrangian dual of the rest-set problem, whose truncation error
  // is an integral of F's and second order in the solve's residual.
  m.g[0] = cost;
  for (std::size_t k = 1; k <= kDeg; ++k) {
    const double kd = static_cast<double>(k);
    m.g[k] = lambda * (m.c[k] + ((kd - 1.0) / kd) * m.c[k - 1]);
  }
  const double dd = static_cast<double>(kDeg);
  m.g[kDeg + 1] = lambda * ((dd / (dd + 1.0)) * m.c[kDeg]);
  return m;
}

/// Model-based L_{-i} for the four agents of \p theta4, written to
/// \p loo4.  Returns the lane bits (bit l for lane l) of the agents whose
/// a-posteriori bound accepted the model; the others need the exact solve.
/// Every lane runs the same lane-wise IEEE recipe, so an agent's result
/// does not depend on its block neighbours or the vector backend.
unsigned model_leave_one_out_block(const TaylorModel& m, const double* theta4,
                                   double gamma, double arrival_rate,
                                   double lambda, double* loo4) {
  using simd::DVec;
  const DVec one = simd::set1(1.0);
  const DVec theta = simd::load(theta4);
  const DVec vlambda = simd::set1(lambda);
  const DVec vrate = simd::set1(arrival_rate);
  const DVec vk3g = simd::set1(3.0 * gamma);
  const DVec vinv3g = simd::set1(1.0 / (3.0 * gamma));
  const DVec two_theta = simd::mul(simd::set1(2.0), theta);

  // Newton on phi(tau) = T_F(tau) - x_i(lambda (1 + tau)) - R from tau = 0,
  // where phi(0) ~ -x_i < 0: the rest-set curve is increasing and concave,
  // so each lane climbs monotonically like the exact solver and freezes at
  // its fixed point (the step no longer increases tau).  A frozen lane
  // re-evaluates phi at the same tau, so its final phi is exact.
  DVec tau = simd::zero();
  DVec phi = simd::zero();
  DVec s = one;
  DVec active = simd::mask_all();
  for (std::size_t iter = 0;
       iter < kModelMaxIters && simd::mask_bits(active) != 0; ++iter) {
    const DVec lam = simd::mul(vlambda, simd::add(one, tau));
    s = simd::sqrt(simd::add(one, simd::div(simd::mul(vk3g, lam), theta)));
    DVec p = simd::set1(m.c[kDeg]);
    DVec dp = simd::set1(static_cast<double>(kDeg) * m.c[kDeg]);
    for (std::size_t k = kDeg; k-- > 1;) {
      p = simd::add(simd::mul(p, tau), simd::set1(m.c[k]));
      dp = simd::add(simd::mul(dp, tau),
                     simd::set1(static_cast<double>(k) * m.c[k]));
    }
    p = simd::add(simd::mul(p, tau), simd::set1(m.c[0]));
    phi = simd::sub(simd::sub(p, simd::mul(simd::sub(s, one), vinv3g)), vrate);
    const DVec dphi =
        simd::sub(dp, simd::div(vlambda, simd::mul(two_theta, s)));
    const DVec next = simd::sub(tau, simd::div(phi, dphi));
    active = simd::mask_and(active, simd::mask_greater(next, tau));
    tau = simd::select(active, next, tau);
  }

  const DVec x = simd::mul(simd::sub(s, one), vinv3g);
  const DVec congestion = simd::add(one, simd::mul(simd::set1(gamma), x));
  const DVec own_cost =
      simd::mul(x, simd::mul(theta, simd::mul(x, congestion)));
  DVec q = simd::set1(m.g[kDeg + 1]);
  for (std::size_t k = kDeg + 1; k-- > 0;) {
    q = simd::add(simd::mul(q, tau), simd::set1(m.g[k]));
  }
  const DVec loo = simd::sub(q, own_cost);
  simd::store(loo4, loo);

  // A-posteriori bound.  |F - T_F| <= |c[d+1]| tau^(d+1) on [0, tau] (every
  // term's (d+1)-th derivative has one sign and shrinks with lambda), so
  //   * the dual's truncation is <= lambda |c[d+1]| tau^(d+2) / (d+2);
  //   * T_G's excess over the dual at tau is lambda_hat * |phi|;
  //   * the dual's gap to the optimum is <= 4 lambda_hat delta^2 / R, with
  //     delta >= |R - F_{-i}(lambda_hat)| (valid while delta < R / 4,
  //     using lambda F' >= F / 2 for every square-root rate curve);
  //   * the subtraction q - own_cost cancels digits when agent i carries
  //     most of the cost.
  // Every test is an ordered compare, so NaN lanes are refused.
  DVec tau_d1 = tau;
  for (std::size_t k = 0; k < kDeg; ++k) tau_d1 = simd::mul(tau_d1, tau);
  const double top = std::fabs(m.c[kDeg + 1]);
  const DVec lambda_hat = simd::mul(vlambda, simd::add(one, tau));
  const DVec abs_phi = simd::max(phi, simd::neg(phi));
  const DVec delta =
      simd::add(abs_phi, simd::mul(simd::set1(top), tau_d1));
  const DVec truncation =
      simd::div(simd::mul(simd::mul(simd::set1(lambda * top), tau_d1), tau),
                simd::set1(static_cast<double>(kDeg + 2)));
  const DVec gap = simd::div(
      simd::mul(simd::mul(simd::set1(4.0), lambda_hat), simd::mul(delta, delta)),
      vrate);
  const DVec rounding = simd::mul(
      simd::set1(kCancellationUlps * std::numeric_limits<double>::epsilon()),
      simd::add(simd::max(q, simd::neg(q)), own_cost));
  const DVec bound = simd::add(
      simd::add(truncation, simd::mul(lambda_hat, abs_phi)),
      simd::add(gap, rounding));
  DVec accept = simd::mask_greater(simd::set1(0.25 * arrival_rate), delta);
  accept = simd::mask_and(accept, simd::mask_greater(loo, simd::zero()));
  accept = simd::mask_and(
      accept, simd::mask_greater(
                  simd::mul(simd::set1(kWorkloadLooMaxRelBound), loo), bound));
  // Lanes still climbing at the iteration cap never converged.
  return simd::mask_bits(accept) & ~simd::mask_bits(active) & 0xFu;
}

}  // namespace

WorkloadLooStats workload_leave_one_out_into(std::span<const double> thetas,
                                             double gamma,
                                             double arrival_rate,
                                             double lambda,
                                             std::span<double> loo_out,
                                             std::vector<double>& scratch) {
  const std::size_t n = thetas.size();
  LBMV_REQUIRE(n >= 2, "leave-one-out requires at least two computers");
  LBMV_REQUIRE(loo_out.size() == n, "loo_out size mismatch");
  LBMV_REQUIRE(lambda > 0.0, "leave-one-out needs the full-set multiplier");
  const TaylorModel model = build_model(thetas, gamma, lambda);
  WorkloadLooStats stats;
  for (std::size_t block = 0; block < n; block += simd::kLanes) {
    // The tail block repeats the last agent in its padding lanes.
    double theta4[simd::kLanes];
    double loo4[simd::kLanes];
    for (std::size_t l = 0; l < simd::kLanes; ++l) {
      theta4[l] = thetas[std::min(block + l, n - 1)];
    }
    const unsigned accepted = model_leave_one_out_block(
        model, theta4, gamma, arrival_rate, lambda, loo4);
    for (std::size_t l = 0; l < simd::kLanes && block + l < n; ++l) {
      const std::size_t i = block + l;
      if ((accepted >> l) & 1u) {
        loo_out[i] = loo4[l];
        continue;
      }
      // Exact fallback over the rest set in BidProfile::without order.  The
      // full-set multiplier satisfies g_rest(lambda) = -x_i(lambda) <= 0,
      // so it is a valid monotone warm start.
      scratch.resize(2 * (n - 1));
      const std::span<double> rest{scratch.data(), n - 1};
      const std::span<double> rest_rates{scratch.data() + (n - 1), n - 1};
      const auto cut = thetas.begin() + static_cast<std::ptrdiff_t>(i);
      std::copy(thetas.begin(), cut, rest.begin());
      std::copy(cut + 1, thetas.end(),
                rest.begin() + static_cast<std::ptrdiff_t>(i));
      const WorkloadSolve solve =
          workload_solve_into(rest, gamma, arrival_rate, rest_rates, lambda);
      loo_out[i] = solve.optimal_latency;
      stats.newton_iters += solve.iterations;
      ++stats.fallbacks;
    }
  }
  return stats;
}

namespace {

double family_gamma(const model::LatencyFamily& family) {
  const auto* workload = dynamic_cast<const model::WorkloadFamily*>(&family);
  LBMV_REQUIRE(workload != nullptr,
               "WorkloadAllocator requires the workload latency family");
  return workload->gamma();
}

}  // namespace

model::Allocation WorkloadAllocator::allocate(
    const model::LatencyFamily& family, std::span<const double> types,
    double arrival_rate) const {
  std::vector<double> rates(types.size(), 0.0);
  workload_solve_into(types, family_gamma(family), arrival_rate, rates);
  return model::Allocation(std::move(rates));
}

void WorkloadAllocator::allocate_into(const model::LatencyFamily& family,
                                      std::span<const double> types,
                                      double arrival_rate,
                                      std::vector<double>& rates) const {
  rates.resize(types.size());
  workload_solve_into(types, family_gamma(family), arrival_rate, rates);
}

double WorkloadAllocator::optimal_latency(const model::LatencyFamily& family,
                                          std::span<const double> types,
                                          double arrival_rate) const {
  std::vector<double> scratch(types.size(), 0.0);
  return workload_solve_into(types, family_gamma(family), arrival_rate,
                             scratch)
      .optimal_latency;
}

void WorkloadAllocator::leave_one_out_into(const model::LatencyFamily& family,
                                           std::span<const double> types,
                                           double arrival_rate,
                                           std::vector<double>& out) const {
  const std::size_t n = types.size();
  LBMV_REQUIRE(n >= 2, "leave-one-out requires at least two computers");
  const double gamma = family_gamma(family);
  std::vector<double> rates(n, 0.0);
  const WorkloadSolve full =
      workload_solve_into(types, gamma, arrival_rate, rates);
  out.resize(n);
  std::vector<double> scratch;
  workload_leave_one_out_into(types, gamma, arrival_rate, full.lambda, out,
                              scratch);
}

}  // namespace lbmv::alloc
