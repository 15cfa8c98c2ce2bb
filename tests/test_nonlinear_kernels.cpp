// Differential and boundary suite for the fused nonlinear-family kernels
// (core/family_round.h, core/family_context.h, DESIGN.md §14).
//
// Contracts under test:
//   * Capacity boundaries surface as typed PreconditionErrors — infeasible
//     R >= sum mu, the near-saturation cancellation guard, leave-one-out
//     subsystems that cannot absorb the load (naming the offending agent),
//     and execution-side overload x_i >= mu~_i — identically on the fused
//     engine and on the generic path (the GenericPath seam).
//   * The workload-family Newton solve agrees with a long-double bisection
//     oracle on the KKT multiplier to 1e-9 relative.
//   * The workload leave-one-out Taylor model agrees with an exact
//     per-agent Newton oracle and a long-double bisection oracle to 1e-9,
//     falls back exactly where its error bound fails (tiny fleets, one
//     dominant agent), and is the one leave-one-out every path shares.
//   * Fused rounds agree with the generic virtual-dispatch path to 1e-9
//     relative across both families, every payment rule, and lane-tail
//     sizes.
//   * The M/M/1 deviation-grid kernels (GridEvaluator) are bit-identical to
//     the scalar DeviationEvaluator oracle at any thread count, and
//     audit_all grids are bit-identical parallel vs serial; both families
//     stay truthful-dominant under audit_all.
//
// The whole file runs under the ASan/UBSan and LBMV_SIMD=OFF CI legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/strategy/grid_eval.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"
#include "support/generic_path.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::MM1Family;
using lbmv::model::SystemConfig;
using lbmv::model::WorkloadFamily;
using lbmv::strategy::DeviationEvaluator;
using lbmv::strategy::GridEvaluator;
using lbmv::util::PreconditionError;

/// Mean service times with mu = 1/theta in [1, 2]: at arrival rates up to
/// roughly half the total capacity every computer stays active in the full
/// set and all leave-one-out subsystems, so the fused M/M/1 engine owns the
/// round (heterogeneous drop-out profiles take the generic path by design).
std::vector<double> narrow_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) ti = rng.uniform(0.5, 1.0);
  return t;
}

double sum_mu(std::span<const double> thetas) {
  double s = 0.0;
  for (double t : thetas) s += 1.0 / t;
  return s;
}

/// Half the capacity of the weakest leave-one-out subsystem: feasible (with
/// 2x slack) in the full set and every rest set, down to n = 2.
double feasible_rate(std::span<const double> thetas) {
  double max_mu = 0.0;
  for (double t : thetas) max_mu = std::max(max_mu, 1.0 / t);
  return 0.5 * (sum_mu(thetas) - max_mu);
}

/// Every mechanism the fused engines serve, bound to \p allocator.
std::vector<std::unique_ptr<Mechanism>> family_mechanisms(
    const std::shared_ptr<const lbmv::alloc::Allocator>& allocator) {
  std::vector<std::unique_ptr<Mechanism>> ms;
  ms.push_back(std::make_unique<CompBonusMechanism>(allocator));
  ms.push_back(
      std::make_unique<CompBonusMechanism>(allocator, CompensationBasis::kBid));
  ms.push_back(std::make_unique<VcgMechanism>(allocator));
  ms.push_back(std::make_unique<NoPaymentMechanism>(allocator));
  return ms;
}

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

double outcome_rel_err(const MechanismOutcome& a, const MechanismOutcome& b) {
  EXPECT_EQ(a.agents.size(), b.agents.size());
  double err = rel_err(a.actual_latency, b.actual_latency);
  err = std::max(err, rel_err(a.reported_latency, b.reported_latency));
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    err = std::max(err, rel_err(a.allocation[i], b.allocation[i]));
    err = std::max(err, rel_err(a.agents[i].compensation,
                                b.agents[i].compensation));
    err = std::max(err, rel_err(a.agents[i].bonus, b.agents[i].bonus));
    err = std::max(err, rel_err(a.agents[i].payment, b.agents[i].payment));
    err = std::max(err, rel_err(a.agents[i].utility, b.agents[i].utility));
  }
  return err;
}

// ---------------------------------------------------------------------------
// Capacity boundaries: typed PreconditionErrors on both paths.

/// The exact M/M/1 allocator, and the same allocator behind the seam.
std::vector<std::shared_ptr<const lbmv::alloc::Allocator>> mm1_paths() {
  const auto exact = std::make_shared<const lbmv::alloc::MM1Allocator>();
  return {exact, lbmv::testing::generic_path(exact)};
}

TEST(Mm1Boundary, InfeasibleArrivalRateThrowsTypedOnBothPaths) {
  const MM1Family family;
  const std::vector<double> thetas{0.5, 0.5, 1.0};  // sum mu = 5
  RoundWorkspace ws;
  MechanismOutcome out;
  for (const auto& allocator : mm1_paths()) {
    const CompBonusMechanism mechanism(allocator);
    for (double rate : {5.0, 7.5}) {  // R == sum mu and R > sum mu
      EXPECT_THROW(
          mechanism.run_into(family, rate, thetas, thetas, out, ws),
          PreconditionError)
          << allocator->name() << " rate " << rate;
    }
  }
}

TEST(Mm1Boundary, NearSaturationCancellationGuardThrowsTyped) {
  // R within 1e-9 of sum mu: the closed form would return only cancelled
  // digits, so the allocator refuses instead of returning noise.
  const std::vector<double> mus{2.0, 2.0, 1.0};
  std::vector<double> rates(mus.size());
  const double total = 5.0;
  EXPECT_THROW(
      (void)lbmv::alloc::mm1_solve_into(mus, total * (1.0 - 1e-12), rates),
      PreconditionError);
  // Just outside the guard the solve succeeds.
  EXPECT_NO_THROW(
      (void)lbmv::alloc::mm1_solve_into(mus, total * (1.0 - 1e-6), rates));
}

TEST(Mm1Boundary, LeaveOneOutOverloadNamesTheOffendingAgent) {
  // Removing the dominant computer 0 (mu = 10) leaves capacity 2 < R = 5:
  // the leave-one-out subsystem is infeasible and the error must say whose
  // departure caused it.
  const MM1Family family;
  const lbmv::alloc::MM1Allocator allocator;
  const std::vector<double> thetas{0.1, 1.0, 1.0};
  std::vector<double> loo;
  try {
    allocator.leave_one_out_into(family, thetas, 5.0, loo);
    FAIL() << "infeasible leave-one-out subsystem did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("without computer 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Mm1Boundary, ExecutionOverloadThrowsTypedOnBothPaths) {
  // Underbid-and-slack: computer 0 bids fast (mu = 10) but executes slow
  // (mu~ = 1).  Its assignment x_0 approaches the bid capacity from below —
  // far beyond the *actual* capacity, x_0 >= mu~_0 — so the actual-latency
  // pass must throw the typed domain error on both paths (the fused
  // engine declines such rounds; the generic path owns the diagnostic).
  const MM1Family family;
  const std::vector<double> bids{0.1, 0.5, 0.5};
  const std::vector<double> execs{1.0, 0.5, 0.5};
  RoundWorkspace ws;
  MechanismOutcome out;
  for (const auto& allocator : mm1_paths()) {
    const CompBonusMechanism mechanism(allocator);
    try {
      mechanism.run_into(family, 10.0, bids, execs, out, ws);
      FAIL() << "overloaded execution did not throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("0 <= x < mu"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Workload Newton vs long-double bisection oracle.

double bisection_max_rel_err(std::span<const double> thetas, double gamma,
                             double arrival_rate,
                             std::span<const double> newton_rates) {
  const long double g3 = 3.0L * static_cast<long double>(gamma);
  const auto rate_at = [&](long double lambda, double theta) {
    return (std::sqrt(1.0L + g3 * lambda / static_cast<long double>(theta)) -
            1.0L) /
           g3;
  };
  const auto residual = [&](long double lambda) {
    long double sum = 0.0L;
    for (double theta : thetas) sum += rate_at(lambda, theta);
    return sum - static_cast<long double>(arrival_rate);
  };
  long double inv_sum = 0.0L;
  for (double theta : thetas) inv_sum += 1.0L / theta;
  // x_i(lambda) <= lambda/(2 theta_i), so g(2R/S) <= 0: a valid lower
  // bracket (the same start the Newton solver uses).
  long double lo = 2.0L * static_cast<long double>(arrival_rate) / inv_sum;
  long double hi = lo > 0.0L ? 2.0L * lo : 1.0L;
  while (residual(hi) <= 0.0L) hi *= 2.0L;
  for (int it = 0; it < 200; ++it) {
    const long double mid = 0.5L * (lo + hi);
    (residual(mid) <= 0.0L ? lo : hi) = mid;
  }
  const long double lambda = 0.5L * (lo + hi);
  double max_err = 0.0;
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const long double oracle = rate_at(lambda, thetas[i]);
    max_err = std::max(
        max_err,
        static_cast<double>(
            std::fabs(static_cast<long double>(newton_rates[i]) - oracle) /
            std::fmax(1.0L, std::fabs(oracle))));
  }
  return max_err;
}

TEST(WorkloadNewton, MatchesLongDoubleBisectionOracle) {
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    for (double gamma : {0.1, 0.5, 2.0}) {
      const auto thetas = narrow_types(n, 31 * n + 7);
      for (double rate : {0.5, static_cast<double>(n), 10.0 * n}) {
        std::vector<double> rates(n);
        const lbmv::alloc::WorkloadSolve solve =
            lbmv::alloc::workload_solve_into(thetas, gamma, rate, rates);
        EXPECT_LE(solve.iterations, lbmv::alloc::kWorkloadNewtonMaxIters);
        EXPECT_LE(bisection_max_rel_err(thetas, gamma, rate, rates), 1e-9)
            << "n=" << n << " gamma=" << gamma << " R=" << rate;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workload leave-one-out: the O(n d) Taylor model vs exact oracles.

/// Test-only exact oracle: one warm-started Newton solve per rest set, the
/// O(n^2) loop the model replaces.
std::vector<double> exact_leave_one_out(std::span<const double> thetas,
                                        double gamma, double rate) {
  const std::size_t n = thetas.size();
  std::vector<double> rates(n);
  const double lambda =
      lbmv::alloc::workload_solve_into(thetas, gamma, rate, rates).lambda;
  std::vector<double> loo(n);
  std::vector<double> rest;
  std::vector<double> rest_rates(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    rest.assign(thetas.begin(), thetas.end());
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    loo[i] = lbmv::alloc::workload_solve_into(rest, gamma, rate, rest_rates,
                                              lambda)
                 .optimal_latency;
  }
  return loo;
}

/// Long-double bisection oracle for the optimal total latency of
/// \p thetas without agent \p skip.
double bisection_loo(std::span<const double> thetas, std::size_t skip,
                     double gamma, double arrival_rate) {
  const long double g = static_cast<long double>(gamma);
  const long double g3 = 3.0L * g;
  const auto rate_at = [&](long double lambda, double theta) {
    return (std::sqrt(1.0L + g3 * lambda / static_cast<long double>(theta)) -
            1.0L) /
           g3;
  };
  const auto residual = [&](long double lambda) {
    long double sum = 0.0L;
    for (std::size_t j = 0; j < thetas.size(); ++j) {
      if (j != skip) sum += rate_at(lambda, thetas[j]);
    }
    return sum - static_cast<long double>(arrival_rate);
  };
  long double inv_sum = 0.0L;
  for (std::size_t j = 0; j < thetas.size(); ++j) {
    if (j != skip) inv_sum += 1.0L / thetas[j];
  }
  long double lo = 2.0L * static_cast<long double>(arrival_rate) / inv_sum;
  long double hi = 2.0L * lo;
  while (residual(hi) <= 0.0L) hi *= 2.0L;
  for (int it = 0; it < 200; ++it) {
    const long double mid = 0.5L * (lo + hi);
    if (mid == lo || mid == hi) break;
    (residual(mid) <= 0.0L ? lo : hi) = mid;
  }
  const long double lambda = 0.5L * (lo + hi);
  long double cost = 0.0L;
  for (std::size_t j = 0; j < thetas.size(); ++j) {
    if (j == skip) continue;
    const long double x = rate_at(lambda, thetas[j]);
    cost += static_cast<long double>(thetas[j]) * x * x * (1.0L + g * x);
  }
  return static_cast<double>(cost);
}

/// Log-uniform types over [1, spread]; with \p dominant, agent n/2 is made
/// 1e4x faster than the fastest of the rest, so it carries most of the load.
std::vector<double> spread_types(std::size_t n, double spread, bool dominant,
                                 std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) ti = std::exp(rng.uniform(0.0, std::log(spread)));
  if (dominant) t[n / 2] = 1e-4;
  return t;
}

struct LooRun {
  std::vector<double> loo;
  lbmv::alloc::WorkloadLooStats stats;
};

LooRun model_leave_one_out(std::span<const double> thetas, double gamma,
                           double rate) {
  std::vector<double> rates(thetas.size());
  const double lambda =
      lbmv::alloc::workload_solve_into(thetas, gamma, rate, rates).lambda;
  LooRun run;
  run.loo.resize(thetas.size());
  std::vector<double> scratch;
  run.stats = lbmv::alloc::workload_leave_one_out_into(
      thetas, gamma, rate, lambda, run.loo, scratch);
  return run;
}

TEST(WorkloadLeaveOneOut, TaylorModelMatchesExactAndBisectionOracles) {
  const double gamma = 0.5;
  for (std::size_t n : {2u, 3u, 8u, 64u, 256u, 1024u}) {
    for (double spread : {10.0, 1e3, 1e6}) {
      for (double per_agent : {0.01, 1.0, 100.0}) {
        for (bool dominant : {false, true}) {
          const auto thetas = spread_types(n, spread, dominant, 11 * n + 3);
          const double rate = per_agent * static_cast<double>(n);
          const LooRun run = model_leave_one_out(thetas, gamma, rate);
          const auto exact = exact_leave_one_out(thetas, gamma, rate);
          // Bisection is O(n) per agent at ~64 long-double iterations: every
          // agent at small n, a stride plus the dominant agent above.
          const std::size_t stride = n <= 64 ? 1 : n / 16;
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_LE(rel_err(run.loo[i], exact[i]), 1e-9)
                << "exact n=" << n << " spread=" << spread
                << " R/n=" << per_agent << " dominant=" << dominant
                << " agent " << i;
            if (i % stride != 0 && !(dominant && i == n / 2)) continue;
            EXPECT_LE(rel_err(run.loo[i],
                              bisection_loo(thetas, i, gamma, rate)),
                      1e-9)
                << "bisection n=" << n << " spread=" << spread
                << " R/n=" << per_agent << " dominant=" << dominant
                << " agent " << i;
          }
          if (dominant) {
            // Removing the dominant agent moves the multiplier far outside
            // the model's reach: that agent must take the exact fallback.
            EXPECT_GE(run.stats.fallbacks, 1u) << "n=" << n;
          }
        }
      }
    }
  }
}

TEST(WorkloadLeaveOneOut, FallbackEngagesOnlyWhereTheBoundFails) {
  const double gamma = 0.5;
  // Tiny fleets: each departure shifts the multiplier by O(1), beyond what
  // a degree-8 model resolves to 1e-12.
  for (std::size_t n : {2u, 3u}) {
    const auto thetas = spread_types(n, 10.0, false, 5);
    const LooRun run =
        model_leave_one_out(thetas, gamma, static_cast<double>(n));
    EXPECT_GE(run.stats.fallbacks, 1u) << "n=" << n;
    EXPECT_GT(run.stats.newton_iters, 0u) << "n=" << n;
  }
  // Moderate spread at n >= 64: every departure is a small perturbation and
  // no agent needs the exact Newton.
  for (std::size_t n : {64u, 256u, 1024u}) {
    for (double per_agent : {0.01, 1.0, 100.0}) {
      const auto thetas = spread_types(n, 10.0, false, 7 * n);
      const LooRun run = model_leave_one_out(
          thetas, gamma, per_agent * static_cast<double>(n));
      EXPECT_EQ(run.stats.fallbacks, 0u) << "n=" << n << " R/n=" << per_agent;
      EXPECT_EQ(run.stats.newton_iters, 0u)
          << "n=" << n << " R/n=" << per_agent;
    }
  }
}

TEST(WorkloadLeaveOneOut, PlaneBitsArePinnedAcrossVectorBackends) {
  // The coefficient sums run in a fixed 4-lane order and every other step
  // is lane-wise IEEE arithmetic, so the plane's bits are the same under
  // AVX2 and the emulated backend (LBMV_SIMD=OFF).  Inputs avoid libm
  // transcendentals, so the pinned digest holds on every platform; it
  // changes only when the algorithm does.
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over the bits
  std::size_t fallbacks = 0;
  for (std::size_t n : {3u, 64u, 257u}) {
    for (bool dominant : {false, true}) {
      std::vector<double> thetas(n);
      for (std::size_t i = 0; i < n; ++i) {
        thetas[i] = 1.0 + static_cast<double>(i * 37 % 101) / 10.0;
      }
      if (dominant) thetas[n / 2] = 1e-4;
      const LooRun run =
          model_leave_one_out(thetas, 0.5, static_cast<double>(n));
      fallbacks += run.stats.fallbacks;
      for (double v : run.loo) {
        digest ^= std::bit_cast<std::uint64_t>(v);
        digest *= 1099511628211ull;
      }
    }
  }
  EXPECT_EQ(fallbacks, 6u);
  EXPECT_EQ(digest, 0xf3b0bd661037545aull);
}

TEST(WorkloadLeaveOneOut, AllocatorAndFusedRoundShareTheModel) {
  // One leave-one-out for the family: the allocator interface, the fused
  // round's bonus plane, and the direct call agree bit for bit.
  const WorkloadFamily family(0.5);
  const auto thetas = spread_types(256, 10.0, false, 41);
  const double rate = 256.0;
  const LooRun direct = model_leave_one_out(thetas, 0.5, rate);
  std::vector<double> via_allocator;
  lbmv::alloc::WorkloadAllocator().leave_one_out_into(family, thetas, rate,
                                                      via_allocator);
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::WorkloadAllocator>());
  RoundWorkspace ws;
  MechanismOutcome out;
  mechanism.run_into(family, rate, thetas, thetas, out, ws);
  ASSERT_EQ(ws.leave_one_out.size(), thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    EXPECT_EQ(via_allocator[i], direct.loo[i]) << "agent " << i;
    EXPECT_EQ(ws.leave_one_out[i], direct.loo[i]) << "agent " << i;
  }
}

// ---------------------------------------------------------------------------
// Fused vs generic differential across rules, families, and lane tails.

TEST(FusedDifferential, Mm1FusedRoundsMatchGenericPath) {
  const MM1Family family;
  const auto allocator = std::make_shared<const lbmv::alloc::MM1Allocator>();
  const auto engines = family_mechanisms(allocator);
  const auto generics =
      family_mechanisms(lbmv::testing::generic_path(allocator));
  RoundWorkspace ws;
  MechanismOutcome fused;
  MechanismOutcome generic;
  for (std::size_t n : {2u, 5u, 64u, 257u}) {  // covers every lane tail
    const auto thetas = narrow_types(n, 17 * n + 1);
    auto execs = thetas;
    for (double& e : execs) e *= 1.05;
    const double rate = feasible_rate(thetas);
    for (std::size_t k = 0; k < engines.size(); ++k) {
      generics[k]->run_into(family, rate, thetas, execs, generic, ws);
      engines[k]->run_into(family, rate, thetas, execs, fused, ws);
      EXPECT_LE(outcome_rel_err(fused, generic), 1e-9)
          << engines[k]->name() << " n=" << n;
    }
  }
}

TEST(FusedDifferential, WorkloadFusedRoundsMatchGenericPath) {
  const WorkloadFamily family(0.5);
  const auto allocator =
      std::make_shared<const lbmv::alloc::WorkloadAllocator>();
  const auto engines = family_mechanisms(allocator);
  const auto generics =
      family_mechanisms(lbmv::testing::generic_path(allocator));
  RoundWorkspace ws;
  MechanismOutcome fused;
  MechanismOutcome generic;
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    const auto thetas = narrow_types(n, 23 * n + 5);
    auto execs = thetas;
    for (double& e : execs) e *= 1.4;
    const double rate = static_cast<double>(n);
    for (std::size_t k = 0; k < engines.size(); ++k) {
      generics[k]->run_into(family, rate, thetas, execs, generic, ws);
      engines[k]->run_into(family, rate, thetas, execs, fused, ws);
      EXPECT_LE(outcome_rel_err(fused, generic), 1e-9)
          << engines[k]->name() << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// M/M/1 grid kernels: bit-identical to the scalar oracle at any thread
// count.

TEST(Mm1Grid, GridEvaluatorBitIdenticalToScalarOracle) {
  const std::size_t n = 9;
  const double rate = 0.4 * sum_mu(narrow_types(n, 3));
  const SystemConfig config(narrow_types(n, 3), rate,
                            std::make_shared<const MM1Family>());
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const DeviationEvaluator evaluator(mechanism, config);
  ASSERT_TRUE(evaluator.incremental());
  ASSERT_NE(dynamic_cast<const lbmv::core::Mm1PrProfileContext*>(
                evaluator.profile_context()),
            nullptr);

  for (std::size_t threads : {1u, 2u, 8u}) {
    lbmv::util::ThreadPool pool(threads);
    const GridEvaluator grid_eval(evaluator, &pool);
    EXPECT_TRUE(grid_eval.vectorized());
    for (std::size_t agent = 0; agent < n; ++agent) {
      const double truth = config.true_value(agent);
      // Wide grid: interior candidates ride the all-active fast path while
      // very slow bids (8x truth) drop the deviator out of the active set
      // and defer whole lane blocks to the scalar oracle — both must match
      // bit for bit.  The fast edge stays at 0.9x truth: faster bids win an
      // assignment beyond the agent's true capacity, where the domain
      // REQUIRE fires (covered by Mm1Boundary).  Sizes off the lane
      // multiple cover tail padding.
      for (std::size_t points : {2u, 6u, 103u}) {
        const std::vector<double> bids = lbmv::strategy::make_bid_grid(
            0.9 * truth, 8.0 * truth, points,
            lbmv::strategy::GridSpacing::kLinear);
        std::vector<double> fast(points);
        grid_eval.utilities_into(agent, bids, truth, fast);
        double best_u = evaluator.utility(agent, bids[0], truth);
        std::size_t best_k = 0;
        for (std::size_t k = 0; k < points; ++k) {
          const double oracle = evaluator.utility(agent, bids[k], truth);
          EXPECT_EQ(fast[k], oracle)  // bit-identical, not just close
              << "agent " << agent << " candidate " << k;
          if (oracle > best_u) {
            best_u = oracle;
            best_k = k;
          }
        }
        const GridEvaluator::Best best =
            grid_eval.best_response(agent, bids, truth);
        EXPECT_EQ(best.index, best_k);
        EXPECT_EQ(best.utility, best_u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// audit_all: both families truthful-dominant, grids bit-identical parallel
// vs serial.

TEST(FamilyAudit, Mm1AuditAllTruthfulDominantAndThreadInvariant) {
  const SystemConfig config({0.1, 0.1, 0.2, 0.5, 0.5}, 12.0,
                            std::make_shared<const MM1Family>());
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions serial;
  serial.bid_multipliers = {0.85, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0};
  serial.exec_multipliers = {1.0, 1.1, 1.2};
  serial.parallel = false;
  serial.keep_grid = true;
  lbmv::core::AuditOptions parallel = serial;
  parallel.parallel = true;

  const auto serial_reports = auditor.audit_all(config, serial);
  const auto parallel_reports = auditor.audit_all(config, parallel);
  ASSERT_EQ(serial_reports.size(), config.size());
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_TRUE(serial_reports[i].truthful_dominant(1e-6))
        << "agent " << i << " gains " << serial_reports[i].max_gain;
    ASSERT_EQ(serial_reports[i].grid.size(), parallel_reports[i].grid.size());
    for (std::size_t k = 0; k < serial_reports[i].grid.size(); ++k) {
      EXPECT_EQ(serial_reports[i].grid[k].utility,
                parallel_reports[i].grid[k].utility)
          << "agent " << i << " grid point " << k;
    }
  }
}

TEST(FamilyAudit, WorkloadModelAuditBitIdenticalAcrossThreadCounts) {
  // n = 64 at moderate spread: every leave-one-out optimum comes off the
  // Taylor model (no fallbacks), and the audit reports must not depend on
  // how the agents are spread over 1, 2 or 8 worker threads.
  const auto types = spread_types(64, 10.0, false, 77);
  const SystemConfig config(types, 64.0,
                            std::make_shared<const WorkloadFamily>(0.5));
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::WorkloadAllocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.bid_multipliers = {0.8, 1.0, 1.25};
  options.exec_multipliers = {1.0, 1.5};
  options.parallel = false;
  options.keep_grid = true;
  const auto serial = auditor.audit_all(config, options);
  for (std::size_t threads : {1u, 2u, 8u}) {
    lbmv::util::ThreadPool pool(threads);
    std::vector<lbmv::core::AuditReport> reports(config.size());
    pool.parallel_for(0, config.size(), [&](std::size_t i) {
      reports[i] = auditor.audit_agent(config, i, options);
    });
    for (std::size_t i = 0; i < config.size(); ++i) {
      EXPECT_EQ(reports[i].truthful_utility, serial[i].truthful_utility)
          << threads << " threads, agent " << i;
      ASSERT_EQ(reports[i].grid.size(), serial[i].grid.size());
      for (std::size_t k = 0; k < serial[i].grid.size(); ++k) {
        EXPECT_EQ(reports[i].grid[k].utility, serial[i].grid[k].utility)
            << threads << " threads, agent " << i << " grid point " << k;
      }
    }
  }
}

TEST(FamilyAudit, WorkloadAuditAllTruthfulDominantAndThreadInvariant) {
  const SystemConfig config({0.2, 0.3, 0.5, 0.8}, 6.0,
                            std::make_shared<const WorkloadFamily>(0.5));
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::WorkloadAllocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions serial;
  serial.bid_multipliers = {0.5, 0.8, 1.0, 1.3, 2.0};
  serial.exec_multipliers = {1.0, 1.5};
  serial.parallel = false;
  serial.keep_grid = true;
  lbmv::core::AuditOptions parallel = serial;
  parallel.parallel = true;

  const auto serial_reports = auditor.audit_all(config, serial);
  const auto parallel_reports = auditor.audit_all(config, parallel);
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_TRUE(serial_reports[i].truthful_dominant(1e-6))
        << "agent " << i << " gains " << serial_reports[i].max_gain;
    for (std::size_t k = 0; k < serial_reports[i].grid.size(); ++k) {
      EXPECT_EQ(serial_reports[i].grid[k].utility,
                parallel_reports[i].grid[k].utility)
          << "agent " << i << " grid point " << k;
    }
  }
}

}  // namespace
