// Differential suite for the lane-parallel deviation-grid sweeps
// (core/grid_kernels.h, DeviationEvaluator::utilities_into / best_response,
// DESIGN.md §13).  The vectorized sweeps must agree with the scalar
// DeviationEvaluator oracle to 1e-9 (relative) — and, being the same
// template instantiated on four lanes, bit for bit — across all five
// closed-form payment rules, boundary bids at both edges of the search
// interval, every partial-block remainder (grid sizes 1..9),
// AND-accumulated validity-mask semantics, bids too extreme for the closed
// form (typed errors, never NaN), and first-index argmax tie-breaking.
// The whole file runs under both LBMV_SIMD=ON and =OFF CI legs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/profile_context.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/best_response.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/strategy/strategy.h"
#include "lbmv/strategy/tournament.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using lbmv::core::ArcherTardosMechanism;
using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::GridBest;
using lbmv::core::LinearPrProfileContext;
using lbmv::core::Mechanism;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::strategy::DeviationEvaluator;
using lbmv::strategy::GridSpacing;
using lbmv::strategy::make_bid_grid;
using lbmv::strategy::make_bid_grid_into;
using lbmv::util::PreconditionError;

constexpr int kMechanismKinds = 5;

/// All five closed-form payment rules, index-addressable.
std::unique_ptr<Mechanism> make_mechanism(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<CompBonusMechanism>();
    case 1:
      return std::make_unique<CompBonusMechanism>(
          lbmv::core::default_allocator(), CompensationBasis::kBid);
    case 2:
      return std::make_unique<VcgMechanism>();
    case 3:
      return std::make_unique<ArcherTardosMechanism>();
    default:
      return std::make_unique<NoPaymentMechanism>();
  }
}

std::vector<double> log_uniform_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

BidProfile random_profile(const SystemConfig& config, lbmv::util::Rng& rng) {
  BidProfile profile = BidProfile::truthful(config);
  for (std::size_t i = 0; i < config.size(); ++i) {
    profile.bids[i] *= std::exp(rng.uniform(std::log(0.5), std::log(2.0)));
    profile.executions[i] *= rng.uniform(1.0, 2.5);
  }
  return profile;
}

/// Whether the mechanism's closed form on \p profile is the linear-PR
/// context (the one whose grid overrides these tests exercise).
bool linear_closed_form(const Mechanism& mechanism, const SystemConfig& config,
                        const BidProfile& profile) {
  return dynamic_cast<const LinearPrProfileContext*>(
             mechanism
                 .make_profile_context(config.family(), config.arrival_rate(),
                                       profile)
                 .get()) != nullptr;
}

void expect_rel_near(double actual, double expected, double rel_tol,
                     const char* what) {
  const double scale = std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, rel_tol * scale) << what;
}

class GridKernelDifferential : public ::testing::TestWithParam<int> {};

// Vectorized utilities == scalar DeviationEvaluator, bitwise, on random
// profiles/grids of every remainder size 1..9 — and within 1e-9 of the
// naive full-mechanism oracle.
TEST_P(GridKernelDifferential, MatchesScalarOracleAcrossGridSizes) {
  const auto mechanism = make_mechanism(GetParam());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    lbmv::util::Rng rng(seed * 977);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const SystemConfig config(log_uniform_types(n, seed),
                              rng.uniform(2.0, 50.0));
    const BidProfile profile = random_profile(config, rng);
    const DeviationEvaluator fast(*mechanism, config, profile);
    const DeviationEvaluator naive(*mechanism, config, profile,
                                   DeviationEvaluator::Mode::kNaive);
    ASSERT_TRUE(linear_closed_form(*mechanism, config, profile))
        << mechanism->name();

    for (std::size_t size = 1; size <= 9; ++size) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double t = config.true_value(i);
      const double exec = t * rng.uniform(1.0, 3.0);
      std::vector<double> bids(size);
      for (double& b : bids) {
        b = t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
      }
      std::vector<double> out(size);
      fast.utilities_into(i, bids, exec, out);
      for (std::size_t k = 0; k < size; ++k) {
        // Bit-exact against the scalar closed form...
        EXPECT_EQ(out[k], fast.utility(i, bids[k], exec))
            << mechanism->name() << " size=" << size << " k=" << k;
        // ...and 1e-9-close to the naive full-mechanism run.
        expect_rel_near(out[k], naive.utility(i, bids[k], exec), 1e-9,
                        mechanism->name().c_str());
      }
    }
  }
}

// Boundary candidates at both edges of the sweep interval: bids far below
// and far above every other agent's, mixed into one grid.
TEST_P(GridKernelDifferential, BoundaryBidsMatchScalar) {
  const auto mechanism = make_mechanism(GetParam());
  const SystemConfig config(log_uniform_types(6, 11), 25.0);
  const DeviationEvaluator evaluator(*mechanism, config);
  ASSERT_TRUE(linear_closed_form(*mechanism, config,
                                 BidProfile::truthful(config)));

  for (std::size_t i = 0; i < config.size(); ++i) {
    const double t = config.true_value(i);
    const std::vector<double> bids = {1e-9 * t, 1e-4 * t, 0.05 * t, t,
                                      20.0 * t, 1e4 * t,  1e9 * t};
    std::vector<double> out(bids.size());
    evaluator.utilities_into(i, bids, t, out);
    for (std::size_t k = 0; k < bids.size(); ++k) {
      EXPECT_EQ(out[k], evaluator.utility(i, bids[k], t))
          << mechanism->name() << " agent=" << i << " k=" << k;
    }
  }
}

// The block argmax must reproduce a strictly-greater first-wins scalar scan
// — including on grids engineered to contain exact ties within and across
// 4-lane blocks.
TEST_P(GridKernelDifferential, ArgmaxMatchesFirstWinsScan) {
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(4242);
  const SystemConfig config(log_uniform_types(5, 3), 30.0);
  const DeviationEvaluator evaluator(*mechanism, config);

  for (int trial = 0; trial < 16; ++trial) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const double t = config.true_value(i);
    const double exec = t * rng.uniform(1.0, 2.0);
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> bids(size);
    for (double& b : bids) {
      b = t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
    }
    // Duplicate some candidates to force exact utility ties at distinct
    // indices (including across block boundaries).
    for (std::size_t k = 1; k < size; k += 3) {
      bids[k] = bids[rng.uniform_int(0, 1) != 0 ? 0 : k - 1];
    }

    const GridBest best = evaluator.best_response(i, bids, exec);
    std::size_t want_idx = 0;
    double want_u = evaluator.utility(i, bids[0], exec);
    for (std::size_t k = 1; k < size; ++k) {
      const double u = evaluator.utility(i, bids[k], exec);
      if (u > want_u) {
        want_u = u;
        want_idx = k;
      }
    }
    EXPECT_EQ(best.index, want_idx) << mechanism->name() << " size=" << size;
    EXPECT_EQ(best.utility, want_u) << mechanism->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, GridKernelDifferential,
                         ::testing::Range(0, kMechanismKinds));

// Non-positive / non-finite candidates trip the AND-accumulated validity
// mask and surface as the canonical typed PreconditionError; valid grids of
// the same shape sail through.
TEST(GridKernels, MaskSemanticsRejectInvalidCandidates) {
  const CompBonusMechanism mechanism;
  const SystemConfig config(log_uniform_types(4, 7), 20.0);
  const DeviationEvaluator evaluator(mechanism, config);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> bad = {
      {1.0, 2.0, 0.0, 3.0},        // zero inside a full block
      {1.0, 2.0, 3.0, 4.0, -1.0},  // negative in the padded tail
      {inf, 1.0},                  // +inf
      {1.0, nan, 2.0},             // NaN fails both ordered compares
  };
  std::vector<double> out(8);
  for (const auto& bids : bad) {
    EXPECT_THROW(evaluator.utilities_into(0, bids, 1.0, out),
                 PreconditionError);
    EXPECT_THROW((void)evaluator.best_response(0, bids, 1.0),
                 PreconditionError);
  }
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW((void)evaluator.best_response(0, two, 0.0),
               PreconditionError);
  EXPECT_THROW((void)evaluator.best_response(9, two, 1.0),
               PreconditionError);
  EXPECT_THROW((void)evaluator.best_response(0, {}, 1.0), PreconditionError);

  const std::vector<double> good = {0.5, 1.0, 2.0, 4.0, 8.0};
  EXPECT_NO_THROW(evaluator.utilities_into(0, good, 1.0, out));
}

// A candidate bid so small that the closed form's (R/S')^2 W' underflows
// against an overflowing W' (1e-300), or whose reciprocal overflows
// (1e-310), has no finite deviation utility.  Every rule must either
// return a finite utility — bit-identical between the scalar oracle and
// the lanes — or raise the typed PreconditionError naming the agent; never
// NaN, and never a candidate silently dropped from the argmax.
TEST_P(GridKernelDifferential, ExtremeBidsAreFiniteOrTyped) {
  const auto mechanism = make_mechanism(GetParam());
  const SystemConfig config({1.0, 2.0, 5.0}, 4.0);
  const DeviationEvaluator evaluator(*mechanism, config);
  for (const double tiny : {1e-300, 1e-310}) {
    bool scalar_threw = false;
    double scalar = 0.0;
    try {
      scalar = evaluator.utility(0, tiny, 1.0);
      EXPECT_TRUE(std::isfinite(scalar)) << mechanism->name() << " " << tiny;
    } catch (const PreconditionError& e) {
      scalar_threw = true;
      EXPECT_NE(std::string(e.what()).find("agent 0"), std::string::npos)
          << e.what();
    }
    // The extreme bid inside a full block, beside ordinary candidates.
    const std::vector<double> bids = {0.5, tiny, 1.0, 2.0, 4.0};
    std::vector<double> out(bids.size());
    if (scalar_threw) {
      EXPECT_THROW(evaluator.utilities_into(0, bids, 1.0, out),
                   PreconditionError)
          << mechanism->name();
      EXPECT_THROW((void)evaluator.best_response(0, bids, 1.0),
                   PreconditionError)
          << mechanism->name();
    } else {
      evaluator.utilities_into(0, bids, 1.0, out);
      EXPECT_EQ(out[1], scalar) << mechanism->name();
      const GridBest best = evaluator.best_response(0, bids, 1.0);
      EXPECT_TRUE(std::isfinite(best.utility));
    }
  }
}

TEST(GridKernels, LanesPaddedCountsTailLanes) {
  using lbmv::core::grid_lanes_padded;
  EXPECT_EQ(grid_lanes_padded(1), 3u);
  EXPECT_EQ(grid_lanes_padded(2), 2u);
  EXPECT_EQ(grid_lanes_padded(3), 1u);
  EXPECT_EQ(grid_lanes_padded(4), 0u);
  EXPECT_EQ(grid_lanes_padded(5), 3u);
  EXPECT_EQ(grid_lanes_padded(7), 1u);
  EXPECT_EQ(grid_lanes_padded(8), 0u);
  EXPECT_EQ(grid_lanes_padded(1000), 0u);
}

TEST(MakeBidGrid, LinearAndLogSpacingMatchLegacyExpressions) {
  const std::vector<double> lin = make_bid_grid(2.0, 10.0, 5);
  ASSERT_EQ(lin.size(), 5u);
  const double step = (10.0 - 2.0) / 4.0;
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(lin[k], 2.0 + step * static_cast<double>(k));
  }

  const std::vector<double> log =
      make_bid_grid(0.5, 8.0, 7, GridSpacing::kLog);
  ASSERT_EQ(log.size(), 7u);
  const double log_lo = std::log(0.5);
  const double log_hi = std::log(8.0);
  for (std::size_t k = 0; k < 7; ++k) {
    const double frac = static_cast<double>(k) / 6.0;
    EXPECT_EQ(log[k], std::exp(log_lo + frac * (log_hi - log_lo)));
  }

  // Reuse without reallocation.
  std::vector<double> buf;
  make_bid_grid_into(1.0, 2.0, 3, GridSpacing::kLinear, buf);
  EXPECT_EQ(buf.size(), 3u);
  make_bid_grid_into(1.0, 2.0, 2, GridSpacing::kLinear, buf);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(MakeBidGrid, RejectsDegenerateIntervals) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)make_bid_grid(0.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(-1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(2.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(1.0, inf, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(nan, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(1.0, 2.0, 1), PreconditionError);
}

// The evaluator's scalar fallback (no closed form) and its grid sweeps
// answer the same questions.
TEST(DeviationEvaluatorGrid, ScalarFallbackAgreesWithSweepsWithinTolerance) {
  const CompBonusMechanism mechanism;
  const SystemConfig config(log_uniform_types(6, 19), 22.0);
  const DeviationEvaluator fast(mechanism, config);
  const DeviationEvaluator naive(mechanism, config,
                                 DeviationEvaluator::Mode::kNaive);
  EXPECT_TRUE(fast.incremental());
  EXPECT_FALSE(naive.incremental());

  const double t = config.true_value(2);
  const std::vector<double> bids = make_bid_grid(0.05 * t, 20.0 * t, 37);
  std::vector<double> u_vec(bids.size());
  std::vector<double> u_scal(bids.size());
  fast.utilities_into(2, bids, t, u_vec);
  naive.utilities_into(2, bids, t, u_scal);
  for (std::size_t k = 0; k < bids.size(); ++k) {
    expect_rel_near(u_vec[k], u_scal[k], 1e-9, "evaluator fallback");
  }

  const GridBest bv = fast.best_response(2, bids, t);
  const GridBest bs = naive.best_response(2, bids, t);
  EXPECT_EQ(bv.index, bs.index);
  expect_rel_near(bv.utility, bs.utility, 1e-9, "evaluator best");
}

// Full-feedback learners see every arm's counterfactual each round, so a
// single learner against truthful opponents must lock onto the dominant
// truthful arm under the verified mechanism.
TEST(GridSweepClients, FullFeedbackLearningFindsTruthfulArm) {
  const CompBonusMechanism mechanism;
  const SystemConfig config(log_uniform_types(5, 47), 18.0);
  lbmv::strategy::LearningOptions options;
  options.rounds = 40;
  options.full_feedback = true;
  options.single_learner = 2;
  const auto result = lbmv::strategy::run_learning(mechanism, config, options);
  EXPECT_DOUBLE_EQ(result.final_bid_mult[2], 1.0);
  EXPECT_DOUBLE_EQ(result.final_exec_mult[2], 1.0);
  EXPECT_DOUBLE_EQ(result.truthful_fraction, 1.0);
}

// The tournament's best-response-gain probe: a truthful strategy under the
// truthful mechanism leaves (at most) grid-resolution crumbs on the table.
TEST(GridSweepClients, TournamentReportsNearZeroGainForTruthful) {
  const CompBonusMechanism mechanism;
  const lbmv::strategy::TruthfulStrategy truthful;
  lbmv::strategy::TournamentOptions options;
  options.instances = 12;
  options.agents = 5;
  options.parallel = false;
  const auto scores = lbmv::strategy::run_tournament(
      mechanism, {&truthful}, options);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_DOUBLE_EQ(scores[0].mean_regret, 0.0);
  EXPECT_LE(scores[0].mean_best_response_gain, 1e-9);

  const auto again = lbmv::strategy::run_tournament(
      mechanism, {&truthful}, options);
  EXPECT_EQ(scores[0].mean_best_response_gain,
            again[0].mean_best_response_gain);
}

}  // namespace
