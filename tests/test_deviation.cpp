// Differential tests for the O(1) single-deviation game engine: the
// closed-form DeviationEvaluator path must agree with the naive re-run
// path to 1e-9 (relative) for every shipped payment rule, across random
// profiles, boundary bids at the search-interval edges, execution
// multipliers > 1, and long committed-deviation sequences (which exercise
// the periodic S/W rebuild).  The generic fallback (no closed form) must
// keep working through Mechanism::run on the shared scratch buffer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/profile_context.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "support/generic_path.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::strategy::DeviationEvaluator;

std::vector<double> log_uniform_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

/// Random non-truthful profile: every agent's bid and execution perturbed.
BidProfile random_profile(const SystemConfig& config, lbmv::util::Rng& rng) {
  BidProfile profile = BidProfile::truthful(config);
  for (std::size_t i = 0; i < config.size(); ++i) {
    profile.bids[i] *= std::exp(rng.uniform(std::log(0.5), std::log(2.0)));
    profile.executions[i] *= rng.uniform(1.0, 2.5);
  }
  return profile;
}

/// All four closed-form mechanisms, index-addressable for parameterised
/// sweeps.
std::unique_ptr<Mechanism> make_mechanism(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<CompBonusMechanism>();
    case 1:
      return std::make_unique<CompBonusMechanism>(
          lbmv::core::default_allocator(), CompensationBasis::kBid);
    case 2:
      return std::make_unique<VcgMechanism>();
    default:
      return std::make_unique<NoPaymentMechanism>();
  }
}

void expect_rel_near(double actual, double expected, double rel_tol,
                     const char* what) {
  const double scale = std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, rel_tol * scale) << what;
}

class DeviationDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DeviationDifferential, IncrementalMatchesNaiveOnRandomDeviations) {
  const auto mechanism = make_mechanism(GetParam());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    lbmv::util::Rng rng(seed * 193);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const SystemConfig config(log_uniform_types(n, seed), rng.uniform(2.0, 50.0));
    const BidProfile profile = random_profile(config, rng);

    const DeviationEvaluator fast(*mechanism, config, profile);
    const DeviationEvaluator naive(*mechanism, config, profile,
                                   DeviationEvaluator::Mode::kNaive);
    ASSERT_TRUE(fast.incremental());
    ASSERT_FALSE(naive.incremental());

    for (int trial = 0; trial < 24; ++trial) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double t = config.true_value(i);
      const double bid =
          t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
      const double exec = t * rng.uniform(1.0, 3.0);
      expect_rel_near(fast.utility(i, bid, exec), naive.utility(i, bid, exec),
                      1e-9, mechanism->name().c_str());
    }
  }
}

TEST_P(DeviationDifferential, IncrementalMatchesNaiveAtBoundaryBids) {
  // The best-response scan hits the extreme ends of the bid interval and
  // execution multipliers well above 1; the closed form must stay accurate
  // exactly there, where S' is most distorted.
  const auto mechanism = make_mechanism(GetParam());
  const SystemConfig config(log_uniform_types(6, 17), 30.0);
  const BidProfile profile = BidProfile::truthful(config);
  const DeviationEvaluator fast(*mechanism, config, profile);
  const DeviationEvaluator naive(*mechanism, config, profile,
                                 DeviationEvaluator::Mode::kNaive);
  const double lo_mult = 0.05;
  const double hi_mult = 20.0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const double t = config.true_value(i);
    for (double bid_mult : {lo_mult, 1.0, hi_mult}) {
      for (double exec_mult : {1.0, 1.25, 2.0, 3.0}) {
        expect_rel_near(fast.utility(i, bid_mult * t, exec_mult * t),
                        naive.utility(i, bid_mult * t, exec_mult * t), 1e-9,
                        mechanism->name().c_str());
      }
    }
  }
}

TEST_P(DeviationDifferential, CommitSequenceStaysInAgreement) {
  // Hundreds of committed deviations at small n: the O(1) S/W deltas plus
  // the periodic rebuild must track the from-scratch state to 1e-9 at every
  // step, not just at the end.
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(4242);
  const SystemConfig config(log_uniform_types(5, 23), 18.0);
  DeviationEvaluator fast(*mechanism, config);
  DeviationEvaluator naive(*mechanism, config,
                           DeviationEvaluator::Mode::kNaive);
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.size()) - 1));
    const double t = config.true_value(i);
    const double bid = t * std::exp(rng.uniform(std::log(0.2), std::log(5.0)));
    const double exec = t * rng.uniform(1.0, 2.0);
    fast.commit(i, bid, exec);
    naive.commit(i, bid, exec);
    if (step % 20 == 0) {
      expect_rel_near(fast.actual_latency(), naive.actual_latency(), 1e-9,
                      "actual latency after commits");
      const auto probe = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(config.size()) - 1));
      expect_rel_near(fast.utility(probe, t, t), naive.utility(probe, t, t),
                      1e-9, "utility after commits");
    }
  }
  ASSERT_EQ(fast.profile().bids, naive.profile().bids);
  ASSERT_EQ(fast.profile().executions, naive.profile().executions);
}

TEST_P(DeviationDifferential, OutcomeIntoMatchesMechanismRun) {
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(77);
  const SystemConfig config(log_uniform_types(9, 31), 25.0);
  const BidProfile profile = random_profile(config, rng);
  const DeviationEvaluator evaluator(*mechanism, config, profile);
  ASSERT_TRUE(evaluator.incremental());

  MechanismOutcome closed;
  evaluator.outcome_into(closed);
  const MechanismOutcome reference = mechanism->run(config, profile);

  expect_rel_near(closed.actual_latency, reference.actual_latency, 1e-9,
                  "actual latency");
  expect_rel_near(closed.reported_latency, reference.reported_latency, 1e-9,
                  "reported latency");
  ASSERT_EQ(closed.agents.size(), reference.agents.size());
  for (std::size_t i = 0; i < closed.agents.size(); ++i) {
    expect_rel_near(closed.allocation[i], reference.allocation[i], 1e-12,
                    "allocation");
    expect_rel_near(closed.agents[i].compensation,
                    reference.agents[i].compensation, 1e-9, "compensation");
    expect_rel_near(closed.agents[i].bonus, reference.agents[i].bonus, 1e-9,
                    "bonus");
    expect_rel_near(closed.agents[i].payment, reference.agents[i].payment,
                    1e-9, "payment");
    expect_rel_near(closed.agents[i].valuation, reference.agents[i].valuation,
                    1e-9, "valuation");
    expect_rel_near(closed.agents[i].utility, reference.agents[i].utility,
                    1e-9, "utility");
  }
}

TEST_P(DeviationDifferential, UtilityAtCommittedProfileMatchesOutcome) {
  // utility(i, b_i, e_i) at the committed entries must equal the outcome's
  // per-agent utility — this identity is what makes the tournament's
  // truthful-counterfactual regret exactly zero.
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(91);
  const SystemConfig config(log_uniform_types(7, 41), 16.0);
  const BidProfile profile = random_profile(config, rng);
  const DeviationEvaluator evaluator(*mechanism, config, profile);
  MechanismOutcome outcome;
  evaluator.outcome_into(outcome);
  for (std::size_t i = 0; i < config.size(); ++i) {
    expect_rel_near(
        evaluator.utility(i, profile.bids[i], profile.executions[i]),
        outcome.agents[i].utility, 1e-9, "self-consistency");
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, DeviationDifferential,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Audit fast path unification: VCG and no-payment now share the closed-form
// context through the Mechanism base class.

TEST(ProfileContext, VcgAndNoPaymentGainAuditFastPaths) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const BidProfile profile = BidProfile::truthful(config);
  const VcgMechanism vcg;
  const NoPaymentMechanism none;
  EXPECT_NE(vcg.make_utility_context(config.family(), config.arrival_rate(),
                                     profile, 0),
            nullptr);
  EXPECT_NE(none.make_utility_context(config.family(), config.arrival_rate(),
                                      profile, 2),
            nullptr);
}

// ---------------------------------------------------------------------------
// Dispatch table: one classifier picks the engine — and with it the
// profile context — for every (family, allocator) pairing and mechanism.

TEST(Dispatch, ProfileContextFollowsTheRoundClassifier) {
  using lbmv::core::EngineKind;
  using lbmv::core::PaymentRule;
  namespace alloc = lbmv::alloc;
  namespace model = lbmv::model;
  const auto pr = std::make_shared<const alloc::PRAllocator>();
  const auto mm1 = std::make_shared<const alloc::MM1Allocator>();
  const auto workload = std::make_shared<const alloc::WorkloadAllocator>();
  const auto linear_family = std::make_shared<const model::LinearFamily>();
  const auto mm1_family = std::make_shared<const model::MM1Family>();
  const auto workload_family =
      std::make_shared<const model::WorkloadFamily>(0.5);
  const struct {
    const char* name;
    std::shared_ptr<const model::LatencyFamily> family;
    std::shared_ptr<const alloc::Allocator> allocator;
    EngineKind kind;
  } pairings[] = {
      {"linear+pr", linear_family, pr, EngineKind::kLinearPr},
      {"linear+convex", linear_family,
       std::make_shared<const alloc::ConvexAllocator>(), EngineKind::kGeneric},
      {"mm1+mm1", mm1_family, mm1, EngineKind::kMm1},
      {"mm1+pr", mm1_family, pr, EngineKind::kGeneric},
      {"workload+workload", workload_family, workload, EngineKind::kWorkload},
      {"seam(linear+pr)", linear_family, lbmv::testing::generic_path(pr),
       EngineKind::kGeneric},
      {"seam(mm1+mm1)", mm1_family, lbmv::testing::generic_path(mm1),
       EngineKind::kGeneric},
      {"seam(workload+workload)", workload_family,
       lbmv::testing::generic_path(workload), EngineKind::kGeneric},
  };
  // mu = 1/theta in [0.5, 1]: 0.4 jobs/s keeps every M/M/1 subsystem
  // feasible.
  const BidProfile base = BidProfile::truthful(
      SystemConfig({1.0, 1.25, 1.5, 2.0}, 0.4));
  for (const auto& p : pairings) {
    EXPECT_EQ(lbmv::core::classify_round(*p.family, *p.allocator), p.kind)
        << p.name;
    std::vector<std::unique_ptr<Mechanism>> mechanisms;
    mechanisms.push_back(std::make_unique<CompBonusMechanism>(p.allocator));
    mechanisms.push_back(std::make_unique<CompBonusMechanism>(
        p.allocator, CompensationBasis::kBid));
    mechanisms.push_back(std::make_unique<VcgMechanism>(p.allocator));
    mechanisms.push_back(
        std::make_unique<lbmv::core::ArcherTardosMechanism>(p.allocator));
    mechanisms.push_back(std::make_unique<NoPaymentMechanism>(p.allocator));
    const PaymentRule rules[] = {
        PaymentRule::kCompBonusExecution, PaymentRule::kCompBonusBid,
        PaymentRule::kVcg, PaymentRule::kArcherTardos, PaymentRule::kNoPayment};
    for (std::size_t k = 0; k < mechanisms.size(); ++k) {
      const Mechanism& m = *mechanisms[k];
      EXPECT_EQ(m.payment_rule(), rules[k]) << m.name();
      const auto context = m.make_profile_context(*p.family, 0.4, base);
      const std::string what = std::string(p.name) + " " + m.name();
      const bool tail = rules[k] == PaymentRule::kArcherTardos;
      switch (p.kind) {
        case EngineKind::kLinearPr:
          EXPECT_NE(dynamic_cast<const lbmv::core::LinearPrProfileContext*>(
                        context.get()),
                    nullptr)
              << what;
          break;
        case EngineKind::kMm1:
          if (tail) {
            EXPECT_EQ(context, nullptr) << what;
          } else {
            EXPECT_NE(dynamic_cast<const lbmv::core::Mm1PrProfileContext*>(
                          context.get()),
                      nullptr)
                << what;
          }
          break;
        case EngineKind::kWorkload:
          if (tail) {
            EXPECT_EQ(context, nullptr) << what;
          } else {
            EXPECT_NE(dynamic_cast<const lbmv::core::WorkloadProfileContext*>(
                          context.get()),
                      nullptr)
                << what;
          }
          break;
        case EngineKind::kGeneric:
          EXPECT_EQ(context, nullptr) << what;
          break;
      }
    }
  }
}

TEST(ProfileContext, AgentContextAgreesWithFullRuns) {
  lbmv::util::Rng rng(55);
  const SystemConfig config(log_uniform_types(6, 3), 21.0);
  const BidProfile base = random_profile(config, rng);
  for (int kind = 0; kind < 4; ++kind) {
    const auto mechanism = make_mechanism(kind);
    for (std::size_t agent = 0; agent < config.size(); ++agent) {
      const auto context = mechanism->make_utility_context(
          config.family(), config.arrival_rate(), base, agent);
      ASSERT_NE(context, nullptr) << mechanism->name();
      for (double bid_mult : {0.3, 1.0, 4.0}) {
        for (double exec_mult : {1.0, 1.7}) {
          BidProfile candidate = base;
          candidate.bids[agent] = bid_mult * config.true_value(agent);
          candidate.executions[agent] = exec_mult * config.true_value(agent);
          const double reference =
              mechanism->run(config, candidate).agents[agent].utility;
          expect_rel_near(context->utility(candidate.bids[agent],
                                           candidate.executions[agent]),
                          reference, 1e-9, mechanism->name().c_str());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Generic fallback path.

TEST(DeviationFallback, NonLinearFamilyUsesScratchRuns) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  const BidProfile profile = BidProfile::truthful(config);
  const DeviationEvaluator evaluator(mechanism, config, profile);
  EXPECT_FALSE(evaluator.incremental());

  // Reference: the old per-call profile copy.
  BidProfile candidate = profile;
  candidate.bids[1] = 0.3;
  candidate.executions[1] = 0.3;
  const double reference =
      mechanism.run(config, candidate).agents[1].utility;
  EXPECT_DOUBLE_EQ(evaluator.utility(1, 0.3, 0.3), reference);

  // The scratch buffer must be restored after the query: evaluating a
  // different agent right away sees the original entries for agent 1.
  EXPECT_EQ(evaluator.profile().bids, profile.bids);
  EXPECT_EQ(evaluator.profile().executions, profile.executions);
  const double untouched =
      mechanism.run(config, profile).agents[0].utility;
  EXPECT_DOUBLE_EQ(
      evaluator.utility(0, profile.bids[0], profile.executions[0]), untouched);
}

TEST(DeviationFallback, CommitsApplyToSubsequentQueries) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  DeviationEvaluator evaluator(mechanism, config);
  evaluator.commit(0, 0.24, 0.24);
  BidProfile expected = BidProfile::truthful(config);
  expected.bids[0] = 0.24;
  expected.executions[0] = 0.24;
  const double reference =
      mechanism.run(config, expected).agents[2].utility;
  EXPECT_DOUBLE_EQ(
      evaluator.utility(2, expected.bids[2], expected.executions[2]),
      reference);
  MechanismOutcome outcome;
  evaluator.outcome_into(outcome);
  EXPECT_DOUBLE_EQ(outcome.actual_latency,
                   mechanism.run(config, expected).actual_latency);
}

// ---------------------------------------------------------------------------
// Argument validation.

// Bids so small that the linear closed form cannot resolve them — at
// 1e-300 (R/S')^2 W' underflows to 0 against an overflowing W', at 1e-310
// 1/b itself overflows — must give a finite utility or the typed
// PreconditionError naming the agent, for every rule: never NaN.  The
// comp-bonus rules, whose utility reads that product, must refuse.
TEST(DeviationValidation, ExtremeBidsAreFiniteOrTyped) {
  const SystemConfig config({1.0, 2.0, 5.0}, 4.0);
  std::vector<std::unique_ptr<Mechanism>> mechanisms;
  for (int kind = 0; kind < 4; ++kind) {
    mechanisms.push_back(make_mechanism(kind));
  }
  mechanisms.push_back(std::make_unique<lbmv::core::ArcherTardosMechanism>());
  for (const auto& mechanism : mechanisms) {
    const DeviationEvaluator evaluator(*mechanism, config);
    ASSERT_TRUE(evaluator.incremental());
    for (const double tiny : {1e-300, 1e-310}) {
      const std::string what = mechanism->name() + " bid " +
                               std::to_string(std::log10(tiny));
      try {
        const double u = evaluator.utility(0, tiny, 1.0);
        EXPECT_TRUE(std::isfinite(u)) << what;
        EXPECT_NE(mechanism->payment_rule(),
                  lbmv::core::PaymentRule::kCompBonusExecution)
            << what;
      } catch (const lbmv::util::PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("agent 0"), std::string::npos)
            << what << ": " << e.what();
      }
    }
  }
}

TEST(DeviationValidation, RejectsBadConstructionAndQueries) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const CompBonusMechanism mechanism;
  BidProfile short_profile;
  short_profile.bids = {1.0, 2.0};
  short_profile.executions = {1.0, 2.0};
  EXPECT_THROW(DeviationEvaluator(mechanism, config, short_profile),
               lbmv::util::PreconditionError);

  DeviationEvaluator evaluator(mechanism, config);
  EXPECT_THROW((void)evaluator.utility(3, 1.0, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)evaluator.utility(0, -1.0, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)evaluator.utility(0, 1.0, 0.0),
               lbmv::util::PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)evaluator.utility(0, inf, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW(evaluator.commit(0, 1.0, inf),
               lbmv::util::PreconditionError);
  EXPECT_THROW(evaluator.commit(5, 1.0, 1.0),
               lbmv::util::PreconditionError);
}

TEST(DeviationValidation, ContextsRejectOutOfRangeAgentsTyped) {
  // Every ProfileUtilityContext entry point takes a caller's agent index:
  // out of range is a PreconditionError naming the index and the size, on
  // each of the three contexts.
  namespace alloc = lbmv::alloc;
  namespace model = lbmv::model;
  using lbmv::core::BidDelta;
  using lbmv::util::PreconditionError;
  const struct {
    const char* name;
    std::shared_ptr<const model::LatencyFamily> family;
    std::shared_ptr<const alloc::Allocator> allocator;
  } pairings[] = {
      {"linear+pr", std::make_shared<const model::LinearFamily>(),
       std::make_shared<const alloc::PRAllocator>()},
      {"mm1+mm1", std::make_shared<const model::MM1Family>(),
       std::make_shared<const alloc::MM1Allocator>()},
      {"workload+workload", std::make_shared<const model::WorkloadFamily>(0.5),
       std::make_shared<const alloc::WorkloadAllocator>()},
  };
  const std::vector<double> types{1.0, 1.25, 1.5};
  const BidProfile base = BidProfile::truthful(SystemConfig(types, 0.4));
  const std::vector<double> grid{0.9, 1.0, 1.1};
  std::vector<double> out(grid.size());
  for (const auto& p : pairings) {
    SCOPED_TRACE(p.name);
    const CompBonusMechanism mechanism(p.allocator);
    const auto context = mechanism.make_profile_context(*p.family, 0.4, base);
    ASSERT_NE(context, nullptr);
    try {
      (void)context->utility(7, 1.0, 1.0);
      ADD_FAILURE() << "utility accepted agent 7 of 3";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("agent index 7"), std::string::npos) << what;
      EXPECT_NE(what.find("3 agents"), std::string::npos) << what;
    }
    EXPECT_THROW((void)context->utility(3, 1.0, 1.0), PreconditionError);
    EXPECT_THROW(context->grid_utilities_into(7, grid, 1.0, out),
                 PreconditionError);
    EXPECT_THROW((void)context->grid_best(7, grid, 1.0), PreconditionError);
    EXPECT_THROW(context->commit(7, 1.0, 1.0), PreconditionError);
    // A batch with one bad delta is rejected whole.
    const std::vector<BidDelta> batch{{0, 1.1, 1.1}, {7, 1.0, 1.0}};
    EXPECT_THROW(context->commit_batch(batch), PreconditionError);
    EXPECT_EQ(context->profile().bids, base.bids);
    EXPECT_EQ(context->profile().executions, base.executions);
    // The deviation evaluator over the same family and allocator.
    DeviationEvaluator evaluator(mechanism,
                                 SystemConfig(types, 0.4, p.family), base);
    EXPECT_THROW((void)evaluator.utility(7, 1.0, 1.0), PreconditionError);
    EXPECT_THROW(evaluator.commit(7, 1.0, 1.0), PreconditionError);
  }
}

}  // namespace
