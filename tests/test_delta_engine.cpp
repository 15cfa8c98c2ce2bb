// Suite for the cached cross-round engine (DESIGN.md §15): its outcome is
// bit-identical to Mechanism::run_into at the synced planes, an unchanged
// sync re-runs nothing, every round entry rejects non-positive and
// non-finite inputs with a typed error, and the loops wired onto the engine
// (epochs, protocol, learning) reproduce the full-round trajectories
// bit-for-bit at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"
#include "support/generic_path.h"

namespace {

using lbmv::core::BidDelta;
using lbmv::core::DeltaRoundEngine;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::model::LatencyFamily;
using lbmv::util::PreconditionError;

/// One (mechanism, family, feasible arrival rate) test case.
struct Case {
  std::string name;
  std::shared_ptr<const Mechanism> mechanism;
  std::shared_ptr<const LatencyFamily> family;
  double arrival_rate;
};

std::vector<double> band_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) ti = 0.8 + 0.5 * rng.uniform();
  return t;
}

lbmv::model::BidProfile profile(std::vector<double> bids,
                                std::vector<double> executions) {
  return {std::move(bids), std::move(executions)};
}

/// Expect \p fn to raise a PreconditionError whose what() contains
/// \p message.  LBMV_REQUIRE decorates what() with the failed expression
/// and source location; the diagnostic text itself must survive verbatim.
template <class Fn>
void expect_throw(Fn&& fn, const std::string& message,
                  const std::string& context = "") {
  try {
    fn();
    ADD_FAILURE() << "expected PreconditionError: " << message << " "
                  << context;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << context << ": " << e.what();
  }
}

/// Every mechanism on every family it supports.  Arrival rates keep every
/// profile this suite perturbs (bids x [0.8, 1.2], executions x [1, 1.05])
/// feasible: M/M/1 stays under half capacity, linear/workload are
/// unconstrained.  \p generic puts every allocator behind the GenericPath
/// seam, so the same cases run on the generic reference path.
std::vector<Case> all_cases(std::size_t n, std::uint64_t seed,
                            bool generic = false) {
  using lbmv::core::CompBonusMechanism;
  using lbmv::core::CompensationBasis;
  const auto types = band_types(n, seed);
  double sum_mu = 0.0;
  for (double t : types) sum_mu += 1.0 / t;
  const double mm1_rate = 0.4 * sum_mu;
  const double linear_rate = 20.0;
  const double workload_rate = static_cast<double>(n);

  const auto linear = std::make_shared<const lbmv::model::LinearFamily>();
  const auto mm1 = std::make_shared<const lbmv::model::MM1Family>();
  const auto workload =
      std::make_shared<const lbmv::model::WorkloadFamily>(0.5);
  const auto on_path =
      [generic](std::shared_ptr<const lbmv::alloc::Allocator> a) {
        return generic ? lbmv::testing::generic_path(std::move(a)) : a;
      };
  const auto pr = on_path(std::make_shared<const lbmv::alloc::PRAllocator>());
  const auto mm1_alloc =
      on_path(std::make_shared<const lbmv::alloc::MM1Allocator>());
  const auto workload_alloc =
      on_path(std::make_shared<const lbmv::alloc::WorkloadAllocator>());

  std::vector<Case> cases;
  const auto add = [&](std::string name,
                       std::shared_ptr<const Mechanism> mech,
                       std::shared_ptr<const LatencyFamily> fam,
                       double rate) {
    cases.push_back({std::move(name), std::move(mech), std::move(fam), rate});
  };
  add("comp_bonus_exec/linear",
      std::make_shared<const CompBonusMechanism>(pr,
                                                 CompensationBasis::kExecution),
      linear, linear_rate);
  add("comp_bonus_bid/linear",
      std::make_shared<const CompBonusMechanism>(pr, CompensationBasis::kBid),
      linear, linear_rate);
  add("vcg/linear", std::make_shared<const lbmv::core::VcgMechanism>(pr),
      linear, linear_rate);
  add("no_payment/linear",
      std::make_shared<const lbmv::core::NoPaymentMechanism>(pr), linear,
      linear_rate);
  add("archer_tardos/linear",
      std::make_shared<const lbmv::core::ArcherTardosMechanism>(pr), linear,
      linear_rate);
  add("comp_bonus_exec/mm1",
      std::make_shared<const CompBonusMechanism>(mm1_alloc,
                                                 CompensationBasis::kExecution),
      mm1, mm1_rate);
  add("comp_bonus_bid/mm1",
      std::make_shared<const CompBonusMechanism>(mm1_alloc,
                                                 CompensationBasis::kBid),
      mm1, mm1_rate);
  add("vcg/mm1", std::make_shared<const lbmv::core::VcgMechanism>(mm1_alloc),
      mm1, mm1_rate);
  add("no_payment/mm1",
      std::make_shared<const lbmv::core::NoPaymentMechanism>(mm1_alloc), mm1,
      mm1_rate);
  add("comp_bonus_exec/workload",
      std::make_shared<const CompBonusMechanism>(workload_alloc,
                                                 CompensationBasis::kExecution),
      workload, workload_rate);
  add("vcg/workload",
      std::make_shared<const lbmv::core::VcgMechanism>(workload_alloc),
      workload, workload_rate);
  add("no_payment/workload",
      std::make_shared<const lbmv::core::NoPaymentMechanism>(workload_alloc),
      workload, workload_rate);
  return cases;
}

TEST(Outcome, MaterializationIsBitIdenticalToRunInto) {
  const std::size_t n = 32;
  for (const Case& c : all_cases(n, 47)) {
    const auto types = band_types(n, 47);
    DeltaRoundEngine engine(*c.mechanism, c.family, c.arrival_rate,
                            profile(types, types));
    auto bids = types;
    auto executions = types;
    bids[3] *= 1.1;
    executions[3] *= 1.12;
    bids[n - 1] *= 0.9;
    executions[n - 1] *= 0.93;
    engine.sync(bids, executions);

    lbmv::core::RoundWorkspace ws;
    MechanismOutcome expected;
    c.mechanism->run_into(*c.family, c.arrival_rate, bids, executions,
                          expected, ws);
    const MechanismOutcome& actual = engine.outcome();
    ASSERT_EQ(actual.agents.size(), expected.agents.size()) << c.name;
    EXPECT_EQ(actual.actual_latency, expected.actual_latency) << c.name;
    EXPECT_EQ(actual.reported_latency, expected.reported_latency) << c.name;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(actual.agents[i].allocation, expected.agents[i].allocation)
          << c.name << " agent " << i;
      EXPECT_EQ(actual.agents[i].payment, expected.agents[i].payment)
          << c.name << " agent " << i;
      EXPECT_EQ(actual.agents[i].utility, expected.agents[i].utility)
          << c.name << " agent " << i;
    }
  }
}

TEST(Sync, QuiescentRoundsReuseTheCachedOutcome) {
  if (!lbmv::obs::kCompiledIn) {
    GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)";
  }
  const std::size_t n = 12;
  const auto types = band_types(n, 53);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(types, 20.0);
  const auto mech_rounds = [] {
    const auto snap = lbmv::obs::Registry::global().snapshot();
    const auto it = snap.counters.find("lbmv_mech_rounds_total");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };

  lbmv::obs::set_enabled(true);
  DeltaRoundEngine engine(mechanism, config.family_ptr(), 20.0,
                          profile(types, types));
  (void)engine.outcome();
  const std::uint64_t before = mech_rounds();

  // Unchanged planes: the cached outcome is served, no round runs.
  engine.sync(types, types);
  (void)engine.outcome();
  const std::uint64_t quiescent = mech_rounds();

  // Two changed entries: exactly one round.
  auto moved = types;
  moved[2] *= 1.2;
  moved[9] *= 0.85;
  engine.sync(moved, types);
  const MechanismOutcome& outcome = engine.outcome();
  const std::uint64_t changed = mech_rounds();
  lbmv::obs::set_enabled(false);

  EXPECT_EQ(quiescent, before);
  EXPECT_EQ(changed, before + 1);
  MechanismOutcome expected;
  lbmv::core::RoundWorkspace ws;
  mechanism.run_into(config.family(), 20.0, moved, types, expected, ws);
  EXPECT_EQ(outcome.actual_latency, expected.actual_latency);
}

TEST(Errors, DiagnosticsArePreservedBitForBit) {
  const auto types = band_types(8, 59);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(types, 20.0);
  const auto family = config.family_ptr();

  expect_throw(
      [&] {
        DeltaRoundEngine engine(mechanism, family, 20.0,
                                profile({1.0}, {1.0}));
      },
      "mechanisms require at least two agents");
  expect_throw(
      [&] {
        DeltaRoundEngine engine(mechanism, family, 20.0,
                                profile(types, {1.0, 2.0}));
      },
      "execution vector size mismatch");
  expect_throw(
      [&] {
        DeltaRoundEngine engine(mechanism, family, 0.0, profile(types, types));
      },
      "arrival rate must be positive");
  expect_throw(
      [&] {
        auto bad = types;
        bad[3] = -1.0;
        DeltaRoundEngine engine(mechanism, family, 20.0, profile(bad, types));
      },
      "bids must be positive");

  DeltaRoundEngine engine(mechanism, family, 20.0, profile(types, types));
  const std::vector<double> pair{1.0, 2.0};
  expect_throw([&] { engine.sync(pair, pair); },
               "sync requires an unchanged agent count");
  expect_throw([&] { engine.sync(types, pair); },
               "execution vector size mismatch");
  auto bad = types;
  bad[0] = 0.0;
  expect_throw(
      [&] {
        engine.sync(bad, types);
        (void)engine.outcome();
      },
      "bids must be positive");
  bad[0] = -2.0;
  expect_throw(
      [&] {
        engine.sync(types, bad);
        (void)engine.outcome();
      },
      "execution values must be positive");
}

TEST(Errors, InfiniteInputsRaiseTypedErrors) {
  // +inf passes a bare "> 0" test; every round entry must reject it on
  // every family, on the exact engines and on the generic path, directly,
  // through the cached engine, and through the profile contexts and grid
  // kernels.  n = 13 puts agent 2 in a vector lane and agent 12 in the
  // scalar tail of the blocked kernels.
  const std::size_t n = 13;
  const double inf = std::numeric_limits<double>::infinity();
  const std::string rate_message = "arrival rate must be positive and finite";
  for (const bool generic : {false, true}) {
    for (const Case& c : all_cases(n, 89, generic)) {
      const auto types = band_types(n, 89);
      const std::string path = c.name + (generic ? " generic" : " exact");
      MechanismOutcome out;
      lbmv::core::RoundWorkspace ws;
      expect_throw(
          [&] {
            c.mechanism->run_into(*c.family, inf, types, types, out, ws);
          },
          rate_message, path + " rate");
      expect_throw(
          [&] {
            DeltaRoundEngine engine(*c.mechanism, c.family, inf,
                                    profile(types, types));
          },
          rate_message, path + " rate");
      const auto context = c.mechanism->make_profile_context(
          *c.family, c.arrival_rate, profile(types, types));
      EXPECT_EQ(context == nullptr, generic) << path;
      for (const std::size_t agent : {std::size_t{2}, n - 1}) {
        for (const bool on_bid : {true, false}) {
          auto bids = types;
          auto executions = types;
          (on_bid ? bids : executions)[agent] = inf;
          const std::string what = path + (on_bid ? " bid " : " execution ") +
                                   std::to_string(agent);
          const std::string message =
              on_bid ? "bids must be positive and finite"
                     : "execution values must be positive and finite";
          expect_throw(
              [&] {
                c.mechanism->run_into(*c.family, c.arrival_rate, bids,
                                      executions, out, ws);
              },
              message, what);
          expect_throw(
              [&] {
                DeltaRoundEngine engine(*c.mechanism, c.family,
                                        c.arrival_rate,
                                        profile(bids, executions));
              },
              message, what);
          DeltaRoundEngine engine(*c.mechanism, c.family, c.arrival_rate,
                                  profile(types, types));
          engine.sync(bids, executions);
          expect_throw([&] { (void)engine.outcome(); }, message, what);
          if (context == nullptr) continue;
          const double bid = bids[agent];
          const double execution = executions[agent];
          expect_throw(
              [&] { (void)context->utility(agent, bid, execution); }, message,
              what + " utility");
          expect_throw([&] { context->commit(agent, bid, execution); },
                       message, what + " commit");
          const BidDelta delta{agent, bid, execution};
          expect_throw([&] { context->commit_batch({&delta, 1}); }, message,
                       what + " commit_batch");
          EXPECT_TRUE(std::isfinite(context->actual_latency())) << what;
        }
        const std::vector<double> grid{0.9, 1.0, 1.1};
        std::vector<double> plane(grid.size());
        const std::string exec_message =
            "execution values must be positive and finite";
        if (context != nullptr) {
          expect_throw(
              [&] { context->grid_utilities_into(agent, grid, inf, plane); },
              exec_message, path + " grid");
          expect_throw(
              [&] { (void)context->grid_best(agent, grid, inf); },
              exec_message, path + " grid best");
        }
      }
    }
  }
}

TEST(CommitBatch, MatchesSequentialCommitsBitForBit) {
  const std::size_t n = 20;
  for (const Case& c : all_cases(n, 61)) {
    const auto types = band_types(n, 61);
    const lbmv::model::SystemConfig config(types, c.arrival_rate, c.family);
    lbmv::strategy::DeviationEvaluator sequential(*c.mechanism, config);
    lbmv::strategy::DeviationEvaluator batched(*c.mechanism, config);

    lbmv::util::Rng rng(67);
    for (int round = 0; round < 5; ++round) {
      std::vector<BidDelta> deltas;
      for (std::size_t i = 0; i < n; i += 3) {
        const double bid = types[i] * (0.8 + 0.4 * rng.uniform());
        deltas.push_back({i, bid, bid * (1.0 + 0.05 * rng.uniform())});
      }
      for (const BidDelta& d : deltas) {
        sequential.commit(d.agent, d.bid, d.execution);
      }
      batched.commit_batch(deltas);

      MechanismOutcome a;
      MechanismOutcome b;
      sequential.outcome_into(a);
      batched.outcome_into(b);
      ASSERT_EQ(a.agents.size(), b.agents.size()) << c.name;
      EXPECT_EQ(a.actual_latency, b.actual_latency) << c.name;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(a.agents[i].allocation, b.agents[i].allocation) << c.name;
        EXPECT_EQ(a.agents[i].payment, b.agents[i].payment) << c.name;
        EXPECT_EQ(a.agents[i].utility, b.agents[i].utility) << c.name;
      }
    }
  }
}

TEST(Epochs, TrajectoryIsBitIdenticalToTheFullRoundPath) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(10, 71), 20.0);
  lbmv::sim::EpochOptions options;
  options.epochs = 40;
  options.bid_lags = {0, 1, 2, 0, 3, 0, 1, 0, 2, 0};

  const lbmv::sim::EpochReport report =
      lbmv::sim::run_epochs(mechanism, config, options);
  ASSERT_EQ(report.records.size(), 40u);

  // Replay every epoch through the full-round path: bids are the lagged
  // true values (initial values before epoch 0), executions the current
  // ones — exactly what the engine-backed loop committed.
  lbmv::core::RoundWorkspace ws;
  for (std::size_t e = 0; e < report.records.size(); ++e) {
    lbmv::model::BidProfile profile;
    const std::size_t n = config.size();
    profile.bids.resize(n);
    profile.executions.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto lag = static_cast<std::size_t>(options.bid_lags[i]);
      profile.bids[i] = e >= lag
                            ? report.records[e - lag].true_values[i]
                            : config.true_values()[i];
      profile.executions[i] = report.records[e].true_values[i];
    }
    const lbmv::model::SystemConfig epoch_config(
        report.records[e].true_values, config.arrival_rate(),
        config.family_ptr());
    MechanismOutcome expected;
    mechanism.run_into(epoch_config, profile, expected, ws);
    const MechanismOutcome& actual = report.records[e].outcome;
    EXPECT_EQ(actual.actual_latency, expected.actual_latency) << "epoch " << e;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(actual.agents[i].utility, expected.agents[i].utility)
          << "epoch " << e << " agent " << i;
      EXPECT_EQ(actual.agents[i].payment, expected.agents[i].payment)
          << "epoch " << e << " agent " << i;
    }
  }
}

TEST(Epochs, ReplicatedRunsAreThreadCountInvariant) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(8, 73), 20.0);
  lbmv::sim::EpochOptions options;
  options.epochs = 15;

  lbmv::sim::ReplicationOptions replication;
  replication.replications = 6;
  const auto run_with = [&](std::size_t threads) {
    lbmv::util::ThreadPool pool(threads);
    lbmv::sim::ReplicationOptions opts = replication;
    opts.pool = &pool;
    return lbmv::sim::run_epochs_replicated(mechanism, config, options, opts);
  };
  const auto one = run_with(1);
  const auto two = run_with(2);
  const auto eight = run_with(8);
  ASSERT_EQ(one.runs.size(), 6u);
  for (std::size_t r = 0; r < one.runs.size(); ++r) {
    EXPECT_EQ(one.runs[r].mean_efficiency, two.runs[r].mean_efficiency);
    EXPECT_EQ(one.runs[r].mean_efficiency, eight.runs[r].mean_efficiency);
    for (std::size_t e = 0; e < one.runs[r].records.size(); ++e) {
      EXPECT_EQ(one.runs[r].records[e].outcome.actual_latency,
                eight.runs[r].records[e].outcome.actual_latency);
    }
  }
}

TEST(Learning, TrajectoriesAreThreadCountInvariant) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(6, 79), 12.0);
  lbmv::strategy::LearningOptions options;
  options.rounds = 40;

  const auto run_with = [&](std::size_t threads) {
    lbmv::util::ThreadPool pool(threads);
    return lbmv::strategy::run_learning_replicated(mechanism, config, options,
                                                   4, &pool, 1);
  };
  const auto one = run_with(1);
  const auto two = run_with(2);
  const auto eight = run_with(8);
  ASSERT_EQ(one.replications.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    ASSERT_EQ(one.replications[r].latency_trace.size(),
              eight.replications[r].latency_trace.size());
    for (std::size_t t = 0; t < one.replications[r].latency_trace.size();
         ++t) {
      EXPECT_EQ(one.replications[r].latency_trace[t],
                two.replications[r].latency_trace[t]);
      EXPECT_EQ(one.replications[r].latency_trace[t],
                eight.replications[r].latency_trace[t]);
    }
    EXPECT_EQ(one.replications[r].final_greedy_latency,
              eight.replications[r].final_greedy_latency);
  }
}

TEST(Protocol, SharedEngineDoubleRoundMatchesTwoFullRounds) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(5, 83), 8.0);
  lbmv::sim::ProtocolOptions options;
  options.horizon = 300.0;
  options.warmup_fraction = 0.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  const auto intents = lbmv::model::BidProfile::truthful(config);
  const lbmv::sim::RoundReport report = protocol.run_round(config, intents);

  // Reconstruct the verified profile the protocol built from its execution
  // estimates and re-run both payment rounds through the full path.
  auto verified = intents;
  for (std::size_t i = 0; i < config.size(); ++i) {
    verified.executions[i] = report.estimated_execution[i];
  }
  lbmv::core::RoundWorkspace ws;
  MechanismOutcome expected_verified;
  MechanismOutcome expected_oracle;
  mechanism.run_into(config, verified, expected_verified, ws);
  mechanism.run_into(config, intents, expected_oracle, ws);
  EXPECT_EQ(report.outcome.actual_latency, expected_verified.actual_latency);
  EXPECT_EQ(report.oracle_outcome.actual_latency,
            expected_oracle.actual_latency);
  for (std::size_t i = 0; i < config.size(); ++i) {
    EXPECT_EQ(report.outcome.agents[i].payment,
              expected_verified.agents[i].payment);
    EXPECT_EQ(report.oracle_outcome.agents[i].payment,
              expected_oracle.agents[i].payment);
  }
}

}  // namespace
