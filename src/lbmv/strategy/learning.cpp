#include "lbmv/strategy/learning.h"

#include <algorithm>
#include <cmath>

#include "lbmv/strategy/deviation.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace lbmv::strategy {
namespace {

/// Per-agent epsilon-greedy state over the arm grid.
struct Learner {
  std::vector<double> q;       ///< incremental mean reward per arm
  std::vector<std::size_t> n;  ///< pulls per arm
  util::Rng rng{0};

  [[nodiscard]] std::size_t pick(double epsilon) {
    if (rng.uniform() < epsilon) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(q.size()) - 1));
    }
    return greedy();
  }

  [[nodiscard]] std::size_t greedy() const {
    std::size_t best = 0;
    for (std::size_t a = 1; a < q.size(); ++a) {
      // Break ties toward unexplored arms to keep early greed harmless.
      if (q[a] > q[best] || (q[a] == q[best] && n[a] < n[best])) best = a;
    }
    return best;
  }

  void update(std::size_t arm, double reward) {
    ++n[arm];
    q[arm] += (reward - q[arm]) / static_cast<double>(n[arm]);
  }
};

void validate_options(const model::SystemConfig& config,
                      const LearningOptions& options) {
  LBMV_REQUIRE(!options.bid_arms.empty() && !options.exec_arms.empty(),
               "arm grids must be non-empty");
  for (double b : options.bid_arms) {
    LBMV_REQUIRE(std::isfinite(b) && b > 0.0,
                 "bid arms must be positive and finite");
  }
  for (double e : options.exec_arms) {
    LBMV_REQUIRE(std::isfinite(e) && e >= 1.0,
                 "execution arms must be finite and >= 1");
  }
  LBMV_REQUIRE(options.rounds > 0, "rounds must be positive");
  LBMV_REQUIRE(std::isfinite(options.epsilon) && options.epsilon >= 0.0 &&
                   options.epsilon <= 1.0,
               "epsilon must be in [0, 1]");
  LBMV_REQUIRE(std::isfinite(options.epsilon_decay) &&
                   options.epsilon_decay > 0.0 &&
                   options.epsilon_decay <= 1.0,
               "epsilon_decay must be in (0, 1]");
  if (options.single_learner) {
    LBMV_REQUIRE(*options.single_learner < config.size(),
                 "single_learner index out of range");
  }
}

}  // namespace

LearningResult run_learning(const core::Mechanism& mechanism,
                            const model::SystemConfig& config,
                            const LearningOptions& options) {
  validate_options(config, options);

  const std::size_t n = config.size();
  const std::size_t arms = options.bid_arms.size() * options.exec_arms.size();
  auto arm_bid = [&](std::size_t a) {
    return options.bid_arms[a / options.exec_arms.size()];
  };
  auto arm_exec = [&](std::size_t a) {
    return options.exec_arms[a % options.exec_arms.size()];
  };
  auto learns = [&](std::size_t i) {
    return !options.single_learner || *options.single_learner == i;
  };
  util::Rng root(options.seed);
  std::vector<Learner> learners(n);
  for (std::size_t i = 0; i < n; ++i) {
    learners[i].q.assign(arms, 0.0);
    learners[i].n.assign(arms, 0);
    learners[i].rng = root.split(i + 1);
  }

  // Non-learners stay at the initial truthful entries forever; learners are
  // committed to their chosen arm each round, so one evaluator serves the
  // whole run with no per-round profile construction.
  DeviationEvaluator evaluator(mechanism, config);
  core::MechanismOutcome outcome;  // reused across rounds

  LearningResult result;
  result.latency_trace.reserve(static_cast<std::size_t>(options.rounds));
  double epsilon = options.epsilon;
  std::vector<std::size_t> chosen(n, 0);
  // Full-feedback scratch: one candidate-bid row per execution arm, reused
  // every round (bid_row[b] = bid_arms[b] * t, arm index b * ne + e).
  const std::size_t nb = options.bid_arms.size();
  const std::size_t ne = options.exec_arms.size();
  std::vector<double> bid_row(options.full_feedback ? nb : 0);
  std::vector<double> util_row(options.full_feedback ? nb : 0);
  // Simultaneous-move round: every learner picks, then all k picks land as
  // one batched commit — the nonlinear contexts re-derive their planes once
  // per round instead of once per learner (state-identical either way).
  std::vector<core::BidDelta> moves;
  moves.reserve(n);
  for (int round = 0; round < options.rounds; ++round) {
    moves.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!learns(i)) continue;
      chosen[i] = learners[i].pick(epsilon);
      const double t = config.true_value(i);
      moves.push_back(core::BidDelta{i, arm_bid(chosen[i]) * t,
                                     arm_exec(chosen[i]) * t});
    }
    evaluator.commit_batch(moves);
    evaluator.outcome_into(outcome);
    result.latency_trace.push_back(outcome.actual_latency);
    for (std::size_t i = 0; i < n; ++i) {
      if (!learns(i)) continue;
      if (options.full_feedback) {
        // Counterfactual credit for the whole arm grid: each execution arm
        // is one lane-parallel sweep over the bid arms against the profile
        // everyone just committed.
        const double t = config.true_value(i);
        for (std::size_t b = 0; b < nb; ++b) {
          bid_row[b] = options.bid_arms[b] * t;
        }
        for (std::size_t e = 0; e < ne; ++e) {
          evaluator.utilities_into(i, bid_row, options.exec_arms[e] * t,
                                   util_row);
          for (std::size_t b = 0; b < nb; ++b) {
            learners[i].update(b * ne + e, util_row[b]);
          }
        }
      } else {
        learners[i].update(chosen[i], outcome.agents[i].utility);
      }
    }
    epsilon *= options.epsilon_decay;
  }

  result.final_bid_mult.resize(n, 1.0);
  result.final_exec_mult.resize(n, 1.0);
  std::size_t truthful = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!learns(i)) {
      ++truthful;  // non-learners are truthful by construction
      continue;
    }
    const std::size_t greedy = learners[i].greedy();
    result.final_bid_mult[i] = arm_bid(greedy);
    result.final_exec_mult[i] = arm_exec(greedy);
    const double t = config.true_value(i);
    evaluator.commit(i, result.final_bid_mult[i] * t,
                     result.final_exec_mult[i] * t);
    truthful += result.final_bid_mult[i] == 1.0 &&
                result.final_exec_mult[i] == 1.0;
  }
  result.truthful_fraction =
      static_cast<double>(truthful) / static_cast<double>(n);
  result.final_greedy_latency = evaluator.actual_latency();
  return result;
}

double LearningEnsemble::mean_truthful_fraction() const {
  if (replications.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : replications) s += r.truthful_fraction;
  return s / static_cast<double>(replications.size());
}

double LearningEnsemble::mean_greedy_latency() const {
  if (replications.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : replications) s += r.final_greedy_latency;
  return s / static_cast<double>(replications.size());
}

LearningEnsemble run_learning_replicated(const core::Mechanism& mechanism,
                                         const model::SystemConfig& config,
                                         const LearningOptions& options,
                                         std::size_t replications,
                                         util::ThreadPool* pool,
                                         std::size_t grain) {
  validate_options(config, options);
  LBMV_REQUIRE(replications > 0, "replications must be positive");

  // Each replication gets its own seed stream derived from the base seed;
  // slot r of the output depends on nothing but r, so the ensemble is
  // invariant to thread count and grain.
  const util::Rng root(options.seed);
  LearningEnsemble ensemble;
  ensemble.replications.resize(replications);
  util::ThreadPool& runner = pool != nullptr ? *pool : util::ThreadPool::global();
  runner.parallel_for(
      0, replications,
      [&](std::size_t r) {
        LearningOptions rep_options = options;
        rep_options.seed = root.split(r + 1).seed();
        ensemble.replications[r] = run_learning(mechanism, config, rep_options);
      },
      grain);
  return ensemble;
}

}  // namespace lbmv::strategy
