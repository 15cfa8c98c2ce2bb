#pragma once

/// \file family_context.h
/// Closed-form ProfileUtilityContext for the nonlinear latency families
/// with exact allocators: M/M/1 (alloc/mm1_allocator.h) and the
/// workload-dependent-rate family (alloc/workload_allocator.h).
///
/// These extend the audit/strategy fast path of profile_context.h beyond
/// the linear family (DESIGN.md §14).  The M/M/1 context is O(1) per
/// deviation on the common configuration — all computers active before and
/// after the deviation, rest profile consistent (e_j = b_j for j != i) —
/// because with a = sqrt(mu) the deviation only moves one term of the two
/// sums sum mu_j and sum a_j, and every active queue length is a_j/c - 1.
/// Anything else (active-set churn, inconsistent opponents, saturation)
/// falls back to a full scalar re-solve inside utility(), preserving the
/// allocator's typed PreconditionErrors.  The workload family has no
/// closed-form allocation at all, so its context re-runs the damped-Newton
/// KKT solve per query against a per-call scratch (queries stay safe to
/// issue concurrently); the leave-one-out optima — deviation-independent —
/// are precomputed once per commit by alloc::workload_leave_one_out_into.
///
/// Mechanism::make_profile_context builds them when classify_round picks
/// the M/M/1 or workload engine (never for Archer–Tardos, whose tail is
/// linear-only).  The M/M/1 fast path is one template over the lane type
/// (family_context.cpp): utility() runs it on one candidate and the grid
/// sweeps on four candidate bids per instruction, deferring any lane off
/// the fast path to utility() itself, so a sweep is bit-identical to a
/// scalar loop of utility() calls — including which deviations throw.  The
/// workload context keeps the base class's scalar grid loops.

#include <cstddef>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace lbmv::core {

/// Closed-form M/M/1 deviation context (file comment above).  Types are
/// mean service times theta = 1/mu, matching MM1Family / MM1Allocator.
class Mm1PrProfileContext final : public ProfileUtilityContext {
 public:
  Mm1PrProfileContext(PaymentRule rule, double arrival_rate,
                      model::BidProfile base);

  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const override;
  void grid_utilities_into(std::size_t agent, std::span<const double> bids,
                           double execution,
                           std::span<double> out) const override;
  [[nodiscard]] GridBest grid_best(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution) const override;
  void commit(std::size_t agent, double bid, double execution) override;
  /// k simultaneous commits, one O(n) re-derivation instead of k: the
  /// rebuild is a pure function of the committed planes, so writing every
  /// entry first and re-scanning once is state-identical to the sequential
  /// loop (whose intermediate rebuilds are discarded by the final one).
  void commit_batch(std::span<const BidDelta> deltas) override;
  [[nodiscard]] double actual_latency() const override { return actual_; }
  [[nodiscard]] const model::BidProfile& profile() const override {
    return profile_;
  }

  /// The rest-of-profile state one (agent, execution) query reads, O(1)
  /// from the caches; defined, built and read in family_context.cpp only.
  struct Deviation;

 private:
  [[nodiscard]] Deviation deviation(std::size_t agent, double execution) const;
  /// Full scalar re-solve for deviations off the all-active consistent
  /// fast path.  Allocates locally (concurrent queries stay safe).
  [[nodiscard]] double slow_utility(std::size_t agent, double bid,
                                    double execution) const;
  void sweep(std::size_t agent, std::span<const double> bids,
             double execution, double* out, GridBest* best) const;
  void rebuild();

  PaymentRule rule_;
  double arrival_rate_;
  model::BidProfile profile_;
  std::vector<double> mus_;   ///< mu_j = 1/b_j
  std::vector<double> a_;     ///< sqrt(mu_j)
  std::vector<double> mue_;   ///< 1/e_j (verified service rates)
  std::vector<double> rates_; ///< committed allocation
  std::vector<double> loo_;   ///< L_{-j} (empty under kNoPayment)
  std::vector<char> inconsistent_;  ///< e_j != b_j
  double sum_mu_ = 0.0;
  double sum_a_ = 0.0;
  double min_a_ = 0.0;
  double second_a_ = 0.0;
  std::size_t argmin_a_ = 0;
  std::size_t inconsistent_count_ = 0;
  double actual_ = 0.0;
};

/// Workload-family deviation context: latency theta * x * (1 + gamma x),
/// allocation from the strictly-interior KKT system solved by damped
/// Newton (alloc/workload_allocator.h).  O(n * newton_iters) per query.
class WorkloadProfileContext final : public ProfileUtilityContext {
 public:
  WorkloadProfileContext(PaymentRule rule, double gamma, double arrival_rate,
                         model::BidProfile base);

  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const override;
  void commit(std::size_t agent, double bid, double execution) override;
  /// k simultaneous commits, one cold-start Newton re-derivation instead of
  /// k (see Mm1PrProfileContext::commit_batch for the state-identity
  /// argument — rebuild() reads nothing but the committed planes).
  void commit_batch(std::span<const BidDelta> deltas) override;
  [[nodiscard]] double actual_latency() const override { return actual_; }
  [[nodiscard]] const model::BidProfile& profile() const override {
    return profile_;
  }

 private:
  void rebuild();

  PaymentRule rule_;
  double gamma_;
  double arrival_rate_;
  model::BidProfile profile_;
  std::vector<double> rates_;  ///< committed allocation
  std::vector<double> loo_;    ///< L_{-j} (empty under kNoPayment)
  double actual_ = 0.0;
};

}  // namespace lbmv::core
