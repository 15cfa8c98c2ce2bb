#pragma once

/// \file deviation.h
/// O(1) single-deviation game engine.
///
/// Every strategic-behaviour experiment in the paper reduces to the same
/// primitive: one agent's utility under a unilateral (bid, execution)
/// deviation from an otherwise fixed profile.  DeviationEvaluator answers
/// that query in O(1) for the mechanisms with a closed form (comp-bonus at
/// either compensation basis, VCG, no-payment — all on the PR allocator over
/// linear latencies, via Mechanism::make_profile_context) and in O(n) —
/// with a reused scratch profile, no per-call profile copy — for everything
/// else.  commit() makes a deviation permanent with an O(1) delta to the
/// cached sums instead of re-running the mechanism.
///
/// Candidate-grid sweeps (utilities_into, best_response) ride the closed
/// form's lane-parallel kernels where it has them (DESIGN.md §13) and loop
/// utility() otherwise, with identical answers either way.
///
/// Best-response dynamics, bandit learning, tournaments and the leader-
/// commitment game are all built on this one class; see DESIGN.md §10 for
/// the complexity accounting.

#include <cstddef>
#include <memory>
#include <span>

#include "lbmv/core/batch.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"

namespace lbmv::strategy {

/// Per-profile deviation engine.  The mechanism must outlive the evaluator
/// (the config's latency family is retained).
///
/// Thread safety: utility() and the grid sweeps on the incremental path are
/// pure reads and safe to call concurrently; the naive fallback and
/// outcome_into() mutate the shared scratch buffers and are not.  commit()
/// is never safe to call concurrently with anything.
class DeviationEvaluator {
 public:
  enum class Mode {
    kAuto,   ///< use the closed form when the mechanism offers one
    kNaive,  ///< always re-run the mechanism (baseline / differential tests)
  };

  /// Evaluate deviations from \p profile (copied; must validate against
  /// \p config).
  DeviationEvaluator(const core::Mechanism& mechanism,
                     const model::SystemConfig& config,
                     model::BidProfile profile, Mode mode = Mode::kAuto);

  /// Convenience: start from the truthful profile.
  DeviationEvaluator(const core::Mechanism& mechanism,
                     const model::SystemConfig& config, Mode mode = Mode::kAuto);

  /// Utility of \p agent deviating to (\p bid, \p execution), everyone else
  /// as committed.  O(1) on the incremental path, one Mechanism::run on the
  /// fallback.
  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const;

  /// Make a deviation permanent for all subsequent queries.  O(1) amortised
  /// on the incremental path.
  void commit(std::size_t agent, double bid, double execution);

  /// Make k deviations permanent in one call (later entries for the same
  /// agent win).  State-identical to committing sequentially; contexts
  /// whose single commit is a full O(n) re-derivation (the nonlinear
  /// families) re-derive once for the whole batch instead of k times, so a
  /// simultaneous-move round (learning dynamics) pays one rebuild.
  void commit_batch(std::span<const core::BidDelta> deltas);

  /// out[k] = utility(agent, bids[k], execution) for every candidate bid;
  /// \p out must be at least bids.size() long.  Obs: bumps
  /// lbmv_strategy_grid_evals_total and records
  /// lbmv_strategy_grid_round_seconds when recording is on.
  void utilities_into(std::size_t agent, std::span<const double> bids,
                      double execution, std::span<double> out) const;

  /// The utility-maximising candidate of a non-empty grid, ties to the
  /// smallest index — identical to a strictly-greater scalar scan of
  /// utility() in index order.  Same probes as utilities_into.
  [[nodiscard]] core::GridBest best_response(std::size_t agent,
                                             std::span<const double> bids,
                                             double execution) const;

  /// Full mechanism outcome at the committed profile — one
  /// Mechanism::run_into round on the evaluator's workspace — reusing
  /// \p out's storage.
  void outcome_into(core::MechanismOutcome& out) const;

  /// L(x(b), t~) at the committed profile.
  [[nodiscard]] double actual_latency() const;

  /// The committed profile.
  [[nodiscard]] const model::BidProfile& profile() const;

  /// Whether the O(1) closed-form path is active (false: every query is a
  /// full mechanism run on the scratch buffer).
  [[nodiscard]] bool incremental() const { return context_ != nullptr; }

 private:
  const core::Mechanism* mechanism_;
  std::shared_ptr<const model::LatencyFamily> family_;  ///< keeps family alive
  double arrival_rate_;
  std::unique_ptr<core::ProfileUtilityContext> context_;  ///< fast path
  model::BidProfile profile_;           ///< committed profile (fallback path)
  mutable model::BidProfile scratch_;   ///< fallback deviation buffer
  /// Round workspace: every full mechanism run — each naive-path query and
  /// each outcome_into — reuses these planes (and ws_.scratch_outcome), so
  /// even the baseline is allocation-free per query after warm-up.
  mutable core::RoundWorkspace ws_;
};

}  // namespace lbmv::strategy
