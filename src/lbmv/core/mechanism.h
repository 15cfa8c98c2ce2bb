#pragma once

/// \file mechanism.h
/// Mechanism-design framework for the load balancing problem.
///
/// Formalises the paper's Definition 3.1/3.2.  A mechanism is a pair of
/// functions: an allocation rule x(b) computed from the agents' bids, and a
/// payment rule P(b, t~) handed to the agents — *after* job execution for
/// mechanisms with verification, so the payment may depend on the observed
/// execution values t~.
///
/// Agent i's valuation is the negation of its latency at the rate it was
/// assigned, V_i = -t~_i * x_i^2 in the linear model (generally
/// -x_i * l_i^{t~}(x_i)), and its utility is U_i = P_i + V_i.  Mechanisms
/// never read the agents' true types; everything they see is the bid profile
/// and the verified execution values.

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/allocator.h"
#include "lbmv/model/allocation.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

class RoundWorkspace;    // batch.h
class ProfileBatch;      // batch.h
struct BatchOutcomes;    // batch.h
struct BatchRunOptions;  // batch.h
struct RoundOptions;     // batch.h

/// The payment rule a mechanism applies.  Its closed form is written once,
/// in rule_kernel.h, and instantiated by every exact engine: the fused
/// rounds (simd_round.h, family_round.h), the profile contexts
/// (profile_context.h, family_context.h) and their grid sweeps.  Each
/// mechanism names its rule through Mechanism::payment_rule().
enum class PaymentRule {
  kCompBonusExecution,  ///< C_i = t~_i x_i^2, B_i = L_{-i} - L(x, t~)
  kCompBonusBid,        ///< C_i = b_i  x_i^2, B_i = L_{-i} - L(x, t~)
  kVcg,                 ///< Clarke pivot on the reported types
  kArcherTardos,        ///< b_i x_i^2 + closed-form payment tail (linear only)
  kNoPayment,           ///< P_i = 0
};

/// Which engine serves a round, by (family, allocator) pair.  The generic
/// path is the semantic reference; an exact engine only engages on the
/// pairing it was derived for, so classification alone never changes
/// results beyond the engines' documented error bounds.
enum class EngineKind {
  kLinearPr,  ///< LinearFamily + PRAllocator (DESIGN.md §11/§12)
  kMm1,       ///< MM1Family + MM1Allocator (§14)
  kWorkload,  ///< WorkloadFamily + WorkloadAllocator (§14)
  kGeneric,   ///< anything else: the virtual-dispatch arena
};

/// The one place that inspects a round's dynamic family and allocator
/// types.  Wrapping an exact allocator in any other Allocator type (the
/// tests' oracle seam) sends its rounds down the generic path.
[[nodiscard]] EngineKind classify_round(const model::LatencyFamily& family,
                                        const alloc::Allocator& allocator);

/// Raise the round entries' typed PreconditionError unless \p bid and
/// \p execution are positive and finite: the one input domain every round,
/// profile-context query and commit accepts.
inline void require_valid_inputs(double bid, double execution) {
  LBMV_REQUIRE(std::isfinite(bid) && bid > 0.0,
               "bids must be positive and finite");
  LBMV_REQUIRE(std::isfinite(execution) && execution > 0.0,
               "execution values must be positive and finite");
}

/// Economic outcome for a single agent in one mechanism round.
struct AgentOutcome {
  double allocation = 0.0;    ///< x_i, the job rate assigned to the agent
  double compensation = 0.0;  ///< C_i (0 for mechanisms without the term)
  double bonus = 0.0;         ///< B_i (0 for mechanisms without the term)
  double payment = 0.0;       ///< P_i handed to the agent
  double valuation = 0.0;     ///< V_i = -(agent's verified latency cost)
  double utility = 0.0;       ///< U_i = P_i + V_i
};

/// Full outcome of one mechanism round.
struct MechanismOutcome {
  model::Allocation allocation;
  std::vector<AgentOutcome> agents;
  /// L(x(b), t~): total latency actually incurred, at the execution values.
  double actual_latency = 0.0;
  /// L(x(b), b): total latency the bids predict (what an obedient system
  /// would believe).
  double reported_latency = 0.0;

  [[nodiscard]] double total_payment() const;
  /// Sum of |V_i| — the denominator of the paper's frugality measure.
  [[nodiscard]] double total_valuation_magnitude() const;
};

/// Audit fast path: one agent's utility as a function of its own deviation,
/// with everything that does not depend on that agent's bid or execution
/// value precomputed at construction.  Built by
/// Mechanism::make_utility_context for one (base profile, agent) pair; the
/// truthfulness auditor then queries O(grid) points against the same frozen
/// opponents at O(1) each instead of re-running the full mechanism.
/// Implementations must be safe to query concurrently.
class AgentUtilityContext {
 public:
  virtual ~AgentUtilityContext() = default;

  /// Utility of the audited agent when it bids \p bid and executes at
  /// \p execution (both positive), everything else as in the base profile.
  [[nodiscard]] virtual double utility(double bid, double execution) const = 0;
};

/// One agent's pending (bid, execution) change, addressed by index.  The
/// unit of work for batched commits (ProfileUtilityContext::commit_batch).
struct BidDelta {
  std::size_t agent = 0;
  double bid = 0.0;
  double execution = 0.0;
};

/// Winning candidate of a deviation-grid sweep.
struct GridBest {
  std::size_t index = 0;  ///< first index attaining the maximum utility
  double utility = 0.0;   ///< the maximum utility
};

/// Strategy fast path: the utility of *any* agent under a unilateral
/// deviation from a committed base profile, plus an O(1) way to make a
/// deviation permanent.  Built by Mechanism::make_profile_context once per
/// profile; the strategy layers (best response, learning, tournaments,
/// leader-commitment games) then evaluate O(n * grid) deviations at O(1)
/// each instead of re-running the full mechanism per grid point.  The full
/// outcome at the committed profile is the mechanism's own round
/// (strategy::DeviationEvaluator::outcome_into runs it), not the context's.
///
/// Contract:
///   * utility() and the grid sweeps must be safe to call concurrently
///     (pure reads);
///   * commit() permanently moves one agent to (bid, execution) — O(1)
///     amortised for closed-form implementations — and is NOT safe to call
///     concurrently with utility().
class ProfileUtilityContext {
 public:
  virtual ~ProfileUtilityContext() = default;

  /// Utility of \p agent when it deviates to (\p bid, \p execution), with
  /// every other agent as committed.  Both values must be positive and
  /// finite (require_valid_inputs).
  [[nodiscard]] virtual double utility(std::size_t agent, double bid,
                                       double execution) const = 0;

  /// out[k] = utility(agent, bids[k], execution) for every k; \p out must
  /// be at least bids.size() long.  The default loops utility(); contexts
  /// with a lane form of their utility sweep four candidates per
  /// instruction (core/grid_kernels.h) with bit-identical results.
  virtual void grid_utilities_into(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution,
                                   std::span<double> out) const;

  /// The utility-maximising candidate of a non-empty grid, ties to the
  /// smallest index — a strictly-greater first-wins scan in index order.
  /// Same default and overrides as grid_utilities_into.
  [[nodiscard]] virtual GridBest grid_best(std::size_t agent,
                                           std::span<const double> bids,
                                           double execution) const;

  /// Make a deviation permanent: agent now bids \p bid and executes at
  /// \p execution for all subsequent queries.
  virtual void commit(std::size_t agent, double bid, double execution) = 0;

  /// Make k deviations permanent in one call.  The default loops commit()
  /// in order, so the final state is exactly the sequential one; contexts
  /// whose per-commit cost is a full O(n) re-derivation override this to
  /// write all k entries first and re-derive once — the re-derivation is
  /// from scratch at the final profile, so the override is state-identical
  /// to the sequential loop with k times less work.  Later entries for the
  /// same agent win (sequential semantics).
  virtual void commit_batch(std::span<const BidDelta> deltas) {
    for (const BidDelta& d : deltas) commit(d.agent, d.bid, d.execution);
  }

  /// L(x(b), t~) at the committed profile.
  [[nodiscard]] virtual double actual_latency() const = 0;

  /// The committed profile.
  [[nodiscard]] virtual const model::BidProfile& profile() const = 0;
};

/// Base class for load balancing mechanisms (Definition 3.2).
class Mechanism {
 public:
  explicit Mechanism(std::shared_ptr<const alloc::Allocator> allocator);
  virtual ~Mechanism() = default;

  /// Run one round: allocate from the bids, evaluate the verified execution,
  /// compute payments and per-agent utilities.
  ///
  /// Requires at least two agents (marginal-contribution payments remove one
  /// agent at a time) and a validated profile.
  [[nodiscard]] MechanismOutcome run(const model::LatencyFamily& family,
                                     double arrival_rate,
                                     const model::BidProfile& profile) const;

  /// Convenience overload reading family and arrival rate from a config.
  /// The config's true values are *not* consulted.
  [[nodiscard]] MechanismOutcome run(const model::SystemConfig& config,
                                     const model::BidProfile& profile) const;

  /// Allocation-free round kernel: identical results to run() (bit-exact on
  /// the linear family), writing into \p out and drawing every scratch plane
  /// from \p ws.  A warm (out, ws) pair — one that has already seen this
  /// agent count — performs zero heap allocations on the fused
  /// linear-family fast path, and only the unavoidable LatencyFamily::make
  /// calls elsewhere.  \p ws may be RoundWorkspace::thread_local_instance();
  /// ws.scratch_profile / ws.scratch_outcome are never touched, so callers
  /// may pass ws.scratch_outcome as \p out.
  void run_into(const model::LatencyFamily& family, double arrival_rate,
                std::span<const double> bids,
                std::span<const double> executions, MechanismOutcome& out,
                RoundWorkspace& ws) const;

  /// run_into with explicit fan-out control for the vectorized engine (see
  /// RoundOptions in batch.h).  Results are bit-identical for every shard
  /// and thread count; only wall-clock changes.  The overload above uses
  /// RoundOptions{} (auto sharding for large n).
  void run_into(const model::LatencyFamily& family, double arrival_rate,
                std::span<const double> bids,
                std::span<const double> executions, MechanismOutcome& out,
                RoundWorkspace& ws, const RoundOptions& options) const;

  /// run_into over a BidProfile (validates it like run()).
  void run_into(const model::LatencyFamily& family, double arrival_rate,
                const model::BidProfile& profile, MechanismOutcome& out,
                RoundWorkspace& ws) const;

  /// run_into reading family and arrival rate from a config.
  void run_into(const model::SystemConfig& config,
                const model::BidProfile& profile, MechanismOutcome& out,
                RoundWorkspace& ws) const;

  /// Run every profile of \p batch, writing outcome b into out[b].  Profiles
  /// are fanned over a thread pool (per BatchRunOptions) with one reusable
  /// workspace per worker thread; each worker writes only its own outcome
  /// slots, so results are identical for any thread count and bit-exact
  /// against a scalar loop of run() calls.
  void run_batch(const model::LatencyFamily& family, double arrival_rate,
                 const ProfileBatch& batch, BatchOutcomes& out,
                 const BatchRunOptions& options) const;

  /// run_batch with default options (parallel on the global pool).
  void run_batch(const model::LatencyFamily& family, double arrival_rate,
                 const ProfileBatch& batch, BatchOutcomes& out) const;

  /// run_batch reading family and arrival rate from a config.
  void run_batch(const model::SystemConfig& config, const ProfileBatch& batch,
                 BatchOutcomes& out, const BatchRunOptions& options) const;
  void run_batch(const model::SystemConfig& config, const ProfileBatch& batch,
                 BatchOutcomes& out) const;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether the payment rule observes execution values (a "mechanism with
  /// verification", paper Definition 3.2) — if false, payments depend on the
  /// bids alone and slow execution goes unpunished.
  [[nodiscard]] virtual bool uses_verification() const = 0;

  /// Whether the mechanism guarantees nonnegative utility to agents that
  /// execute exactly as bid (voluntary participation, paper Thm 3.2 —
  /// which every leave-one-out bonus rule satisfies at *any* consistent
  /// profile, not just the truthful one).  The online invariant monitors
  /// (core/invariants.h) arm the participation check only when this holds;
  /// the no-payment baseline opts out (agents eat their cost unpaid by
  /// design).
  [[nodiscard]] virtual bool guarantees_voluntary_participation() const {
    return true;
  }

  /// The payment rule this mechanism applies.  Its fill_payments must be
  /// exactly that rule's closed form, which every exact engine then
  /// reproduces; the differential suites hold them to it.
  [[nodiscard]] virtual PaymentRule payment_rule() const = 0;

  /// Build an O(1)-per-deviation utility evaluator for audits of \p agent
  /// against \p base, or nullptr when no closed form applies (callers then
  /// fall back to run() per deviation).  The base profile's own entries for
  /// \p agent are irrelevant: every query overrides them.  Wraps
  /// make_profile_context.
  [[nodiscard]] std::unique_ptr<AgentUtilityContext> make_utility_context(
      const model::LatencyFamily& family, double arrival_rate,
      const model::BidProfile& base, std::size_t agent) const;

  /// Build an O(1)-per-deviation evaluator over the whole profile (any agent,
  /// with commit support) for the engine classify_round picks, or nullptr
  /// on the generic path and for Archer–Tardos off the linear family —
  /// callers then fall back to run() per deviation.  \p base is copied; the
  /// context does not alias it afterwards.
  [[nodiscard]] std::unique_ptr<ProfileUtilityContext> make_profile_context(
      const model::LatencyFamily& family, double arrival_rate,
      const model::BidProfile& base) const;

  [[nodiscard]] const alloc::Allocator& allocator() const {
    return *allocator_;
  }

 protected:
  /// Fill compensation / bonus / payment for every agent on the generic
  /// path.  \p outcomes arrives with allocation and valuation already set,
  /// and the round's latencies are precomputed: \p actual_latency is
  /// L(x, t~) and \p reported_latency is L(x, b), so payment rules never
  /// re-derive them.  The latency-function arenas ws.exec_fns / ws.bid_fns
  /// are already built for this round; rules may use ws.leave_one_out /
  /// ws.own_cost as scratch.
  virtual void fill_payments(const model::LatencyFamily& family,
                             double arrival_rate,
                             std::span<const double> bids,
                             std::span<const double> executions,
                             const model::Allocation& x,
                             double actual_latency, double reported_latency,
                             std::vector<AgentOutcome>& outcomes,
                             RoundWorkspace& ws) const = 0;

 private:
  /// The reference round: validation, allocator, latency arenas,
  /// fill_payments, utilities.
  void run_generic_into(const model::LatencyFamily& family,
                        double arrival_rate, std::span<const double> bids,
                        std::span<const double> executions,
                        MechanismOutcome& out, RoundWorkspace& ws) const;

  std::shared_ptr<const alloc::Allocator> allocator_;
};

/// The default allocation rule used throughout the paper: the PR algorithm.
[[nodiscard]] std::shared_ptr<const alloc::Allocator> default_allocator();

}  // namespace lbmv::core
