#include "lbmv/core/mechanism.h"

#include <cmath>
#include <cstdint>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/family_round.h"
#include "lbmv/core/invariants.h"
#include "lbmv/core/profile_context.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::core {

double MechanismOutcome::total_payment() const {
  double s = 0.0;
  for (const auto& a : agents) s += a.payment;
  return s;
}

double MechanismOutcome::total_valuation_magnitude() const {
  double s = 0.0;
  for (const auto& a : agents) s += std::fabs(a.valuation);
  return s;
}

namespace {

/// The telemetry every monitored round records, whichever engine ran it:
/// the round counter, the heap allocations the engine skipped, the
/// per-agent payment and bonus histograms (batched through stack chunks,
/// no per-round heap scratch) and the invariant monitors.  Callers gate
/// on obs::enabled() and bump their engine-specific counters themselves.
void observe_round(obs::MechProbes& probes, std::span<const double> bids,
                   std::span<const double> executions, double arrival_rate,
                   const MechanismOutcome& out, std::uint64_t allocs_avoided,
                   const RoundInvariantOptions& invariants) {
  probes.rounds.inc();
  if (allocs_avoided != 0) probes.allocs_avoided.inc(allocs_avoided);
  const std::size_t n = out.agents.size();
  obs::record_each(probes.round_payment, n,
                   [&](std::size_t i) { return out.agents[i].payment; });
  obs::record_each(probes.round_bonus, n,
                   [&](std::size_t i) { return out.agents[i].bonus; });
  check_round_invariants(bids, executions, arrival_rate, out, invariants);
}

}  // namespace

EngineKind classify_round(const model::LatencyFamily& family,
                          const alloc::Allocator& allocator) {
  if (dynamic_cast<const model::LinearFamily*>(&family) != nullptr &&
      dynamic_cast<const alloc::PRAllocator*>(&allocator) != nullptr) {
    return EngineKind::kLinearPr;
  }
  if (dynamic_cast<const model::MM1Family*>(&family) != nullptr &&
      dynamic_cast<const alloc::MM1Allocator*>(&allocator) != nullptr) {
    return EngineKind::kMm1;
  }
  if (dynamic_cast<const model::WorkloadFamily*>(&family) != nullptr &&
      dynamic_cast<const alloc::WorkloadAllocator*>(&allocator) != nullptr) {
    return EngineKind::kWorkload;
  }
  return EngineKind::kGeneric;
}

void ProfileUtilityContext::grid_utilities_into(std::size_t agent,
                                                std::span<const double> bids,
                                                double execution,
                                                std::span<double> out) const {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  for (std::size_t k = 0; k < bids.size(); ++k) {
    out[k] = utility(agent, bids[k], execution);
  }
}

GridBest ProfileUtilityContext::grid_best(std::size_t agent,
                                          std::span<const double> bids,
                                          double execution) const {
  LBMV_REQUIRE(!bids.empty(), "deviation grid must be non-empty");
  GridBest best{0, utility(agent, bids[0], execution)};
  for (std::size_t k = 1; k < bids.size(); ++k) {
    const double u = utility(agent, bids[k], execution);
    if (u > best.utility) best = GridBest{k, u};
  }
  return best;
}

Mechanism::Mechanism(std::shared_ptr<const alloc::Allocator> allocator)
    : allocator_(std::move(allocator)) {
  LBMV_REQUIRE(allocator_ != nullptr, "mechanism requires an allocator");
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate, std::span<const double> bids,
                         std::span<const double> executions,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
  run_into(family, arrival_rate, bids, executions, out, ws, RoundOptions{});
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate, std::span<const double> bids,
                         std::span<const double> executions,
                         MechanismOutcome& out, RoundWorkspace& ws,
                         const RoundOptions& options) const {
  const std::size_t n = bids.size();
  LBMV_REQUIRE(n >= 2, "mechanisms require at least two agents");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");
  LBMV_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
               "arrival rate must be positive and finite");

  // One dispatch per round.  The exact engines fuse the whole round —
  // validation, allocation, cost planes, payments — and raise the generic
  // path's diagnostics on invalid input; their results agree with it to the
  // DESIGN.md §12/§14 error bounds.  The Archer–Tardos tail is
  // linear-family-specific, so on the nonlinear engines' pairings that rule
  // takes the generic path (which raises its typed error).  The M/M/1
  // engine declines rounds that need the active-set machinery (some
  // computer dropped, or a closed-form precondition fails); the generic
  // path then owns the round and its canonical diagnostics.
  const EngineKind kind = classify_round(family, *allocator_);
  const PaymentRule rule = payment_rule();
  const bool exact = kind == EngineKind::kLinearPr ||
                     (kind != EngineKind::kGeneric &&
                      rule != PaymentRule::kArcherTardos);
  bool fused = false;
  SimdRoundStats linear_stats;
  FamilyRoundStats family_stats;
  switch (kind) {
    case EngineKind::kLinearPr:
      linear_stats = run_linear_pr_vectorized(rule, arrival_rate, bids,
                                              executions, out, ws, options);
      fused = true;
      break;
    case EngineKind::kMm1:
      fused = exact && run_mm1_vectorized(rule, arrival_rate, bids,
                                          executions, out, ws);
      break;
    case EngineKind::kWorkload:
      if (exact) {
        family_stats = run_workload_vectorized(
            static_cast<const model::WorkloadFamily&>(family), rule,
            arrival_rate, bids, executions, out, ws);
        fused = true;
      }
      break;
    case EngineKind::kGeneric:
      break;
  }
  if (!fused) run_generic_into(family, arrival_rate, bids, executions, out, ws);
  if (!obs::enabled()) return;

  obs::MechProbes& probes = obs::MechProbes::get();
  if (fused && kind == EngineKind::kLinearPr) {
    probes.linear_fast_rounds.inc();
    probes.simd_rounds.inc();
    if (linear_stats.shards > 1) {
      probes.sharded_rounds.inc();
      probes.shard_count.record(static_cast<double>(linear_stats.shards));
    }
  } else if (fused) {
    probes.nonlinear_rounds.inc();
    probes.newton_iters.inc(family_stats.newton_iters);
    probes.loo_fallbacks.inc(family_stats.loo_fallbacks);
  }
  // Every monitor the pairing's exact optimum supports is armed, whichever
  // path ran the round.
  RoundInvariantOptions opts;
  opts.linear_pr = kind == EngineKind::kLinearPr;
  opts.participation_guaranteed = guarantees_voluntary_participation();
  opts.mm1_exact = exact && kind == EngineKind::kMm1;
  opts.workload_exact = exact && kind == EngineKind::kWorkload;
  if (opts.workload_exact) {
    opts.workload_gamma =
        static_cast<const model::WorkloadFamily&>(family).gamma();
  }
  // The generic path builds 2n latency functions for the totals plus n more
  // in the payment rule's compensation terms; the engines build none.
  observe_round(probes, bids, executions, arrival_rate, out,
                fused ? 3 * static_cast<std::uint64_t>(n) : 0, opts);
}

void Mechanism::run_generic_into(const model::LatencyFamily& family,
                                 double arrival_rate,
                                 std::span<const double> bids,
                                 std::span<const double> executions,
                                 MechanismOutcome& out,
                                 RoundWorkspace& ws) const {
  const std::size_t n = bids.size();
  for (std::size_t i = 0; i < n; ++i) {
    require_valid_inputs(bids[i], executions[i]);
  }

  // Recycle the previous outcome's rate plane instead of allocating a fresh
  // vector: after the first round at this n, resize() is a no-op.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  allocator_->allocate_into(family, bids, arrival_rate, rates);
  out.allocation = model::Allocation(std::move(rates));
  const std::span<const double> x = out.allocation.rates();

  // The function objects themselves must come from family.make
  // (unavoidable heap traffic), but the owning planes live in the workspace
  // so the per-round vector churn is gone.  The arena keeps its high-water
  // size — shrinking to exactly n would destroy the tail's slots only to
  // default-construct them again on the next larger round — and the round
  // uses the first n entries.
  if (ws.exec_fns.size() < n) {
    ws.exec_fns.resize(n);
    ws.bid_fns.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ws.exec_fns[i] = family.make(executions[i]);
    ws.bid_fns[i] = family.make(bids[i]);
  }
  out.actual_latency =
      model::total_latency(out.allocation, std::span(ws.exec_fns).first(n));
  out.reported_latency =
      model::total_latency(out.allocation, std::span(ws.bid_fns).first(n));
  out.agents.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& agent = out.agents[i];
    agent.allocation = x[i];
    const double cost = (x[i] == 0.0) ? 0.0 : ws.exec_fns[i]->cost(x[i]);
    agent.valuation = -cost;
  }

  fill_payments(family, arrival_rate, bids, executions, out.allocation,
                out.actual_latency, out.reported_latency, out.agents, ws);

  for (auto& agent : out.agents) {
    agent.utility = agent.payment + agent.valuation;
  }
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate,
                         const model::BidProfile& profile,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
  profile.validate(profile.size());
  run_into(family, arrival_rate, profile.bids, profile.executions, out, ws);
}

void Mechanism::run_into(const model::SystemConfig& config,
                         const model::BidProfile& profile,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
  run_into(config.family(), config.arrival_rate(), profile, out, ws);
}

MechanismOutcome Mechanism::run(const model::LatencyFamily& family,
                                double arrival_rate,
                                const model::BidProfile& profile) const {
  MechanismOutcome outcome;
  run_into(family, arrival_rate, profile, outcome,
           RoundWorkspace::thread_local_instance());
  return outcome;
}

MechanismOutcome Mechanism::run(const model::SystemConfig& config,
                                const model::BidProfile& profile) const {
  return run(config.family(), config.arrival_rate(), profile);
}

void Mechanism::run_batch(const model::LatencyFamily& family,
                          double arrival_rate, const ProfileBatch& batch,
                          BatchOutcomes& out,
                          const BatchRunOptions& options) const {
  const std::size_t count = batch.size();
  out.outcomes.resize(count);
  if (obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.batch_runs.inc();
    probes.batch_size.record(static_cast<double>(count));
  }
  if (count == 0) return;
  // Workers force serial rounds: a round sharding its agent axis over the
  // same pool its profile fan-out runs on would deadlock (parallel_for
  // callers block without draining the queue), and the fixed block grid
  // makes serial rounds bit-identical to sharded ones anyway.
  constexpr RoundOptions kSerialRound{/*shards=*/1, /*pool=*/nullptr};
  const auto body = [&](std::size_t b) {
    run_into(family, arrival_rate, batch.bids(b), batch.executions(b),
             out.outcomes[b], RoundWorkspace::thread_local_instance(),
             kSerialRound);
  };
  if (!options.parallel || count < 2) {
    for (std::size_t b = 0; b < count; ++b) body(b);
    return;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::global();
  pool.parallel_for(0, count, body, options.grain);
}

void Mechanism::run_batch(const model::LatencyFamily& family,
                          double arrival_rate, const ProfileBatch& batch,
                          BatchOutcomes& out) const {
  run_batch(family, arrival_rate, batch, out, BatchRunOptions{});
}

void Mechanism::run_batch(const model::SystemConfig& config,
                          const ProfileBatch& batch, BatchOutcomes& out,
                          const BatchRunOptions& options) const {
  run_batch(config.family(), config.arrival_rate(), batch, out, options);
}

void Mechanism::run_batch(const model::SystemConfig& config,
                          const ProfileBatch& batch, BatchOutcomes& out) const {
  run_batch(config.family(), config.arrival_rate(), batch, out,
            BatchRunOptions{});
}

namespace {

/// Pins one agent of a ProfileUtilityContext, turning the profile-wide
/// deviation engine into the single-agent audit interface.  The wrapped
/// context is never committed to, so concurrent queries remain safe.
class ProfileAgentContext final : public AgentUtilityContext {
 public:
  ProfileAgentContext(std::unique_ptr<ProfileUtilityContext> context,
                      std::size_t agent)
      : context_(std::move(context)), agent_(agent) {}

  [[nodiscard]] double utility(double bid, double execution) const override {
    return context_->utility(agent_, bid, execution);
  }

 private:
  std::unique_ptr<ProfileUtilityContext> context_;
  std::size_t agent_;
};

}  // namespace

std::unique_ptr<AgentUtilityContext> Mechanism::make_utility_context(
    const model::LatencyFamily& family, double arrival_rate,
    const model::BidProfile& base, std::size_t agent) const {
  auto context = make_profile_context(family, arrival_rate, base);
  if (context == nullptr) return nullptr;
  LBMV_REQUIRE(agent < base.size(), "agent index out of range");
  return std::make_unique<ProfileAgentContext>(std::move(context), agent);
}

std::unique_ptr<ProfileUtilityContext> Mechanism::make_profile_context(
    const model::LatencyFamily& family, double arrival_rate,
    const model::BidProfile& base) const {
  const PaymentRule rule = payment_rule();
  switch (classify_round(family, *allocator_)) {
    case EngineKind::kLinearPr:
      return std::make_unique<LinearPrProfileContext>(rule, arrival_rate,
                                                      base);
    case EngineKind::kMm1:
      if (rule == PaymentRule::kArcherTardos) return nullptr;
      return std::make_unique<Mm1PrProfileContext>(rule, arrival_rate, base);
    case EngineKind::kWorkload:
      if (rule == PaymentRule::kArcherTardos) return nullptr;
      return std::make_unique<WorkloadProfileContext>(
          rule, static_cast<const model::WorkloadFamily&>(family).gamma(),
          arrival_rate, base);
    case EngineKind::kGeneric:
      break;
  }
  return nullptr;  // no closed form; callers fall back to run() per deviation
}

std::shared_ptr<const alloc::Allocator> default_allocator() {
  return std::make_shared<alloc::PRAllocator>();
}

}  // namespace lbmv::core
