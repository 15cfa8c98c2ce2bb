#include "lbmv/core/simd_round.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/pr_simd.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/rule_kernel.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;

/// Tasks to fan the block grid into.  Never affects results (fixed grid,
/// block-order reduction) — only wall-clock.
std::size_t resolve_shards(std::size_t n, std::size_t nblocks,
                           const RoundOptions& options,
                           const util::ThreadPool& pool) {
  if (nblocks <= 1 || options.shards == 1) return 1;
  if (options.shards > 1) return std::min(options.shards, nblocks);
  if (n < kAutoShardMinAgents || pool.thread_count() <= 1) return 1;
  // One task per pool thread-quantum (4 chunks/thread, matching the pool's
  // own auto grain) keeps stragglers short without drowning in task churn.
  return std::min(nblocks, pool.thread_count() * 4);
}

/// Slack appended to the reciprocal plane so its start can slide by up to
/// one 4 KiB page (see dodge_4k_offset).
constexpr std::size_t kPlanePadDoubles = 512;

/// Start offset (in doubles, 64-byte steps) for the reciprocal plane inside
/// its padded buffer, chosen so no streaming load the kernels issue sits in
/// the 4K-alias shadow of a plane they are simultaneously storing to.
///
/// Both passes pair a load stream with a store stream at the same index:
/// P1 loads bids/executions while storing inv, P2 loads inv while storing
/// the rate plane x.  Out-of-order execution runs the loads a few hundred
/// bytes ahead of the stores, and the core flags a false dependence whenever
/// a younger load matches an in-flight older store in address bits [11:0] —
/// so if two planes' bases coincide modulo 4 KiB (common: same-sized heap
/// blocks land at the same page offset), EVERY iteration stalls.  The load
/// at q[j] conflicts with the store at p[i<=j] when (q - p) mod 4096 falls
/// in [0, window); sliding inv — the one plane the engine owns on both
/// sides — clears all three pairs at once.  Pure memory placement: the
/// kernels compute identical values at any offset.
std::size_t dodge_4k_offset(const double* plane, const double* x_hint,
                            const double* bids, const double* execs) {
  const auto page = [](const double* p) {
    return static_cast<std::uintptr_t>(reinterpret_cast<std::uintptr_t>(p) &
                                       4095u);
  };
  // Speculation depth (~store-buffer reach) plus one vector on each side.
  constexpr std::uintptr_t kWindow = 576 + 32;
  const auto clear_of = [&](const double* other, std::uintptr_t inv_page) {
    if (other == nullptr) return true;
    const std::uintptr_t d = (page(other) + 4096u - inv_page) & 4095u;
    return d > kWindow && d < 4096u - 32u;
  };
  const std::uintptr_t base = page(plane);
  for (std::size_t off = 0; off < kPlanePadDoubles; off += 8) {
    const std::uintptr_t inv_page = (base + 8 * off) & 4095u;
    if (clear_of(x_hint, inv_page) && clear_of(bids, inv_page) &&
        clear_of(execs, inv_page)) {
      return off;
    }
  }
  return 0;  // unreachable: 3 windows exclude < 64 of the 64 candidates
}

/// Run body(b) over every block, inline when serial so the fast path does
/// not touch the pool (or the heap) at all.
template <typename Body>
void for_blocks(std::size_t nblocks, std::size_t shards,
                util::ThreadPool& pool, const Body& body) {
  if (shards <= 1) {
    for (std::size_t b = 0; b < nblocks; ++b) body(b);
    return;
  }
  const std::size_t grain = (nblocks + shards - 1) / shards;
  pool.parallel_for(0, nblocks, body, grain);
}

// ---- fused allocate + rule + publish -------------------------------------
//
// One pass per block turns the reciprocal plane into everything the round
// outputs: the rate x_i = inv_i / S * R (stored — it is the outcome's
// allocation plane), the rule's terms in-register, and the six AgentOutcome
// fields through rule_kernel.h's publish driver.  No cost or leave-one-out
// plane is ever materialized; per agent the pass reads 16–24 bytes of
// planes and writes its 8-byte rate plus one 48-byte record.
//
// The rate uses one precomputed reciprocal share, x = inv * (R/S), which
// replaces the generic path's per-agent division (inv/S)*R — the round's
// hottest divider work — at a cost of <= 2 ulp on x.  Every other value
// applies exactly the generic fill_payments' operand order on that x —
// cost = (e*x)*x, comp = (b*x)*x (Archer–Tardos: b*(x*x)),
// loo = R^2/(S - inv) — so the leave-one-out / tail terms still match the
// generic path bit-for-bit at equal S, while x-derived values and the
// closed-form latency totals (see run_linear_pr_vectorized) sit within the
// DESIGN.md §12 ulp bound.
//
// Validation is by mask: a block reports false unless every rate is finite
// (1/b can overflow to inf for subnormal bids, and the generic path's
// Allocation constructor rejects that) and every rule guard held
// (leave-one-out cancellation gap / Archer–Tardos tail positivity).  On
// false the published lanes are garbage; the caller re-runs the scalar
// checks and throws their canonical diagnostic, discarding them.  Rates
// are positive by construction (positive inv, S, R), so "finite" is the
// single ordered compare x < inf, which NaN also fails.
template <PaymentRule kRule>
[[nodiscard]] bool publish_linear_block(
    std::size_t n, const double* inv, const double* bids, const double* execs,
    double inverse_sum, double share, double arrival_rate, double min_gap,
    double actual_total, double reported_total, double* x_out,
    AgentOutcome* agents) {
  const double r2 = arrival_rate * arrival_rate;
  return publish_block<kRule>(
      n, actual_total, reported_total, agents, [&](auto lane, std::size_t i) {
        using T = decltype(lane);
        const T r = v::load_as<T>(inv + i);
        const T x = v::mul(r, v::splat<T>(share));
        v::store(x_out + i, x);
        RuleTerms<T> t;
        t.x = x;
        t.ok = v::mask_greater(
            v::splat<T>(std::numeric_limits<double>::infinity()), x);
        t.cost_e = v::mul(v::mul(v::load_as<T>(execs + i), x), x);
        t.comp = v::splat<T>(0.0);
        t.transfer = v::splat<T>(0.0);
        if constexpr (kRule == PaymentRule::kCompBonusExecution) {
          t.comp = t.cost_e;
        } else if constexpr (kRule == PaymentRule::kArcherTardos) {
          t.comp = v::mul(v::load_as<T>(bids + i), v::mul(x, x));
        } else if constexpr (kRule != PaymentRule::kNoPayment) {
          t.comp = v::mul(v::mul(v::load_as<T>(bids + i), x), x);
        }
        if constexpr (uses_leave_one_out(kRule)) {
          const T denom = v::sub(v::splat<T>(inverse_sum), r);
          t.ok = v::mask_and(t.ok,
                             v::mask_greater(denom, v::splat<T>(min_gap)));
          t.transfer = v::div(v::splat<T>(r2), denom);
        } else if constexpr (kRule == PaymentRule::kArcherTardos) {
          // R^2 / (s (1 + b s)), s = S - inv: archer_tardos_tail_integral.
          const T s_rest = v::sub(v::splat<T>(inverse_sum), r);
          t.ok = v::mask_and(t.ok,
                             v::mask_greater(s_rest, v::splat<T>(0.0)));
          t.transfer = v::div(
              v::splat<T>(r2),
              v::mul(s_rest,
                     v::add(v::splat<T>(1.0),
                            v::mul(v::load_as<T>(bids + i), s_rest))));
        }
        return t;
      });
}

}  // namespace

const char* vector_backend_name() { return util::simd::backend_name(); }

SimdRoundStats run_linear_pr_vectorized(PaymentRule rule, double arrival_rate,
                                        std::span<const double> bids,
                                        std::span<const double> executions,
                                        MechanismOutcome& out,
                                        RoundWorkspace& ws,
                                        const RoundOptions& options) {
  const std::size_t n = bids.size();
  const std::size_t nblocks = (n + kShardBlock - 1) / kShardBlock;
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::global();
  const std::size_t shards = resolve_shards(n, nblocks, options, pool);

  ws.inv_bids.resize(n + kPlanePadDoubles);
  ws.block_partials.resize(2 * nblocks);
  ws.block_ok.resize(nblocks);
  // Slide the reciprocal plane clear of 4K-alias shadows (dodge_4k_offset).
  // The rate-plane hint is last round's buffer — the recycle below reuses
  // it whenever capacity allows, and a stale hint costs only that one
  // round's placement, never correctness.
  const std::size_t inv_off = dodge_4k_offset(
      ws.inv_bids.data(), out.allocation.rates().data(), bids.data(),
      executions.data());

  // ---- P1: reciprocal plane, reductions, validation masks ----------------
  const std::span<double> inv{ws.inv_bids.data() + inv_off, n};
  for_blocks(nblocks, shards, pool, [&](std::size_t b) {
    const std::size_t lo = b * kShardBlock;
    const std::size_t len = std::min(n - lo, kShardBlock);
    const alloc::simd::ReciprocalPartial part = alloc::simd::pr_reciprocal_block(
        bids.subspan(lo, len), executions.subspan(lo, len),
        inv.subspan(lo, len));
    ws.block_partials[2 * b] = part.inverse_sum;
    ws.block_partials[2 * b + 1] = part.exec_weight;
    ws.block_ok[b] =
        static_cast<unsigned char>((part.bids_valid ? 1u : 0u) |
                                   (part.executions_valid ? 2u : 0u));
  });
  bool inputs_ok = true;
  for (std::size_t b = 0; b < nblocks; ++b) {
    inputs_ok = inputs_ok && ws.block_ok[b] == 3u;
  }
  if (!inputs_ok) {
    // Re-run the scalar validation loop so the diagnostic names the first
    // offender in the same order the generic path would.
    for (std::size_t i = 0; i < n; ++i) {
      require_valid_inputs(bids[i], executions[i]);
    }
  }
  double inverse_sum = 0.0;
  double exec_weight = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    inverse_sum += ws.block_partials[2 * b];
    exec_weight += ws.block_partials[2 * b + 1];
  }

  // Latency totals in closed form: with x_i = inv_i/S * R the sums factor,
  //   L(x, b) = sum (b_i x_i) x_i = R^2 / S              (the PR optimum L*)
  //   L(x, e) = sum (e_i x_i) x_i = (R/S)^2 * W,   W = sum (e_i inv_i) inv_i
  // so no second reduction pass over the planes is needed.  Versus the
  // generic left folds both totals are within the DESIGN.md §12 error bound.
  const double share = arrival_rate / inverse_sum;
  const double actual_total = (share * share) * exec_weight;
  const double reported_total = share * arrival_rate;

  // ---- P2: fused allocation + rule terms + transposed AoS publish --------
  const bool needs_loo = uses_leave_one_out(rule);
  if (needs_loo && obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.loo_batches.inc();
    probes.loo_batch_size.record(static_cast<double>(n));
  }
  const double min_gap = inverse_sum * alloc::kLeaveOneOutMinRelativeGap;
  // Recycle the previous outcome's rate plane: after the first round at
  // this n, resize() is a no-op and the pass allocates nothing.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  double* const x = rates.data();
  out.agents.resize(n);
  AgentOutcome* const agents = out.agents.data();
  for_blocks(nblocks, shards, pool, [&](std::size_t b) {
    const std::size_t lo = b * kShardBlock;
    const std::size_t len = std::min(n - lo, kShardBlock);
    const bool ok = dispatch_rule(rule, [&](auto kind) {
      return publish_linear_block<decltype(kind)::value>(
          len, inv.data() + lo, bids.data() + lo, executions.data() + lo,
          inverse_sum, share, arrival_rate, min_gap, actual_total,
          reported_total, x + lo, agents + lo);
    });
    ws.block_ok[b] = ok ? 1u : 0u;
  });
  bool all_ok = true;
  for (std::size_t b = 0; b < nblocks; ++b) {
    all_ok = all_ok && ws.block_ok[b] != 0u;
  }
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  if (all_ok) {
    out.allocation = model::Allocation::from_validated(std::move(rates));
    return SimdRoundStats{shards};
  }
  // A rate or a rule guard failed.  The checked constructor raises the
  // generic path's rate diagnostic first (it validates before any payment
  // guard fires there too); otherwise the scalar guard, re-run on the same
  // operands, names the first offending agent.
  out.allocation = model::Allocation(std::move(rates));
  if (needs_loo) {
    ws.leave_one_out.resize(n);
    alloc::pr_leave_one_out_from_sum(inverse_sum, bids, arrival_rate,
                                     ws.leave_one_out);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      (void)archer_tardos_tail_integral(bids[i], inverse_sum - inv[i],
                                        arrival_rate);
    }
  }
  LBMV_ASSERT(false, "a failed round mask must raise a typed diagnostic");
  return SimdRoundStats{shards};
}

}  // namespace lbmv::core
