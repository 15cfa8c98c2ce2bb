#pragma once

/// \file pr_simd.h
/// Vectorized reciprocal block kernel for the PR closed forms (DESIGN.md
/// §12).  The per-agent leave-one-out and Archer–Tardos terms are computed
/// in-register by the round engine's fused publish (core/rule_kernel.h).
///
/// The kernel processes one contiguous block of agents with the 4-lane
/// vectors of util/simd.h and a *fixed* in-block reduction tree: two vector
/// accumulators over 8-agent steps, one leftover full vector into the first
/// accumulator, the fixed horizontal sum (l0+l1)+(l2+l3) of their lane-wise
/// total, then any <4-agent tail appended scalar in index order.  Because
/// the tree depends only on the block's length — never on thread or shard
/// count — the sharded round engine (core/simd_round.h) gets bit-identical
/// results for any fan-out by cutting agents into fixed-size blocks and
/// reducing the returned partials in block order.
///
/// Validation is by mask, not by throw: the kernel reports "every lane
/// positive and finite" flags and the caller re-runs the scalar validation
/// loop on failure so the diagnostic (message, offending agent) is
/// byte-identical to the generic path's.  NaNs fail the ordered compares
/// and are flagged like non-positive values.

#include <cstddef>
#include <span>

namespace lbmv::alloc::simd {

/// Result of one reciprocal block: the block's partial sums under the fixed
/// tree, plus whether every entry of each input plane is positive and finite.
struct ReciprocalPartial {
  double inverse_sum = 0.0;  ///< partial S      = sum 1/b_i
  double exec_weight = 0.0;  ///< partial W      = sum (e_i * inv_i) * inv_i
  bool bids_valid = true;
  bool executions_valid = true;
};

/// inv_out[i] = 1.0 / bids[i] for the whole block (the same IEEE division
/// the generic path performs, so downstream consumers of 1/b_i see the same
/// bits), accumulating the block's partial inverse sum AND the partial
/// execution weight W = sum (e_i * inv_i) * inv_i.  W is what makes the
/// round engine single-reduction: with the PR closed form x_i = inv_i/S * R,
/// the verified latency total factors as L(x, e) = (R/S)^2 * W, so the
/// engine needs no second reduction pass over the planes.  All three spans
/// must have the block's length.
[[nodiscard]] ReciprocalPartial pr_reciprocal_block(
    std::span<const double> bids, std::span<const double> executions,
    std::span<double> inv_out);

}  // namespace lbmv::alloc::simd
