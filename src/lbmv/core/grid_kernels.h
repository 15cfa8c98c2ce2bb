#pragma once

/// \file grid_kernels.h
/// The lane-parallel deviation-grid driver (DESIGN.md §13).
///
/// Every strategic sweep in the repo — best-response scans, audit grids,
/// learning counterfactuals, tournament regret probes — evaluates ONE
/// agent's utility at MANY candidate bids against the same frozen profile.
/// A context with a closed-form deviation utility writes it once as a
/// template over the lane type (LaneUtility below); its utility() runs the
/// template on one candidate and its ProfileUtilityContext grid overrides
/// hand grid_sweep the 4-lane instantiation, so the swept utilities equal
/// the scalar oracle bit for bit by construction.
///
/// Validity is tracked per 4-lane block with AND-accumulated masks — the
/// candidate bids must be positive and finite, and each family adds its own
/// lane checks (a finite result, or the M/M/1 all-active fast path).  A
/// block with any failed lane is re-evaluated through the scalar oracle,
/// which either computes the off-path value or raises the canonical typed
/// PreconditionError for the first offending candidate.  The best-response
/// reduction keeps a running 4-lane (max, argmax) pair with blend-by-mask
/// updates and resolves ties toward the smallest index, which reproduces a
/// strictly-greater first-wins scalar scan exactly — the tie-break contract
/// minimize_scan and the audits rely on.

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "lbmv/core/mechanism.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {

/// One candidate's (or four candidates') deviation utility, with the lanes
/// the closed form covers.
template <typename T>
struct LaneUtility {
  T utility;
  util::simd::Mask<T> ok;
};

/// Number of padded lanes a sweep of \p grid_size candidates evaluates (the
/// final partial 4-lane block is padded with a duplicate of the last
/// candidate; padded lanes can never win the argmax because the genuine
/// copy has the smaller index).
[[nodiscard]] inline std::size_t grid_lanes_padded(std::size_t grid_size) {
  constexpr std::size_t kLanes = util::simd::kLanes;
  return (kLanes - grid_size % kLanes) % kLanes;
}

/// The typed errors every sweep raises before touching its context: an
/// agent index out of range, a non-positive or non-finite execution value.
inline void require_grid_query(std::size_t agents, std::size_t agent,
                               double execution) {
  LBMV_REQUIRE(agent < agents, "agent index out of range");
  LBMV_REQUIRE(execution > 0.0 && std::isfinite(execution),
               "execution values must be positive and finite");
}

/// Sweep \p bids four at a time: lanes(DVec) returns a LaneUtility<DVec>,
/// scalar(double) is the oracle for blocks with any lane off the closed
/// form.  Writes the utilities to \p out when non-null and the first-index
/// argmax to \p best when non-null (a non-empty grid is then required).
template <typename Lanes, typename Scalar>
void grid_sweep(std::span<const double> bids, double* out, GridBest* best,
                const Lanes& lanes, const Scalar& scalar) {
  namespace v = util::simd;
  using v::DVec;
  const std::size_t size = bids.size();
  LBMV_REQUIRE(best == nullptr || size > 0, "deviation grid must be non-empty");
  if (size == 0) return;
  if (obs::enabled()) {
    obs::StrategyProbes::get().grid_lanes_wasted.inc(grid_lanes_padded(size));
  }
  const double lane_offsets[v::kLanes] = {0.0, 1.0, 2.0, 3.0};
  const DVec base_idx = v::load(lane_offsets);
  DVec best_v = v::set1(-std::numeric_limits<double>::infinity());
  DVec best_i = v::zero();
  double padded[v::kLanes];
  double tmp[v::kLanes];
  for (std::size_t k = 0; k < size; k += v::kLanes) {
    const bool partial = k + v::kLanes > size;
    const double* block = bids.data() + k;
    if (partial) {
      // Padded tail: spare lanes duplicate the last candidate; their indices
      // exceed the genuine copy's, so the tie-break can never pick one.
      for (std::size_t l = 0; l < v::kLanes; ++l) {
        padded[l] = k + l < size ? bids[k + l] : bids[size - 1];
      }
      block = padded;
    }
    const DVec b = v::load(block);
    const LaneUtility<DVec> lane = lanes(b);
    DVec u = lane.utility;
    if (!v::mask_all_true(v::mask_and(lane.ok, v::mask_positive_finite(b)))) {
      // Off the closed form somewhere in this block: the scalar oracle owns
      // every lane (off-path values and the canonical typed errors alike).
      for (std::size_t l = 0; l < v::kLanes; ++l) tmp[l] = scalar(block[l]);
      u = v::load(tmp);
    }
    if (out != nullptr) {
      if (!partial) {
        v::store(out + k, u);
      } else {
        v::store(tmp, u);
        for (std::size_t l = 0; k + l < size; ++l) out[k + l] = tmp[l];
      }
    }
    if (best != nullptr) {
      const DVec idx = v::add(base_idx, v::set1(static_cast<double>(k)));
      const DVec m = v::mask_greater(u, best_v);
      best_v = v::select(m, u, best_v);
      best_i = v::select(m, idx, best_i);
    }
  }
  if (best != nullptr) {
    // Horizontal resolution: greatest utility, ties to the smallest index —
    // together with the strictly-greater lane updates this reproduces a
    // scalar first-wins scan in index order.
    double bv = v::lane(best_v, 0);
    double bi = v::lane(best_i, 0);
    for (std::size_t l = 1; l < v::kLanes; ++l) {
      const double lv = v::lane(best_v, l);
      const double li = v::lane(best_i, l);
      if (lv > bv || (lv == bv && li < bi)) {
        bv = lv;
        bi = li;
      }
    }
    best->index = static_cast<std::size_t>(bi);
    best->utility = bv;
  }
}

}  // namespace lbmv::core
