// Differential tests for the vectorized round engine and its block kernels.
//
// The contract under test (DESIGN.md §12): on the linear-family /
// PR-allocator configuration the vectorized engine agrees with the generic
// reference path (the same mechanism over the GenericPath seam) to a
// bounded relative error of 1e-9 on every published value — the engine
// reassociates S, computes both latency totals in closed form and
// multiplies rates by one precomputed share, each an O(n·eps)
// perturbation.  The block grid and every reduction tree
// are fixed, so outcomes are bit-identical across shard and thread counts,
// and invalid inputs throw the generic path's diagnostics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/pr_simd.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/simd.h"
#include "lbmv/util/thread_pool.h"
#include "support/generic_path.h"

namespace {

using lbmv::core::ArcherTardosMechanism;
using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundOptions;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;

/// The engine's documented cross-engine bound (DESIGN.md §12).  The
/// measured deviation is ~1e-13 at n = 10^6; 1e-9 is the contract.
constexpr double kUlpBound = 1e-9;

struct Profile {
  std::vector<double> bids;
  std::vector<double> executions;
};

/// Log-uniform bids over a wide dynamic range, executions correlated but
/// distinct, so neither plane is degenerate and S spans decades with n.
Profile random_profile(std::size_t n, std::uint64_t seed, double lo = 0.2,
                       double hi = 20.0) {
  lbmv::util::Rng rng(seed);
  Profile p;
  p.bids.resize(n);
  p.executions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.bids[i] = std::exp(rng.uniform(std::log(lo), std::log(hi)));
    p.executions[i] = p.bids[i] * std::exp(rng.uniform(-0.5, 0.5));
  }
  return p;
}

void run_with(const Mechanism& m, double rate, const Profile& p,
              MechanismOutcome& out, RoundWorkspace& ws,
              const RoundOptions& options = {}) {
  const lbmv::model::LinearFamily family;
  m.run_into(family, rate, p.bids, p.executions, out, ws, options);
}

double rel_err(double a, double b, double floor = 1e-300) {
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) / scale;
}

/// Largest relative discrepancy over every published value of two outcomes.
/// \p floor sets the smallest magnitude a discrepancy is measured against:
/// 0 demands per-field relative agreement; passing the round's latency
/// scale L* instead measures deviations against the magnitude the payment
/// terms are differences *of*, which is the meaningful bound when extreme
/// bid ranges make a payment's own magnitude cancel (e.g. VCG's externality
/// of a negligible agent).
double max_outcome_rel_err(const MechanismOutcome& a,
                           const MechanismOutcome& b, double floor = 0.0) {
  EXPECT_EQ(a.agents.size(), b.agents.size());
  EXPECT_EQ(a.allocation.size(), b.allocation.size());
  double worst = 0.0;
  worst = std::max(worst, rel_err(a.actual_latency, b.actual_latency, floor));
  worst = std::max(worst,
                   rel_err(a.reported_latency, b.reported_latency, floor));
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    worst = std::max(worst, rel_err(a.allocation[i], b.allocation[i]));
    worst = std::max(worst, rel_err(a.agents[i].allocation,
                                    b.agents[i].allocation));
    worst = std::max(worst, rel_err(a.agents[i].compensation,
                                    b.agents[i].compensation, floor));
    worst = std::max(worst,
                     rel_err(a.agents[i].bonus, b.agents[i].bonus, floor));
    worst = std::max(worst,
                     rel_err(a.agents[i].payment, b.agents[i].payment, floor));
    worst = std::max(worst, rel_err(a.agents[i].valuation,
                                    b.agents[i].valuation, floor));
    worst = std::max(worst,
                     rel_err(a.agents[i].utility, b.agents[i].utility, floor));
  }
  return worst;
}

/// Every mechanism over \p allocator: the PR allocator for the engine, the
/// seam around it for the generic reference.
std::vector<std::unique_ptr<Mechanism>> all_mechanisms(
    const std::shared_ptr<const lbmv::alloc::Allocator>& allocator) {
  std::vector<std::unique_ptr<Mechanism>> ms;
  ms.push_back(std::make_unique<CompBonusMechanism>(allocator));
  ms.push_back(
      std::make_unique<CompBonusMechanism>(allocator, CompensationBasis::kBid));
  ms.push_back(std::make_unique<VcgMechanism>(allocator));
  ms.push_back(std::make_unique<ArcherTardosMechanism>(allocator));
  ms.push_back(std::make_unique<NoPaymentMechanism>(allocator));
  return ms;
}

std::vector<std::unique_ptr<Mechanism>> engine_mechanisms() {
  return all_mechanisms(lbmv::core::default_allocator());
}

std::vector<std::unique_ptr<Mechanism>> generic_mechanisms() {
  return all_mechanisms(
      lbmv::testing::generic_path(lbmv::core::default_allocator()));
}

// ---------------------------------------------------------------------------
// Differential: vectorized engine vs generic path, every mechanism, both
// bases.

TEST(SimdKernels, MatchesGenericPathAcrossMechanismsAndSizes) {
  // Sizes cover: below one vector, exact vector multiples, every tail
  // residue mod 4 (the lane count), and spans into multiple 8-agent steps.
  const std::size_t sizes[] = {2, 3, 4, 5, 7, 8, 9, 64, 100, 257, 1023,
                               1024, 1025};
  const auto engines = engine_mechanisms();
  const auto generics = generic_mechanisms();
  for (std::size_t k = 0; k < engines.size(); ++k) {
    const Mechanism& m = *engines[k];
    for (const std::size_t n : sizes) {
      const Profile p = random_profile(n, 1000 + n);
      MechanismOutcome generic_out, simd_out;
      RoundWorkspace generic_ws, simd_ws;
      run_with(*generics[k], 9.0, p, generic_out, generic_ws);
      run_with(m, 9.0, p, simd_out, simd_ws);
      EXPECT_LE(max_outcome_rel_err(generic_out, simd_out), kUlpBound)
          << m.name() << " n=" << n;
    }
  }
}

TEST(SimdKernels, MatchesGenericPathOnBoundaryBids) {
  // Extreme dynamic range: 1e-8 .. 1e8 bids stress S against individual
  // 1/b_i and push the leave-one-out denominators toward the guard.
  const auto engines = engine_mechanisms();
  const auto generics = generic_mechanisms();
  for (std::size_t k = 0; k < engines.size(); ++k) {
    const Mechanism* m = engines[k].get();
    const Profile p = random_profile(301, 77, 1e-8, 1e8);
    MechanismOutcome generic_out, simd_out;
    RoundWorkspace generic_ws, simd_ws;
    run_with(*generics[k], 3.5, p, generic_out, generic_ws);
    run_with(*m, 3.5, p, simd_out, simd_ws);
    // Measured against the round's latency scale: a 10^16 dynamic range in
    // bids makes some payments (an externality of a negligible agent)
    // cancel below their constituents, where per-field relative agreement
    // is not a property either engine has.
    const double floor = std::abs(generic_out.reported_latency);
    EXPECT_LE(max_outcome_rel_err(generic_out, simd_out, floor), kUlpBound)
        << m->name();
  }
}

TEST(SimdKernels, ReciprocalBlockFlagsNonPositiveLanes) {
  Profile p = random_profile(37, 8);
  std::vector<double> inv(37);
  auto part = lbmv::alloc::simd::pr_reciprocal_block(p.bids, p.executions, inv);
  EXPECT_TRUE(part.bids_valid);
  EXPECT_TRUE(part.executions_valid);
  p.bids[17] = 0.0;
  p.executions[36] = std::numeric_limits<double>::quiet_NaN();  // tail lane
  part = lbmv::alloc::simd::pr_reciprocal_block(p.bids, p.executions, inv);
  EXPECT_FALSE(part.bids_valid);
  EXPECT_FALSE(part.executions_valid);
  // +inf is positive but not finite: flagged in a vector lane and the tail.
  p = random_profile(37, 8);
  p.bids[3] = std::numeric_limits<double>::infinity();
  p.executions[36] = std::numeric_limits<double>::infinity();
  part = lbmv::alloc::simd::pr_reciprocal_block(p.bids, p.executions, inv);
  EXPECT_FALSE(part.bids_valid);
  EXPECT_FALSE(part.executions_valid);
}

// ---------------------------------------------------------------------------
// Shard invariance: the fixed block grid and block-order reduction make the
// outcome bit-identical for ANY shard count on ANY pool.

TEST(SimdKernels, ShardCountNeverChangesBits) {
  // Spans four blocks (kShardBlock = 4096) with a ragged final block.
  const std::size_t n = 3 * lbmv::core::kShardBlock + 1234;
  const Profile p = random_profile(n, 11);
  const auto mechanisms = engine_mechanisms();
  lbmv::util::ThreadPool two(2), four(4);
  for (const auto& m : mechanisms) {
    MechanismOutcome serial_out;
    RoundWorkspace serial_ws;
    run_with(*m, 7.0, p, serial_out, serial_ws, RoundOptions{1, nullptr});
    const struct {
      std::size_t shards;
      lbmv::util::ThreadPool* pool;
    } fanouts[] = {{2, &two}, {8, &four}, {0, &four}};
    for (const auto& f : fanouts) {
      MechanismOutcome out;
      RoundWorkspace ws;
      run_with(*m, 7.0, p, out, ws, RoundOptions{f.shards, f.pool});
      ASSERT_EQ(out.agents.size(), serial_out.agents.size());
      EXPECT_EQ(0, std::memcmp(out.agents.data(), serial_out.agents.data(),
                               n * sizeof(lbmv::core::AgentOutcome)))
          << m->name() << " shards=" << f.shards;
      EXPECT_EQ(0, std::memcmp(out.allocation.rates().data(),
                               serial_out.allocation.rates().data(),
                               n * sizeof(double)))
          << m->name() << " shards=" << f.shards;
      EXPECT_EQ(out.actual_latency, serial_out.actual_latency) << m->name();
      EXPECT_EQ(out.reported_latency, serial_out.reported_latency)
          << m->name();
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse across different mechanisms and sizes stays consistent
// (the plane-recycling and 4K-dodge offsets must never leak stale state).

TEST(SimdKernels, WorkspaceReuseAcrossSizesAndRules) {
  const auto engines = engine_mechanisms();
  const auto generics = generic_mechanisms();
  MechanismOutcome simd_out;
  RoundWorkspace simd_ws;  // shared across every run below
  const std::size_t sizes[] = {1024, 17, 513, 1024, 64};
  for (const std::size_t n : sizes) {
    for (std::size_t k = 0; k < engines.size(); ++k) {
      const Profile p = random_profile(n, 2000 + n);
      MechanismOutcome generic_out;
      RoundWorkspace generic_ws;
      run_with(*generics[k], 5.0, p, generic_out, generic_ws);
      run_with(*engines[k], 5.0, p, simd_out, simd_ws);
      EXPECT_LE(max_outcome_rel_err(generic_out, simd_out), kUlpBound)
          << engines[k]->name() << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Diagnostics: the vectorized engine re-runs scalar validation on mask
// failure, so messages match the generic path's byte for byte.

TEST(SimdKernels, InvalidInputsThrowGenericPathDiagnostics) {
  const lbmv::model::LinearFamily family;
  CompBonusMechanism m;
  MechanismOutcome out;
  RoundWorkspace ws;
  {
    Profile p = random_profile(100, 21);
    p.bids[63] = -1.0;
    EXPECT_THROW(m.run_into(family, 2.0, p.bids, p.executions, out, ws),
                 lbmv::util::PreconditionError);
  }
  {
    Profile p = random_profile(100, 22);
    p.executions[99] = 0.0;  // scalar-tail lane
    EXPECT_THROW(m.run_into(family, 2.0, p.bids, p.executions, out, ws),
                 lbmv::util::PreconditionError);
  }
  {
    // A subnormal bid overflows 1/b to infinity: the generic path dies in
    // the Allocation constructor, and the vectorized engine must route its
    // masked failure through the same checked constructor.
    Profile p = random_profile(8, 23);
    p.bids[3] = 5e-324;
    try {
      m.run_into(family, 2.0, p.bids, p.executions, out, ws);
      FAIL() << "expected non-finite rates to throw";
    } catch (const lbmv::util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Backend plumbing.

TEST(SimdKernels, BackendNameMatchesCompiledBackend) {
  const char* name = lbmv::core::vector_backend_name();
  ASSERT_NE(name, nullptr);
  EXPECT_STREQ(name, lbmv::util::simd::kAvx2 ? "avx2" : "scalar-4lane");
}

TEST(SimdKernels, MaskPrimitivesMatchOrderedCompareSemantics) {
  namespace v = lbmv::util::simd;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const v::DVec a = v::load((const double[]){1.0, 2.0, 3.0, 4.0});
  const v::DVec b = v::load((const double[]){0.5, 2.0, nan, -1.0});
  // a > b holds on lanes 0 and 3 only: equal lanes and NaN lanes fail.
  v::DVec m = v::mask_greater(a, b);
  EXPECT_FALSE(v::mask_all_true(m));
  EXPECT_TRUE(v::mask_all_true(v::mask_all()));
  EXPECT_FALSE(v::mask_all_true(v::mask_and(v::mask_all(), m)));
  const v::DVec big = v::set1(100.0);
  EXPECT_TRUE(v::mask_all_true(v::mask_greater(big, a)));
  EXPECT_TRUE(v::all_greater(big, a));
  EXPECT_FALSE(v::all_greater(big, v::set1(nan)));
}

}  // namespace
