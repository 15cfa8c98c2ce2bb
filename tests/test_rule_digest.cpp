// Pinned bit-stability digests for every payment rule an exact engine
// implements.  FNV-1a over the raw bits of
//
//   * Mechanism::run_into outcomes for all 13 fused (engine x rule) pairs —
//     linear-PR x 5, M/M/1 x 4, workload x 4 — on seeded profiles at sizes
//     with every vector-tail length (n mod 4 = 0..3);
//   * ProfileUtilityContext::utility over a deviation grid (bids and
//     executions around each agent's type) for every (context x rule) pair
//     except linear-PR x VCG, whose context association is pinned by the
//     1e-9 differentials instead.
//
// The engines, contexts and grid kernels share one rule kernel, so these
// digests hold bit for bit under both LBMV_SIMD backends (util/simd.h
// defines the two to be bit-identical) and across refactors of the shared
// code.  A deviation that raises is hashed as a fixed marker, so a change in
// which deviations are refused also moves the digest.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::PaymentRule;
using lbmv::core::RoundWorkspace;
using lbmv::model::BidProfile;

enum class Engine { kLinear, kMm1, kWorkload };

constexpr double kGamma = 0.3;
constexpr std::size_t kSizes[] = {2, 3, 5, 8, 13, 35};

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(double v) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
};

std::unique_ptr<Mechanism> make(Engine engine, PaymentRule rule) {
  std::shared_ptr<const lbmv::alloc::Allocator> allocator;
  switch (engine) {
    case Engine::kLinear:
      allocator = lbmv::core::default_allocator();
      break;
    case Engine::kMm1:
      allocator = std::make_shared<lbmv::alloc::MM1Allocator>();
      break;
    case Engine::kWorkload:
      allocator = std::make_shared<lbmv::alloc::WorkloadAllocator>();
      break;
  }
  switch (rule) {
    case PaymentRule::kCompBonusExecution:
      return std::make_unique<lbmv::core::CompBonusMechanism>(allocator);
    case PaymentRule::kCompBonusBid:
      return std::make_unique<lbmv::core::CompBonusMechanism>(
          allocator, lbmv::core::CompensationBasis::kBid);
    case PaymentRule::kVcg:
      return std::make_unique<lbmv::core::VcgMechanism>(allocator);
    case PaymentRule::kArcherTardos:
      return std::make_unique<lbmv::core::ArcherTardosMechanism>(allocator);
    case PaymentRule::kNoPayment:
      return std::make_unique<lbmv::core::NoPaymentMechanism>(allocator);
  }
  return nullptr;
}

std::unique_ptr<lbmv::model::LatencyFamily> family_of(Engine engine) {
  switch (engine) {
    case Engine::kLinear:
      return std::make_unique<lbmv::model::LinearFamily>();
    case Engine::kMm1:
      return std::make_unique<lbmv::model::MM1Family>();
    case Engine::kWorkload:
      return std::make_unique<lbmv::model::WorkloadFamily>(kGamma);
  }
  return nullptr;
}

/// Seeded profile with every computer active in the full set and in each
/// leave-one-out subsystem (M/M/1 types are mean service times in
/// [0.08, 0.12] under a 35% load), so every fused engine owns the round.
/// \p consistent pins executions to bids (the M/M/1 context's O(1) path).
BidProfile profile_for(Engine engine, std::size_t n, std::uint64_t seed,
                       bool consistent, double& rate) {
  lbmv::util::Rng rng(seed);
  BidProfile p;
  p.bids.resize(n);
  p.executions.resize(n);
  double capacity = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = engine == Engine::kMm1
                         ? rng.uniform(0.08, 0.12)
                         : std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
    p.bids[i] = t;
    p.executions[i] = consistent ? t : t * rng.uniform(0.8, 1.5);
    capacity += 1.0 / t;
  }
  rate = engine == Engine::kMm1 ? 0.35 * capacity : rng.uniform(2.0, 50.0);
  return p;
}

std::uint64_t round_digest(Engine engine, PaymentRule rule) {
  const auto mechanism = make(engine, rule);
  const auto family = family_of(engine);
  RoundWorkspace ws;
  MechanismOutcome out;
  Digest d;
  // Count fused nonlinear rounds, so a profile the M/M/1 engine declines
  // (and the generic path serves) fails loudly instead of pinning the
  // wrong engine.
  lbmv::obs::Registry::global().reset();
  lbmv::obs::set_enabled(true);
  std::uint64_t rounds = 0;
  for (const std::size_t n : kSizes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      double rate = 0.0;
      const BidProfile p = profile_for(engine, n, 100 * n + seed, seed == 1,
                                       rate);
      mechanism->run_into(*family, rate, p, out, ws);
      ++rounds;
      for (std::size_t i = 0; i < n; ++i) {
        const lbmv::core::AgentOutcome& a = out.agents[i];
        d.add(out.allocation[i]);
        d.add(a.allocation);
        d.add(a.compensation);
        d.add(a.bonus);
        d.add(a.payment);
        d.add(a.valuation);
        d.add(a.utility);
      }
      d.add(out.actual_latency);
      d.add(out.reported_latency);
    }
  }
  lbmv::obs::set_enabled(false);
  if (lbmv::obs::kCompiledIn && engine != Engine::kLinear) {
    const auto counters = lbmv::obs::Registry::global().snapshot().counters;
    const auto it = counters.find("lbmv_mech_nonlinear_rounds_total");
    EXPECT_TRUE(it != counters.end() && it->second == rounds)
        << "a nonlinear round left the fused engine";
  }
  return d.h;
}

std::uint64_t context_digest(Engine engine, PaymentRule rule) {
  const auto mechanism = make(engine, rule);
  const auto family = family_of(engine);
  constexpr double kBidMults[] = {0.3, 0.7, 0.95, 1.0, 1.4, 3.0};
  constexpr double kExecMults[] = {1.0, 1.3};
  Digest d;
  for (const std::size_t n : {std::size_t{3}, std::size_t{8}}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      double rate = 0.0;
      const BidProfile p = profile_for(engine, n, 700 + 10 * n + seed,
                                       seed == 1, rate);
      const auto ctx = mechanism->make_profile_context(*family, rate, p);
      EXPECT_NE(ctx, nullptr);
      if (ctx == nullptr) return 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (const double bm : kBidMults) {
          for (const double em : kExecMults) {
            try {
              d.add(ctx->utility(i, bm * p.bids[i], em * p.bids[i]));
            } catch (const lbmv::util::PreconditionError&) {
              d.add(-7.0e77);  // refused deviation marker
            }
          }
        }
      }
    }
  }
  return d.h;
}

struct Pin {
  Engine engine;
  PaymentRule rule;
  std::uint64_t digest;
};

void print_actual(const char* what, Engine engine, PaymentRule rule,
                  std::uint64_t got) {
  std::printf("%s engine=%d rule=%d digest=0x%016llxull\n", what,
              static_cast<int>(engine), static_cast<int>(rule),
              static_cast<unsigned long long>(got));
}

TEST(RuleDigest, FusedRoundsArePinned) {
  const Pin pins[] = {
      {Engine::kLinear, PaymentRule::kCompBonusExecution, 0xfeaf082ced0c6ae5ull},
      {Engine::kLinear, PaymentRule::kCompBonusBid, 0xd51d197c7298a2d0ull},
      {Engine::kLinear, PaymentRule::kVcg, 0xca4b30fee8ebd49cull},
      {Engine::kLinear, PaymentRule::kArcherTardos, 0xcb0a55544a118217ull},
      {Engine::kLinear, PaymentRule::kNoPayment, 0x475503aa5ecb845aull},
      {Engine::kMm1, PaymentRule::kCompBonusExecution, 0x52a4840e62540867ull},
      {Engine::kMm1, PaymentRule::kCompBonusBid, 0x02c1eff3c3ad7d42ull},
      {Engine::kMm1, PaymentRule::kVcg, 0xbf5e92fe983f6cbaull},
      {Engine::kMm1, PaymentRule::kNoPayment, 0x48e73f941ac7837full},
      {Engine::kWorkload, PaymentRule::kCompBonusExecution, 0x8f80aebb66643b41ull},
      {Engine::kWorkload, PaymentRule::kCompBonusBid, 0xd25419d56c0fc23full},
      {Engine::kWorkload, PaymentRule::kVcg, 0x19f21a73a670c503ull},
      {Engine::kWorkload, PaymentRule::kNoPayment, 0x48758716563939adull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = round_digest(pin.engine, pin.rule);
    if (got != pin.digest) print_actual("round", pin.engine, pin.rule, got);
    EXPECT_EQ(got, pin.digest) << "engine " << static_cast<int>(pin.engine)
                               << " rule " << static_cast<int>(pin.rule);
  }
}

TEST(RuleDigest, ProfileContextUtilitiesArePinned) {
  const Pin pins[] = {
      {Engine::kLinear, PaymentRule::kCompBonusExecution, 0xfa7728ed342dd812ull},
      {Engine::kLinear, PaymentRule::kCompBonusBid, 0xa3b0125f51b5a10eull},
      {Engine::kLinear, PaymentRule::kArcherTardos, 0xf68f3fbb3286e427ull},
      {Engine::kLinear, PaymentRule::kNoPayment, 0xe2bb123054a5f4bbull},
      {Engine::kMm1, PaymentRule::kCompBonusExecution, 0x07940f5d2c56a9ddull},
      {Engine::kMm1, PaymentRule::kCompBonusBid, 0xca5b43016420bfecull},
      {Engine::kMm1, PaymentRule::kVcg, 0x1f882870f4bebe7full},
      {Engine::kMm1, PaymentRule::kNoPayment, 0xb6d86db5bd6961f0ull},
      {Engine::kWorkload, PaymentRule::kCompBonusExecution, 0x67bea269829e363dull},
      {Engine::kWorkload, PaymentRule::kCompBonusBid, 0xf427ead453b7e8e1ull},
      {Engine::kWorkload, PaymentRule::kVcg, 0x5f7cd41b0fa2f70aull},
      {Engine::kWorkload, PaymentRule::kNoPayment, 0x7d71d2891fc92cd7ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = context_digest(pin.engine, pin.rule);
    if (got != pin.digest) print_actual("context", pin.engine, pin.rule, got);
    EXPECT_EQ(got, pin.digest) << "engine " << static_cast<int>(pin.engine)
                               << " rule " << static_cast<int>(pin.rule);
  }
}

}  // namespace
