// Ablation A2: computational cost of the mechanism (google-benchmark).
//
// The paper's protocol is centralised with O(n) messages; the computational
// bottleneck is the payment rule, which evaluates n leave-one-out optima
// (O(n^2) for the naive PR evaluation).  These microbenchmarks measure:
//   * the PR closed-form allocation (O(n)),
//   * the numeric convex allocator on the same instances,
//   * full compensation-and-bonus payment computation,
//   * a truthfulness audit grid, serial vs thread-pool parallel.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/dist/protocols.h"
#include "lbmv/game/wardrop.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/obs.h"
#include "lbmv/sim/engine.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/legacy_engine.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/replication.h"
#include "lbmv/sim/server.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"
#include "support/generic_path.h"

namespace {

std::vector<double> random_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

void BM_PrAllocate(benchmark::State& state) {
  const auto types = random_types(static_cast<std::size_t>(state.range(0)),
                                  42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbmv::alloc::pr_allocate(types, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrAllocate)->RangeMultiplier(4)->Range(4, 65536)->Complexity();

void BM_ConvexAllocate(benchmark::State& state) {
  const auto types = random_types(static_cast<std::size_t>(state.range(0)),
                                  42);
  const lbmv::model::LinearFamily family;
  const lbmv::alloc::ConvexAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(family, types, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexAllocate)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void BM_LeaveOneOutBatch(benchmark::State& state) {
  // The new payment-engine hot path: all n leave-one-out optima in one call
  // (closed form R^2 / (S - 1/t_i) for the PR/linear pairing — O(n) total).
  const auto types = random_types(static_cast<std::size_t>(state.range(0)),
                                  42);
  const lbmv::model::LinearFamily family;
  const lbmv::alloc::PRAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        allocator.leave_one_out_latencies(family, types, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeaveOneOutBatch)
    ->RangeMultiplier(4)
    ->Range(4, 65536)
    ->Complexity();

void BM_LeaveOneOutPerAgent(benchmark::State& state) {
  // The seed's formulation: one profile copy and one fresh re-solve per
  // agent — O(n^2).  Kept as the baseline the batch API is measured against.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto types = random_types(n, 42);
  const lbmv::model::LinearFamily family;
  const lbmv::alloc::PRAllocator allocator;
  for (auto _ : state) {
    std::vector<double> out(n);
    std::vector<double> rest;
    for (std::size_t i = 0; i < n; ++i) {
      rest.assign(types.begin(), types.end());
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      out[i] = allocator.optimal_latency(family, rest, 20.0);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeaveOneOutPerAgent)
    ->RangeMultiplier(4)
    ->Range(4, 4096)
    ->Complexity();

void BM_CompBonusRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 7), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto profile = lbmv::model::BidProfile::truthful(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(config, profile));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompBonusRound)->RangeMultiplier(4)->Range(4, 4096)->Complexity();

void BM_RunInto(benchmark::State& state) {
  // Allocation-free round kernel: same outcome as run() bit for bit, but
  // every scratch plane drawn from a caller-held workspace and the linear
  // family fused into closed forms (DESIGN.md §11).
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 7), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto profile = lbmv::model::BidProfile::truthful(config);
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  for (auto _ : state) {
    mechanism.run_into(config, profile, out, ws);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RunInto)->RangeMultiplier(4)->Range(4, 4096)->Complexity();

void BM_SingleRoundGeneric(benchmark::State& state) {
  // The generic reference path (the mechanism over the GenericPath seam):
  // the same-run baseline the vectorized engine benchmarks below are
  // measured against.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::LinearFamily family;
  const auto bids = random_types(n, 7);
  const lbmv::core::CompBonusMechanism mechanism(
      lbmv::testing::generic_path(lbmv::core::default_allocator()));
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  for (auto _ : state) {
    mechanism.run_into(family, 20.0, bids, bids, out, ws);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleRoundGeneric)
    ->RangeMultiplier(4)
    ->Range(1024, 1 << 20)
    ->Complexity();

void BM_SingleRoundSimd(benchmark::State& state) {
  // The vectorized engine, serial (DESIGN.md §12): two blocked SIMD passes,
  // closed-form totals, transposed publish.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::LinearFamily family;
  const auto bids = random_types(n, 7);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  const lbmv::core::RoundOptions serial{1, nullptr};
  for (auto _ : state) {
    mechanism.run_into(family, 20.0, bids, bids, out, ws, serial);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleRoundSimd)
    ->RangeMultiplier(4)
    ->Range(1024, 1 << 20)
    ->Complexity();

void BM_SingleRoundSimdSharded(benchmark::State& state) {
  // The vectorized engine with its agent axis fanned over the global pool
  // (auto shard count).  Bit-identical to the serial run by construction.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::LinearFamily family;
  const auto bids = random_types(n, 7);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  const lbmv::core::RoundOptions sharded{0, nullptr};
  for (auto _ : state) {
    mechanism.run_into(family, 20.0, bids, bids, out, ws, sharded);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleRoundSimdSharded)
    ->RangeMultiplier(4)
    ->Range(1024, 1 << 20)
    ->Complexity();

void BM_BatchRound(benchmark::State& state) {
  // SoA batch fan-out: 64 profiles per call, fanned over the global pool
  // with one reusable workspace per worker.  items/sec = mechanism rounds.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t profiles = 64;
  const lbmv::model::SystemConfig config(random_types(n, 7), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::core::ProfileBatch batch(n);
  batch.reserve(profiles);
  for (std::size_t b = 0; b < profiles; ++b) {
    const auto bids = random_types(n, 100 + b);
    batch.push_back(bids, bids);
  }
  lbmv::core::BatchOutcomes outcomes;
  for (auto _ : state) {
    mechanism.run_batch(config, batch, outcomes);
    benchmark::DoNotOptimize(outcomes[0].actual_latency);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(profiles));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BatchRound)->RangeMultiplier(4)->Range(4, 4096)->Complexity();

void BM_WardropEquilibrium(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lbmv::util::Rng rng(9);
  std::vector<std::unique_ptr<lbmv::model::LatencyFunction>> links;
  for (std::size_t i = 0; i < n; ++i) {
    links.push_back(std::make_unique<lbmv::model::AffineLatency>(
        rng.uniform(0.0, 3.0), rng.uniform(0.1, 2.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbmv::game::wardrop_equilibrium(links, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WardropEquilibrium)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_TreeDistributedRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 5), 20.0);
  const auto intents = lbmv::model::BidProfile::truthful(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbmv::dist::run_distributed_round(
        lbmv::dist::Topology::kTree, config, intents));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeDistributedRound)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_AuditSerial(benchmark::State& state) {
  const lbmv::model::SystemConfig config(random_types(16, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.parallel = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_agent(config, 0, options));
  }
}
BENCHMARK(BM_AuditSerial)->Unit(benchmark::kMillisecond);

void BM_AuditParallel(benchmark::State& state) {
  const lbmv::model::SystemConfig config(random_types(16, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.parallel = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_agent(config, 0, options));
  }
}
BENCHMARK(BM_AuditParallel)->Unit(benchmark::kMillisecond);

void BM_AuditAll(benchmark::State& state) {
  // Full-system audit with the incremental per-audit context (O(1) per grid
  // point) and agent-level parallelism.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_all(config, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AuditAll)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_AuditAllLegacy(benchmark::State& state) {
  // The pre-context path: every grid point re-runs the full mechanism.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.incremental = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_all(config, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AuditAllLegacy)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_DeviationGridScalar(benchmark::State& state) {
  // Scalar baseline for the lane-parallel grid kernels (DESIGN.md §13):
  // 1000 candidate bids per agent scanned one DeviationEvaluator::utility
  // call at a time.  items/sec = candidate evaluations.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t grid_points = 1000;
  const lbmv::model::SystemConfig config(random_types(n, 13), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::strategy::DeviationEvaluator evaluator(mechanism, config);
  std::vector<std::vector<double>> grids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = config.true_value(i);
    lbmv::strategy::make_bid_grid_into(0.05 * t, 20.0 * t, grid_points,
                                       lbmv::strategy::GridSpacing::kLinear,
                                       grids[i]);
  }
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = config.true_value(i);
      double best = -1e300;
      for (double bid : grids[i]) {
        const double u = evaluator.utility(i, bid, t);
        if (u > best) best = u;
      }
      sink += best;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * grid_points));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeviationGridScalar)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

void BM_DeviationGridVector(benchmark::State& state) {
  // The same sweep through DeviationEvaluator::best_response's 4-lane
  // kernels.
  // Bit-identical argmax to the scalar scan by construction.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t grid_points = 1000;
  const lbmv::model::SystemConfig config(random_types(n, 13), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::strategy::DeviationEvaluator evaluator(mechanism, config);
  std::vector<std::vector<double>> grids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = config.true_value(i);
    lbmv::strategy::make_bid_grid_into(0.05 * t, 20.0 * t, grid_points,
                                       lbmv::strategy::GridSpacing::kLinear,
                                       grids[i]);
  }
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sink +=
          evaluator.best_response(i, grids[i], config.true_value(i)).utility;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * grid_points));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeviationGridVector)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

// ---- Simulation throughput -------------------------------------------------
//
// Pure event-loop dispatch cost, isolated from RNG draws: a ring of sinks
// each re-scheduling itself with a fixed per-sink increment (log-spread over
// two decades, mirroring the paper's heterogeneous service rates), so the
// queue stays populated at the ring size and events interleave.  The typed
// loop hashes POD events into calendar buckets and dispatches through one
// virtual call; the seed loop heap-allocates a >SSO-sized std::function per
// event (the seed server's completion lambda captured this + Job + service
// time) and pays an O(log n) branchy sift per pop.  The range argument is
// the pending-event population.

double ring_increment(std::size_t i) {
  return 0.1 * std::pow(100.0, static_cast<double>(i % 997) / 997.0);
}

void BM_EventLoopTyped(benchmark::State& state) {
  struct Ticker final : lbmv::sim::EventSink {
    double increment = 1.0;
    std::size_t* budget = nullptr;
    void on_sim_event(lbmv::sim::Simulation& sim,
                      lbmv::sim::EventKind) override {
      if (*budget > 0) {
        --*budget;
        sim.schedule_event_after(increment,
                                 lbmv::sim::EventKind::kServiceCompletion,
                                 this);
      }
    }
  };
  const auto ring = static_cast<std::size_t>(state.range(0));
  const std::size_t events = ring * 8;
  lbmv::sim::Simulation sim;
  sim.reserve(ring + 8);
  std::vector<Ticker> sinks(ring);
  std::size_t budget = 0;
  for (std::size_t i = 0; i < ring; ++i) {
    sinks[i].increment = ring_increment(i);
    sinks[i].budget = &budget;
  }
  for (auto _ : state) {
    sim.reset();
    budget = events;
    for (auto& s : sinks) {
      sim.schedule_event_after(s.increment,
                               lbmv::sim::EventKind::kServiceCompletion, &s);
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventLoopTyped)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EventLoopTypedObsOn(benchmark::State& state) {
  // BM_EventLoopTyped with metric recording enabled: the delta against the
  // plain run is the full per-event probe cost (counter + kind counter +
  // queue-depth gauge per dispatched event).  With recording off the probes
  // are a single relaxed load, which is what the obs_overhead section of
  // BENCH_perf.json demonstrates against the same baseline.
  struct Ticker final : lbmv::sim::EventSink {
    double increment = 1.0;
    std::size_t* budget = nullptr;
    void on_sim_event(lbmv::sim::Simulation& sim,
                      lbmv::sim::EventKind) override {
      if (*budget > 0) {
        --*budget;
        sim.schedule_event_after(increment,
                                 lbmv::sim::EventKind::kServiceCompletion,
                                 this);
      }
    }
  };
  const auto ring = static_cast<std::size_t>(state.range(0));
  const std::size_t events = ring * 8;
  lbmv::sim::Simulation sim;
  sim.reserve(ring + 8);
  std::vector<Ticker> sinks(ring);
  std::size_t budget = 0;
  for (std::size_t i = 0; i < ring; ++i) {
    sinks[i].increment = ring_increment(i);
    sinks[i].budget = &budget;
  }
  lbmv::obs::set_enabled(true);
  for (auto _ : state) {
    sim.reset();
    budget = events;
    for (auto& s : sinks) {
      sim.schedule_event_after(s.increment,
                               lbmv::sim::EventKind::kServiceCompletion, &s);
    }
    sim.run();
  }
  lbmv::obs::set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventLoopTypedObsOn)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EventLoopFunction(benchmark::State& state) {
  // Captures mirror the seed completion closure: object pointer + Job +
  // service time (40 bytes), past libstdc++'s 16-byte SSO buffer.
  struct Ticker {
    lbmv::sim::legacy::Simulation* sim;
    double increment;
    std::size_t* budget;
    lbmv::sim::Job job;
    void tick() {
      if (*budget > 0) {
        --*budget;
        Ticker self = *this;
        sim->schedule_after(increment, [self]() mutable { self.tick(); });
      }
    }
  };
  const auto ring = static_cast<std::size_t>(state.range(0));
  const std::size_t events = ring * 8;
  for (auto _ : state) {
    lbmv::sim::legacy::Simulation sim;
    std::size_t budget = events;
    std::vector<Ticker> sinks(ring);
    for (std::size_t i = 0; i < ring; ++i) {
      sinks[i] = Ticker{&sim, ring_increment(i), &budget, lbmv::sim::Job{}};
      sinks[i].tick();
    }
    budget += ring;  // the priming ticks above consumed budget
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventLoopFunction)->Arg(64)->Arg(4096)->Arg(65536);

void BM_SimStackTyped(benchmark::State& state) {
  // Full queueing stack (source + FCFS servers), typed loop.
  const std::vector<double> exec{0.02, 0.05, 0.11, 0.4};
  const std::vector<double> rates{2.0, 1.5, 1.0, 0.5};
  std::size_t events = 0;
  for (auto _ : state) {
    lbmv::util::Rng rng(11);
    lbmv::sim::Simulation sim;
    std::vector<std::unique_ptr<lbmv::sim::Server>> servers;
    std::vector<lbmv::sim::Server*> ptrs;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      servers.push_back(std::make_unique<lbmv::sim::Server>(
          sim, "C", exec[i], lbmv::sim::ServiceModel::kExponential,
          rng.split(i + 1)));
      servers.back()->reserve(4096);
      ptrs.push_back(servers.back().get());
    }
    lbmv::sim::JobSource source(sim, ptrs, rates, 2000.0, rng.split(0));
    source.start();
    sim.run();
    events = sim.processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimStackTyped);

void BM_SimStackLegacy(benchmark::State& state) {
  // Identical workload on the preserved seed loop.
  const std::vector<double> exec{0.02, 0.05, 0.11, 0.4};
  const std::vector<double> rates{2.0, 1.5, 1.0, 0.5};
  std::size_t events = 0;
  for (auto _ : state) {
    lbmv::util::Rng rng(11);
    lbmv::sim::legacy::Simulation sim;
    std::vector<std::unique_ptr<lbmv::sim::legacy::Server>> servers;
    std::vector<lbmv::sim::legacy::Server*> ptrs;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      servers.push_back(std::make_unique<lbmv::sim::legacy::Server>(
          sim, "C", exec[i], lbmv::sim::ServiceModel::kExponential,
          rng.split(i + 1)));
      ptrs.push_back(servers.back().get());
    }
    lbmv::sim::legacy::JobSource source(sim, ptrs, rates, 2000.0,
                                        rng.split(0));
    source.start();
    sim.run();
    events = sim.processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimStackLegacy);

void BM_ReplicatedRound(benchmark::State& state) {
  // Parallel Monte-Carlo protocol rounds; threads swept via the range arg.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config({0.01, 0.02, 0.04}, 2.0);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 500.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  lbmv::util::ThreadPool pool(threads);
  lbmv::sim::ReplicationOptions replication;
  replication.replications = 8;
  replication.pool = &pool;
  const auto intents = lbmv::model::BidProfile::truthful(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocol.run_replicated(config, intents, replication));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(replication.replications));
}
BENCHMARK(BM_ReplicatedRound)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
