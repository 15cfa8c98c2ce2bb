#pragma once

/// \file probes.h
/// Pre-registered metric families for the built-in instrumentation.
///
/// Each bundle groups the handles one subsystem records into, resolved
/// once from `Registry::global()` behind a function-local static, so
/// probe sites never pay a name lookup.  Once-per-round sites record
/// directly (a shard lookup plus relaxed atomics); the simulator's
/// per-event sites (events, queue depth, jobs, per-server arrivals,
/// completions and waiting times) tally in plain members and flush through
/// the batch entry points (metrics.h, DESIGN.md §9).
///
/// Families (all exported by `lbmv obs`, documented in DESIGN.md §9):
///
///   counters
///     lbmv_sim_events_total                   events dispatched
///     lbmv_sim_events_kind_total{kind=...}    per EventKind
///     lbmv_sim_window_refills_total           calendar window refills
///     lbmv_sim_source_jobs_total              jobs emitted by JobSource
///     lbmv_server_arrivals_total{server=...}  per-server submissions
///     lbmv_server_completions_total{server=...}
///     lbmv_mech_rounds_total                  mechanism rounds (run/run_into)
///     lbmv_mech_batch_runs_total              Mechanism::run_batch calls
///     lbmv_mech_linear_fast_rounds_total      rounds on the fused linear path
///     lbmv_mech_allocs_avoided_total          heap allocations the fused
///                                             path skipped vs the scalar one
///     lbmv_mech_simd_rounds_total             rounds on the vectorized
///                                             engine (DESIGN.md §12)
///     lbmv_mech_sharded_rounds_total          vectorized rounds whose agent
///                                             axis fanned over the pool
///     lbmv_mech_nonlinear_rounds_total        rounds on the fused nonlinear
///                                             engines (DESIGN.md §14)
///     lbmv_mech_newton_iters_total            exact O(n) KKT Newton passes
///                                             of the workload engine: the
///                                             full solve plus leave-one-out
///                                             fallbacks (never the O(d)
///                                             model solves)
///     lbmv_mech_loo_fallbacks_total           workload leave-one-out agents
///                                             whose Taylor-model bound failed
///                                             (exact Newton instead)
///     lbmv_mech_audit_evaluations_total       audit grid points evaluated
///     lbmv_mech_leave_one_out_batches_total   leave-one-out batch solves
///     lbmv_pool_tasks_total                   thread-pool tasks executed
///     lbmv_pool_parallel_for_total            parallel_for invocations
///     lbmv_protocol_rounds_total              VerifiedProtocol rounds
///     lbmv_protocol_replications_total        completed replications
///     lbmv_protocol_estimate_fallbacks_total  rate-estimate fallbacks
///     lbmv_strategy_deviation_evals_total     DeviationEvaluator queries
///     lbmv_strategy_mechanism_runs_avoided_total  fast-path queries that
///                                             skipped a full Mechanism::run
///     lbmv_strategy_commits_total             committed deviations
///     lbmv_strategy_grid_evals_total          candidate bids swept by
///                                             DeviationEvaluator grids
///     lbmv_strategy_grid_lanes_wasted_total   padded tail lanes the 4-lane
///                                             grid kernels evaluated
///
///   gauges (additive)
///     lbmv_sim_queue_depth        pending events in the calendar queue
///     lbmv_sim_closure_slab_in_use  pooled closures currently live
///
///   histograms
///     lbmv_sim_window_fill_events   events replayed per window refill
///     lbmv_server_waiting_seconds{server=...}  completed-job waiting time
///     lbmv_mech_round_payment       per-agent payment per round
///     lbmv_mech_round_bonus         per-agent bonus per round
///     lbmv_mech_shard_count         pool tasks per sharded round
///     lbmv_mech_batch_size          profiles per run_batch call
///     lbmv_mech_leave_one_out_batch_size
///     lbmv_pool_chunk_size          parallel_for grain sizes
///     lbmv_strategy_best_response_round_seconds  wall time per dynamics round
///     lbmv_strategy_grid_round_seconds  wall time per candidate-grid sweep

#include <cstdint>

#include "lbmv/obs/metrics.h"

namespace lbmv::obs {

/// Simulation core (engine + job source).
struct SimProbes {
  Counter events_total;
  Counter events_by_kind[5];  ///< indexed by sim::EventKind value
  Counter window_refills;
  Counter source_jobs;
  Gauge queue_depth;
  Gauge slab_in_use;
  Histogram window_fill;

  static SimProbes& get();
};

/// Mechanism, audit, and leave-one-out payment engine.
struct MechProbes {
  Counter rounds;
  Counter batch_runs;
  Counter linear_fast_rounds;
  Counter allocs_avoided;
  Counter simd_rounds;
  Counter sharded_rounds;
  Counter nonlinear_rounds;
  Counter newton_iters;
  Counter loo_fallbacks;
  Counter audit_evaluations;
  Counter loo_batches;
  Histogram round_payment;
  Histogram round_bonus;
  Histogram batch_size;
  Histogram loo_batch_size;
  Histogram shard_count;

  static MechProbes& get();
};

/// util::ThreadPool.
struct PoolProbes {
  Counter tasks;
  Counter parallel_fors;
  Histogram chunk_size;

  static PoolProbes& get();
};

/// VerifiedProtocol / ReplicationRunner.
struct ProtocolProbes {
  Counter rounds;
  Counter replications;
  Counter estimate_fallbacks;

  static ProtocolProbes& get();
};

/// Strategy layer: DeviationEvaluator (queries and grid sweeps; the
/// padded-lane count comes from the core grid driver) and best-response
/// dynamics.
struct StrategyProbes {
  Counter deviation_evals;
  Counter mechanism_runs_avoided;
  Counter commits;
  Counter grid_evals;
  Counter grid_lanes_wasted;
  Histogram round_seconds;
  Histogram grid_round_seconds;

  static StrategyProbes& get();
};

}  // namespace lbmv::obs
