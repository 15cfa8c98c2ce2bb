#pragma once

/// \file fcfs.h
/// The protocol's execution step without an event queue.
///
/// Jobs arrive as one Poisson stream of rate R = sum_i x_i and each is
/// routed to computer i with probability x_i / R; every computer is an
/// FCFS single server drawing its service times from its own stream.  The
/// servers never interact, so one round needs no event queue.  It is two
/// passes over the random streams the event loop (Simulation + JobSource +
/// Server) consumes, each stream drawn in the event loop's order:
///
///   1. The source pass walks the source stream: t = 0 + Exp(R); while
///      t <= horizon, one uniform routing draw (route_job) appends
///      Completion{id++, t} to that server's log, then t = t + Exp(R).
///   2. serve_fcfs walks one server's log in FCFS (arrival) order, draws
///      each service time as Server::begin_service does
///      (draw_service_time), and fills in start = max(arrival, free_at)
///      and finish = start + service — Lindley's recursion — summing the
///      busy time in the same order.
///
/// Why the doubles match the event loop bit for bit: the event loop
/// computes each arrival as the previous arrival plus a gap and each
/// completion instant as start + service, and a job starts either at its
/// arrival (idle server) or at its predecessor's completion instant (busy
/// server).  When an arrival lands exactly on a completion instant, both
/// dispatch orders give the same start.  Each stream is private to one
/// component, so interleaving across servers cannot change any draw.
/// test_fcfs_pass holds the differential against the event loop.

#include <cstdint>
#include <span>
#include <vector>

#include "lbmv/sim/metrics.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

/// One service duration with mean \p mean under \p model, drawn from
/// \p rng.  The one definition of the service draw: Server::begin_service
/// and serve_fcfs both call it, so their draw orders match by construction.
[[nodiscard]] double draw_service_time(util::Rng& rng, ServiceModel model,
                                       double mean);

/// Prefix sums of \p rates accumulated left to right, the order of
/// Rng::categorical's running sum.  Requires non-negative rates with a
/// positive sum.
[[nodiscard]] std::vector<double> cumulative_rates(
    std::span<const double> rates);

/// Route one job over the prefix sums \p cumulative: one uniform draw, the
/// first index i with u < cumulative[i] for u = uniform * total, and the
/// last index on round-off — the index Rng::categorical returns for the
/// rates behind \p cumulative.  JobSource and simulate_fcfs both call it.
[[nodiscard]] std::size_t route_job(std::span<const double> cumulative,
                                    util::Rng& rng);

/// Pass 2, one FCFS server: \p jobs holds its arrivals in arrival order
/// (job_id and arrival set); fills in start and finish in place, drawing
/// service times with mean \p mean_service from \p rng in service order.
/// Returns the busy time (the sum of the service times, in that order).
double serve_fcfs(std::span<Completion> jobs, ServiceModel model,
                  double mean_service, util::Rng rng);

/// The execution step of one round, per server.
struct FcfsRun {
  /// Per server, in service order: the completion log of the event loop.
  std::vector<std::vector<Completion>> completions;
  std::vector<double> busy_time;  ///< per server
  std::uint64_t jobs = 0;         ///< jobs the source emitted

  /// The per-server views collect_metrics summarises.
  [[nodiscard]] std::vector<ServerRecord> records() const;
};

/// Both passes: the source pass fills each server's log, then serve_fcfs
/// completes it in place.  Server i runs at execution value executions[i]
/// and receives rate rates[i]; arrivals stop at \p horizon.  The source
/// draws from rng.split(0) and server i from rng.split(i + 1), the streams
/// the protocol's event-loop round hands to JobSource and Server.
[[nodiscard]] FcfsRun simulate_fcfs(std::span<const double> rates,
                                    std::span<const double> executions,
                                    ServiceModel model, SimTime horizon,
                                    const util::Rng& rng);

}  // namespace lbmv::sim
