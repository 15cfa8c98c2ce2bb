// Differential: the event-free two-pass simulation (fcfs.h) against the
// event loop it replaces in the protocol round (Simulation + Server +
// JobSource).  Completion logs must match byte for byte (memcmp), busy
// times and every collect_metrics field bit for bit, across all three
// service models, many seeds, a single server, a server with zero rate and
// a tie-heavy case where arrivals land exactly on completion instants.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/sim/engine.h"
#include "lbmv/sim/fcfs.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/metrics.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/rate_estimator.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using namespace lbmv::sim;
using lbmv::util::Rng;

constexpr ServiceModel kModels[] = {ServiceModel::kExponential,
                                    ServiceModel::kDeterministic,
                                    ServiceModel::kErlang2};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Byte-for-byte equality of two completion logs (memcmp needs non-null
/// pointers, which empty vectors need not have).
bool same_bytes(const std::vector<Completion>& a,
                const std::vector<Completion>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Completion)) ==
              0);
}

/// One round's execution step on the event loop, wired as the protocol's
/// event-loop round wires it: server i on rng.split(i + 1), the source on
/// rng.split(0).  Owns the simulation so the servers' logs stay readable.
struct EventLoopRound {
  Simulation sim;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Server*> ptrs;
  std::uint64_t jobs = 0;

  EventLoopRound(const std::vector<double>& rates,
                 const std::vector<double>& executions, ServiceModel model,
                 double horizon, std::uint64_t seed) {
    const Rng rng(seed);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      servers.push_back(std::make_unique<Server>(
          sim, "C" + std::to_string(i + 1), executions[i], model,
          rng.split(i + 1)));
      ptrs.push_back(servers.back().get());
    }
    JobSource source(sim, ptrs, rates, horizon, rng.split(0));
    source.start();
    sim.run();
    jobs = source.jobs_emitted();
  }
};

void expect_same_metrics(const SystemMetrics& a, const SystemMetrics& b) {
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t i = 0; i < a.servers.size(); ++i) {
    const ServerMetrics& x = a.servers[i];
    const ServerMetrics& y = b.servers[i];
    EXPECT_EQ(x.jobs_completed, y.jobs_completed) << "server " << i;
    EXPECT_TRUE(same_bits(x.throughput, y.throughput)) << "server " << i;
    EXPECT_TRUE(same_bits(x.mean_waiting_time, y.mean_waiting_time))
        << "server " << i;
    EXPECT_TRUE(same_bits(x.mean_service_time, y.mean_service_time))
        << "server " << i;
    EXPECT_TRUE(same_bits(x.mean_response_time, y.mean_response_time))
        << "server " << i;
    EXPECT_TRUE(same_bits(x.utilization, y.utilization)) << "server " << i;
    EXPECT_TRUE(same_bits(x.waiting_ci95, y.waiting_ci95)) << "server " << i;
  }
  EXPECT_TRUE(same_bits(a.duration, b.duration));
  EXPECT_TRUE(same_bits(a.measured_total_latency, b.measured_total_latency));
}

/// Both simulations of one workload, compared field by field.
void expect_identical(const std::vector<double>& rates,
                      const std::vector<double>& executions,
                      ServiceModel model, double horizon,
                      std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " model " +
               std::to_string(static_cast<int>(model)));
  const EventLoopRound loop(rates, executions, model, horizon, seed);
  const FcfsRun run =
      simulate_fcfs(rates, executions, model, horizon, Rng(seed));

  EXPECT_EQ(run.jobs, loop.jobs);
  // The event loop dispatches one arrival per job, the one past the
  // horizon that stops the source, and one completion per job.
  EXPECT_EQ(loop.sim.processed(), 2 * loop.jobs + 1);
  ASSERT_EQ(run.completions.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const std::vector<Completion>& want = loop.ptrs[i]->completions();
    const std::vector<Completion>& got = run.completions[i];
    ASSERT_EQ(got.size(), want.size()) << "server " << i;
    EXPECT_TRUE(same_bytes(got, want)) << "server " << i;
    EXPECT_TRUE(same_bits(run.busy_time[i], loop.ptrs[i]->busy_time()))
        << "server " << i;
  }
  for (const double warmup : {0.0, 0.1}) {
    expect_same_metrics(collect_metrics(run.records(), horizon, warmup),
                        collect_metrics(loop.ptrs, horizon, warmup));
  }
}

const std::vector<double> kRates{2.0, 1.5, 1.0, 0.5, 0.25};
const std::vector<double> kExecutions{0.02, 0.05, 0.11, 0.4, 0.9};

TEST(FcfsPass, MatchesEventLoopForEveryModelAndSeed) {
  std::uint64_t jobs = 0;
  for (const ServiceModel model : kModels) {
    for (const std::uint64_t seed :
         {1ull, 2ull, 7ull, 42ull, 77ull, 1234ull, 2003ull, 90210ull}) {
      expect_identical(kRates, kExecutions, model, 300.0, seed);
      jobs += simulate_fcfs(kRates, kExecutions, model, 300.0, Rng(seed)).jobs;
    }
  }
  EXPECT_GT(jobs, 24u * 1000u) << "workload too small to be a test";
}

TEST(FcfsPass, MatchesEventLoopUnderHeavyLoad) {
  // Utilisation near one: long busy periods, most jobs wait.
  const std::vector<double> executions{0.2, 0.2};
  const std::vector<double> rates{2.0, 2.1};  // mean service sqrt(0.2)
  for (const ServiceModel model : kModels) {
    expect_identical(rates, executions, model, 500.0, 5);
  }
}

TEST(FcfsPass, MatchesEventLoopOnASingleServer) {
  for (const ServiceModel model : kModels) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      expect_identical({1.7}, {0.1}, model, 400.0, seed);
    }
  }
}

TEST(FcfsPass, ZeroRateServerGetsNoJobs) {
  const std::vector<double> rates{1.5, 0.0, 2.0};
  const std::vector<double> executions{0.05, 0.05, 0.1};
  for (const ServiceModel model : kModels) {
    expect_identical(rates, executions, model, 300.0, 9);
  }
  const FcfsRun run = simulate_fcfs(rates, executions,
                                    ServiceModel::kExponential, 300.0, Rng(9));
  EXPECT_TRUE(run.completions[1].empty());
  EXPECT_EQ(run.busy_time[1], 0.0);
  EXPECT_FALSE(run.completions[0].empty());
}

TEST(FcfsPass, TieHeavyArrivalsMatchServerSubmit) {
  // Integer arrival instants and deterministic integer service times, so
  // arrivals keep landing exactly on completion instants.  Arrivals are
  // submitted from closures, each scheduling the next 0 to 3m seconds
  // later (load ~2/3): a same-instant arrival may be dispatched before or
  // after the completion it ties with, depending on which was scheduled
  // first.
  for (const double service : {1.0, 2.0, 3.0}) {
    // t = E[S^2]/2 = m^2/2 for deterministic service: exact for these m.
    const double t = 0.5 * service * service;
    for (const std::uint64_t seed : {1ull, 5ull, 8ull}) {
      SCOPED_TRACE("service " + std::to_string(service) + " seed " +
                   std::to_string(seed));
      Simulation sim;
      Server server(sim, "S", t, ServiceModel::kDeterministic, Rng(seed));
      ASSERT_EQ(server.mean_service_time(), service);
      Rng gaps(seed + 100);
      std::uint64_t next_id = 0;
      constexpr std::uint64_t kJobs = 2000;
      std::function<void()> arrive = [&] {
        server.submit(Job{next_id++, sim.now()});
        if (next_id < kJobs) {
          sim.schedule_after(
              static_cast<double>(gaps.uniform_int(
                  0, 3 * static_cast<std::int64_t>(service))),
              arrive);
        }
      };
      sim.schedule(0.0, arrive);
      sim.run();
      const std::vector<Completion>& want = server.completions();
      ASSERT_EQ(want.size(), kJobs);

      std::vector<Completion> got;
      for (const Completion& c : want) {
        got.push_back(Completion{c.job_id, c.arrival});
      }
      // Arrivals landing on some completion instant (both sequences ascend).
      std::size_t ties = 0;
      for (std::size_t a = 0, f = 0; a < want.size(); ++a) {
        while (f < want.size() && want[f].finish < want[a].arrival) ++f;
        if (f < want.size() && want[f].finish == want[a].arrival) ++ties;
      }
      EXPECT_GT(ties, kJobs / 20) << "workload has too few exact ties";
      const double busy = serve_fcfs(got, ServiceModel::kDeterministic,
                                     server.mean_service_time(), Rng(seed));
      EXPECT_TRUE(same_bytes(got, want));
      EXPECT_TRUE(same_bits(busy, server.busy_time()));
    }
  }
}

TEST(FcfsPass, ProtocolRoundRunsTheTwoPasses) {
  // The protocol's metrics and estimates are those of the event-loop round
  // on the same seed.
  const lbmv::model::SystemConfig config({0.01, 0.015, 0.02, 0.03, 0.05},
                                         5.0);
  const lbmv::core::CompBonusMechanism mechanism;
  ProtocolOptions options;
  options.horizon = 600.0;
  options.service_model = ServiceModel::kErlang2;
  const VerifiedProtocol protocol(mechanism, options);
  auto intents = lbmv::model::BidProfile::truthful(config);
  intents.executions[1] *= 1.5;
  const RoundReport report = protocol.run_round(config, intents, 31);

  const std::vector<double> rates(report.allocation.rates().begin(),
                                  report.allocation.rates().end());
  const EventLoopRound loop(rates, intents.executions, options.service_model,
                            options.horizon, 31);
  expect_same_metrics(report.metrics,
                      collect_metrics(loop.ptrs, options.horizon,
                                      options.warmup_fraction));
  for (std::size_t i = 0; i < config.size(); ++i) {
    const auto estimate = estimate_execution_value(
        loop.ptrs[i]->completions(), options.service_model);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_TRUE(same_bits(report.estimated_execution[i],
                          estimate->execution_value))
        << "agent " << i;
  }
}

TEST(FcfsPass, SharedDrawsMatchRngCategorical) {
  // route_job over cumulative_rates returns Rng::categorical's index from
  // the same single draw.
  const std::vector<double> rates{0.3, 0.0, 1.7, 0.2, 0.0, 2.5};
  const std::vector<double> cumulative = cumulative_rates(rates);
  Rng a(17), b(17);
  for (int k = 0; k < 5000; ++k) {
    ASSERT_EQ(route_job(cumulative, a), b.categorical(rates));
  }
}

TEST(FcfsPass, ValidatesArguments) {
  using lbmv::util::PreconditionError;
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)simulate_fcfs({}, {}, ServiceModel::kExponential, 10.0,
                                   Rng(1)),
               PreconditionError);
  EXPECT_THROW((void)simulate_fcfs(one, {}, ServiceModel::kExponential, 10.0,
                                   Rng(1)),
               PreconditionError);
  EXPECT_THROW((void)simulate_fcfs(one, one, ServiceModel::kExponential, 0.0,
                                   Rng(1)),
               PreconditionError);
  EXPECT_THROW((void)simulate_fcfs(std::vector<double>{0.0}, one,
                                   ServiceModel::kExponential, 10.0, Rng(1)),
               PreconditionError);
  EXPECT_THROW((void)simulate_fcfs(std::vector<double>{-1.0, 2.0},
                                   std::vector<double>{1.0, 1.0},
                                   ServiceModel::kExponential, 10.0, Rng(1)),
               PreconditionError);
}

}  // namespace
