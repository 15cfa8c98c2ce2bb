// Tests for the sharded metrics registry: histogram bucket geometry at the
// edges of the double range, merge associativity across thread counts, the
// zero-cost-when-off contract, and the simulator's batched telemetry
// (local tallies flushed in batches must total exactly what per-event
// recording would have).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/sim/engine.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/json.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"

namespace {

using namespace lbmv::obs;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// RAII guard: enable recording for one test, restore "off" after.
struct EnabledScope {
  EnabledScope() { set_enabled(true); }
  ~EnabledScope() { set_enabled(false); }
};

// Recording-behaviour tests only apply with probes compiled in; under
// -DLBMV_OBS=OFF every record call is an intentional no-op.  Bucket
// geometry and name composition stay testable in both modes.
#define SKIP_IF_COMPILED_OUT()                                          \
  if (!lbmv::obs::kCompiledIn)                                          \
  GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)"

TEST(HistogramBuckets, EdgeValuesLandInUnderflowAndOverflow) {
  // Zero, negatives, subnormals and anything below 2^-34 share the
  // underflow bucket.
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(-0.0), 0u);
  EXPECT_EQ(histogram_bucket(-1.5), 0u);
  EXPECT_EQ(histogram_bucket(-kInf), 0u);
  EXPECT_EQ(histogram_bucket(5e-324), 0u);  // smallest subnormal
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::denorm_min()), 0u);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::min()), 0u);
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, -35)), 0u);

  // +inf, max-double and anything >= 2^30 share the overflow bucket.
  EXPECT_EQ(histogram_bucket(kInf), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::max()),
            kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, 30)), kHistogramBuckets - 1);

  // The range edges themselves are in range.
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, -34)), 1u);
  EXPECT_EQ(histogram_bucket(std::nextafter(std::ldexp(1.0, 30), 0.0)),
            kHistogramBuckets - 2);
}

TEST(HistogramBuckets, UpperBoundsAreMonotoneAndBracketValues) {
  for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    EXPECT_LT(histogram_bucket_upper(b - 1), histogram_bucket_upper(b))
        << "bucket " << b;
  }
  EXPECT_TRUE(std::isinf(histogram_bucket_upper(kHistogramBuckets - 1)));

  // Every in-range value falls strictly below its bucket's upper bound and
  // at/above the previous bucket's.
  for (double v : {6e-11, 1e-6, 0.4375, 1.0, 1.0624, 3.14159, 12345.678,
                   9.9e8}) {
    const std::size_t b = histogram_bucket(v);
    ASSERT_GT(b, 0u);
    ASSERT_LT(b, kHistogramBuckets - 1);
    EXPECT_LT(v, histogram_bucket_upper(b)) << v;
    EXPECT_GE(v, histogram_bucket_upper(b - 1)) << v;
  }
}

TEST(HistogramBuckets, RelativeResolutionIsAboutSixPercent) {
  // Log-linear with 16 sub-buckets: bucket width / lower edge <= 1/16.
  for (double v : {1e-8, 0.77, 42.0, 1e6}) {
    const std::size_t b = histogram_bucket(v);
    const double lo = histogram_bucket_upper(b - 1);
    const double hi = histogram_bucket_upper(b);
    EXPECT_LE((hi - lo) / lo, 1.0 / 16 + 1e-12) << v;
  }
}

TEST(Registry, HistogramRecordsEdgeValuesBySpec) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Histogram h = registry.histogram("h");
  h.record(0.0);
  h.record(5e-324);  // subnormal
  h.record(kInf);
  h.record(std::numeric_limits<double>::max());
  h.record(kNaN);

  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, 4u);  // NaN excluded from the sample count
  EXPECT_EQ(hs.nan_count, 1u);
  EXPECT_EQ(hs.buckets.front(), 2u);  // zero + subnormal
  EXPECT_EQ(hs.buckets.back(), 2u);   // +inf + max-double
  EXPECT_EQ(hs.min, 0.0);
  EXPECT_TRUE(std::isinf(hs.max));

  // JSON must stay parseable despite the inf max/sum: non-finite values
  // are clamped to finite doubles, never emitted as bare inf/nan tokens.
  const lbmv::util::JsonValue doc =
      lbmv::util::JsonValue::parse(snap.to_json());
  const auto& h_doc = doc.at("histograms").at("h");
  EXPECT_DOUBLE_EQ(h_doc.at("count").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(h_doc.at("nan_count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h_doc.at("max").as_number(),
                   std::numeric_limits<double>::max());
}

TEST(Registry, QuantilesTrackRecordedRange) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Histogram h = registry.histogram("h");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot hs = registry.snapshot().histograms.at("h");
  EXPECT_EQ(hs.count, 100u);
  EXPECT_DOUBLE_EQ(hs.min, 1.0);
  EXPECT_DOUBLE_EQ(hs.max, 100.0);
  EXPECT_NEAR(hs.mean(), 50.5, 1e-9);
  // Log-linear resolution: quantile returns a bucket upper bound within
  // one bucket (~6%) of the exact order statistic, clamped to [min, max].
  EXPECT_NEAR(hs.quantile(0.5), 50.0, 50.0 * 0.07);
  EXPECT_NEAR(hs.quantile(0.95), 95.0, 95.0 * 0.07);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 100.0);
}

TEST(Registry, CounterHandlesAreNoOpsWhenDisabled) {
  set_enabled(false);
  Registry registry;
  Counter c = registry.counter("c");
  Gauge g = registry.gauge("g");
  Histogram h = registry.histogram("h");
  c.inc(7);
  g.add(3.0);
  h.record(1.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);

  // Default-constructed (unresolved) handles are inert even when enabled.
  EnabledScope on;
  Counter inert;
  inert.inc();  // must not crash
}

TEST(Registry, ShardMergeIsInvariantAcrossThreadCounts) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  // The same logical workload recorded under different pool sizes (and
  // hence different shard splits) must merge to identical snapshots:
  // counter sums, additive-gauge sums, and histogram bucket contents are
  // all associative and commutative.
  constexpr std::size_t kItems = 400;
  std::vector<MetricsSnapshot> snaps;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    Registry registry;
    Counter c = registry.counter("c");
    Gauge g = registry.gauge("g");
    Histogram h = registry.histogram("h");
    lbmv::util::ThreadPool pool(threads);
    pool.parallel_for(
        0, kItems,
        [&](std::size_t i) {
          c.inc(i % 3 + 1);
          g.add(i % 2 == 0 ? 1.0 : -1.0);
          h.record(static_cast<double>(i % 10) * 0.5);
        },
        /*grain=*/7);
    snaps.push_back(registry.snapshot());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].counters.at("c"), snaps[0].counters.at("c"));
    EXPECT_DOUBLE_EQ(snaps[i].gauges.at("g"), snaps[0].gauges.at("g"));
    const HistogramSnapshot& a = snaps[0].histograms.at("h");
    const HistogramSnapshot& b = snaps[i].histograms.at("h");
    EXPECT_EQ(b.count, a.count);
    EXPECT_DOUBLE_EQ(b.sum, a.sum);
    EXPECT_DOUBLE_EQ(b.min, a.min);
    EXPECT_DOUBLE_EQ(b.max, a.max);
    EXPECT_EQ(b.buckets, a.buckets);
  }
}

TEST(Registry, ResetZeroesSamplesButKeepsFamilies) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Counter c = registry.counter("c");
  Histogram h = registry.histogram("h");
  c.inc(5);
  h.record(2.0);
  registry.reset();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  // Handles stay valid after reset.
  c.inc();
  EXPECT_EQ(registry.snapshot().counters.at("c"), 1u);
}

TEST(Registry, FindOrRegisterReturnsTheSameFamily) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Counter a = registry.counter("same");
  Counter b = registry.counter("same");
  a.inc();
  b.inc();
  EXPECT_EQ(registry.snapshot().counters.at("same"), 2u);
}

TEST(Exposition, PrometheusHasTypeLinesAndLabels) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  registry.counter(labeled("family_total", "server", "C1")).inc(3);
  registry.histogram("lat").record(0.5);
  const std::string text = registry.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE family_total counter"), std::string::npos);
  EXPECT_NE(text.find("family_total{server=\"C1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

TEST(Exposition, LabeledComposesPrometheusNames) {
  EXPECT_EQ(labeled("f_total", "server", "C2"), "f_total{server=\"C2\"}");
}

// ---- batched recording ------------------------------------------------------

/// Exact equality of every family in \p want against \p got, except a
/// histogram's sum, which batching re-associates: relative 1e-12.
void expect_same_families(const MetricsSnapshot& got,
                          const MetricsSnapshot& want) {
  for (const auto& [name, value] : want.counters) {
    ASSERT_TRUE(got.counters.contains(name)) << name;
    EXPECT_EQ(got.counters.at(name), value) << name;
  }
  for (const auto& [name, value] : want.gauges) {
    ASSERT_TRUE(got.gauges.contains(name)) << name;
    EXPECT_EQ(got.gauges.at(name), value) << name;
  }
  for (const auto& [name, h] : want.histograms) {
    ASSERT_TRUE(got.histograms.contains(name)) << name;
    const HistogramSnapshot& g = got.histograms.at(name);
    EXPECT_EQ(g.count, h.count) << name;
    EXPECT_EQ(g.nan_count, h.nan_count) << name;
    EXPECT_EQ(g.min, h.min) << name;
    EXPECT_EQ(g.max, h.max) << name;
    EXPECT_EQ(g.buckets, h.buckets) << name;
    if (g.sum != h.sum) {  // equal covers an infinite sum
      EXPECT_LE(std::fabs(g.sum - h.sum),
                1e-12 * std::max(1.0, std::fabs(h.sum)))
          << name;
    }
  }
}

TEST(BatchedRecording, RecordBatchMatchesPerValueRecording) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry batched, single;
  Histogram hb = batched.histogram("h");
  Histogram hs = single.histogram("h");
  std::vector<double> values = {0.0, -2.5, kNaN, kInf, 1e-40, 3.0, 0.125};
  lbmv::util::Rng rng(5);
  for (int i = 0; i < 700; ++i) values.push_back(rng.exponential(0.5));
  for (const double v : values) hs.record(v);
  record_each(hb, values.size(), [&](std::size_t i) { return values[i]; });
  expect_same_families(batched.snapshot(), single.snapshot());
  EXPECT_EQ(batched.snapshot().histograms.at("h").nan_count, 1u);

  // Batches are not gated on enabled(): the caller gated each sample.
  Counter c = batched.counter("c");
  Gauge g = batched.gauge("g");
  set_enabled(false);
  c.inc_batch(3);
  g.add_batch(-2.0);
  hb.record_batch(std::span<const double>(values).first(1));
  set_enabled(true);
  const MetricsSnapshot snap = batched.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -2.0);
  EXPECT_EQ(snap.histograms.at("h").count, values.size());
}

// The protocol round's parameters shared by the simulator tests below.
const lbmv::model::SystemConfig& sim_config() {
  static const lbmv::model::SystemConfig config(
      {0.01, 0.015, 0.02, 0.03, 0.05, 0.08}, 6.0);
  return config;
}

/// The protocol's name for computer i ("C1", "C2", ...).
std::string computer_name(std::size_t i) {
  std::string name = "C";
  name += std::to_string(i + 1);
  return name;
}

/// The simulated execution of one protocol round (step 3 of
/// VerifiedProtocol::run_round), rebuilt from the same RNG splits so the
/// test can step it event by event.
struct ReplayedRound {
  lbmv::util::Rng rng;
  lbmv::sim::Simulation sim;
  std::vector<std::unique_ptr<lbmv::sim::Server>> servers;
  std::vector<lbmv::sim::Server*> ptrs;
  std::unique_ptr<lbmv::sim::JobSource> source;

  ReplayedRound(std::span<const double> executions,
                std::span<const double> rates, double horizon,
                std::uint64_t seed)
      : rng(seed) {
    for (std::size_t i = 0; i < executions.size(); ++i) {
      servers.push_back(std::make_unique<lbmv::sim::Server>(
          sim, computer_name(i), executions[i],
          lbmv::sim::ServiceModel::kExponential, rng.split(i + 1)));
      ptrs.push_back(servers.back().get());
    }
    source = std::make_unique<lbmv::sim::JobSource>(
        sim, ptrs, std::vector<double>(rates.begin(), rates.end()), horizon,
        rng.split(0));
    source->start();
  }

  [[nodiscard]] std::size_t completed() const {
    std::size_t done = 0;
    for (const auto* s : ptrs) done += s->completions().size();
    return done;
  }
};

TEST(BatchedRecording, ProtocolRoundMatchesPerEventReference) {
  SKIP_IF_COMPILED_OUT();
  const auto& config = sim_config();
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 1500.0;  // ~9000 jobs: the engine's tally flushes mid-run
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  auto intents = lbmv::model::BidProfile::truthful(config);
  intents.executions[2] *= 1.5;
  constexpr std::uint64_t kSeed = 2003;

  Registry::global().reset();
  set_enabled(true);
  const auto report = protocol.run_round(config, intents, kSeed);
  set_enabled(false);
  const MetricsSnapshot got = Registry::global().snapshot();

  // Reference: replay the round's simulation with recording off (the
  // servers' handles stay inert) and record every event, arrival,
  // completion and payment one value at a time, as the per-event probes
  // did.
  ReplayedRound replay(intents.executions, report.allocation.rates(),
                       options.horizon, kSeed);
  Registry reference;
  Counter events = reference.counter("lbmv_sim_events_total");
  Counter arrival_events = reference.counter(
      labeled("lbmv_sim_events_kind_total", "kind", "arrival"));
  Counter completion_events = reference.counter(
      labeled("lbmv_sim_events_kind_total", "kind", "service_completion"));
  Counter jobs = reference.counter("lbmv_sim_source_jobs_total");
  Gauge depth = reference.gauge("lbmv_sim_queue_depth");
  std::vector<Counter> arrivals, completions;
  std::vector<Histogram> waiting;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const std::string server = computer_name(i);
    arrivals.push_back(reference.counter(
        labeled("lbmv_server_arrivals_total", "server", server)));
    completions.push_back(reference.counter(
        labeled("lbmv_server_completions_total", "server", server)));
    waiting.push_back(reference.histogram(
        labeled("lbmv_server_waiting_seconds", "server", server)));
  }
  EnabledScope on;
  depth.add(static_cast<double>(replay.sim.pending()));  // source.start()
  std::vector<std::uint64_t> sent(config.size(), 0);
  std::vector<std::size_t> done(config.size(), 0);
  for (;;) {
    const std::size_t pending = replay.sim.pending();
    const std::size_t completed = replay.completed();
    if (!replay.sim.step()) break;
    events.inc();
    depth.add(-1.0);
    // The handler scheduled whatever the queue grew by, plus the pop.
    const std::size_t pushed = replay.sim.pending() + 1 - pending;
    for (std::size_t p = 0; p < pushed; ++p) depth.add(1.0);
    (replay.completed() > completed ? completion_events : arrival_events)
        .inc();
    for (std::size_t i = 0; i < config.size(); ++i) {
      const auto counts = replay.source->per_server_counts();
      for (; sent[i] < counts[i]; ++sent[i]) {
        jobs.inc();
        arrivals[i].inc();
      }
      const auto& log = replay.ptrs[i]->completions();
      for (; done[i] < log.size(); ++done[i]) {
        completions[i].inc();
        waiting[i].record(log[done[i]].waiting_time());
      }
    }
  }
  Histogram payment = reference.histogram("lbmv_mech_round_payment");
  Histogram bonus = reference.histogram("lbmv_mech_round_bonus");
  for (const auto* outcome : {&report.outcome, &report.oracle_outcome}) {
    for (const auto& agent : outcome->agents) {
      payment.record(agent.payment);
      bonus.record(agent.bonus);
    }
  }
  const MetricsSnapshot want = reference.snapshot();
  ASSERT_GT(want.counters.at("lbmv_sim_events_total"),
            lbmv::sim::kTelemetryFlushEvery);
  EXPECT_EQ(want.gauges.at("lbmv_sim_queue_depth"), 0.0);
  expect_same_families(got, want);
}

TEST(BatchedRecording, EngineFlushesAtRunUntilResetDestructionAndThreshold) {
  SKIP_IF_COMPILED_OUT();
  // A ring of sinks that re-schedule themselves a unit later; one snapshot
  // is taken from inside the handler of a chosen event.
  struct Ticker final : lbmv::sim::EventSink {
    std::size_t* seen = nullptr;
    std::size_t probe_at = 0;
    std::uint64_t* probed = nullptr;
    void on_sim_event(lbmv::sim::Simulation& sim,
                      lbmv::sim::EventKind) override {
      if (++*seen == probe_at) {
        *probed = Registry::global().snapshot().counters.at(
            "lbmv_sim_events_total");
      }
      sim.schedule_event_after(1.0, lbmv::sim::EventKind::kArrival, this);
    }
  };
  constexpr std::size_t kRing = 16;
  const auto events_total = [] {
    return Registry::global().snapshot().counters.at("lbmv_sim_events_total");
  };
  const auto depth = [] {
    return Registry::global().snapshot().gauges.at("lbmv_sim_queue_depth");
  };
  Registry::global().reset();
  EnabledScope on;
  std::size_t seen = 0;
  std::uint64_t probed = ~0ull;
  std::vector<Ticker> ring(kRing);
  {
    lbmv::sim::Simulation sim;
    for (auto& t : ring) {
      t.seen = &seen;
      t.probed = &probed;
      t.probe_at = 10 * kRing + lbmv::sim::kTelemetryFlushEvery + 100;
      sim.schedule_event(0.5, lbmv::sim::EventKind::kArrival, &t);
    }
    // run_until boundary: everything dispatched so far is in the registry.
    sim.run_until(10.0);
    EXPECT_EQ(events_total(), sim.processed());
    EXPECT_EQ(depth(), static_cast<double>(sim.pending()));

    // Threshold: mid-run, a handler sees the boundary's flush plus one
    // full threshold's worth, not the events since.
    sim.run_until(1000.0);
    EXPECT_EQ(probed, 10 * kRing + lbmv::sim::kTelemetryFlushEvery);
    EXPECT_EQ(events_total(), sim.processed());

    // step() alone defers the flush; reset() flushes and walks the depth
    // gauge back to zero.
    const std::size_t before = sim.processed();
    for (int k = 0; k < 5; ++k) ASSERT_TRUE(sim.step());
    EXPECT_EQ(events_total(), before);
    sim.reset();
    EXPECT_EQ(events_total(), before + 5);
    EXPECT_EQ(depth(), 0.0);

    // Destruction flushes what step() left behind.
    for (auto& t : ring) {
      sim.schedule_event(0.5, lbmv::sim::EventKind::kArrival, &t);
    }
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(sim.step());
    EXPECT_EQ(events_total(), before + 5);
  }
  EXPECT_EQ(events_total(), seen);
  // Each step re-schedules its sink: the ring was still pending when the
  // simulation went, and the gauge says so.
  EXPECT_EQ(depth(), static_cast<double>(kRing));
}

TEST(BatchedRecording, ServersAndSourceFlushAtThresholdResetAndDestruction) {
  SKIP_IF_COMPILED_OUT();
  const auto counter = [](const std::string& name) {
    return Registry::global().snapshot().counters.at(name);
  };
  const std::string done = labeled("lbmv_server_completions_total", "server",
                                   "S");
  const std::string sent = labeled("lbmv_server_arrivals_total", "server",
                                   "S");
  const std::string wait = labeled("lbmv_server_waiting_seconds", "server",
                                   "S");
  Registry::global().reset();
  EnabledScope on;
  lbmv::sim::Simulation sim;
  auto server = std::make_unique<lbmv::sim::Server>(
      sim, "S", 0.04, lbmv::sim::ServiceModel::kDeterministic,
      lbmv::util::Rng(3));
  lbmv::sim::Server* ptr = server.get();
  auto source = std::make_unique<lbmv::sim::JobSource>(
      sim, std::span<lbmv::sim::Server* const>(&ptr, 1),
      std::vector<double>{2.0}, 3000.0, lbmv::util::Rng(4));
  source->start();
  // ~5000 jobs by t = 2500: one threshold's worth flushed, the rest local.
  sim.run_until(2500.0);
  ASSERT_GT(server->completions().size(), lbmv::sim::kTelemetryFlushEvery);
  ASSERT_LT(server->completions().size(), 2 * lbmv::sim::kTelemetryFlushEvery);
  EXPECT_EQ(counter(done), lbmv::sim::kTelemetryFlushEvery);
  EXPECT_EQ(counter(sent), lbmv::sim::kTelemetryFlushEvery);
  EXPECT_EQ(counter("lbmv_sim_source_jobs_total"),
            lbmv::sim::kTelemetryFlushEvery);
  EXPECT_EQ(Registry::global().snapshot().histograms.at(wait).count,
            lbmv::sim::kTelemetryFlushEvery);

  // Drained: destroying the source flushes its tally; the server's reset()
  // flushes the rest of the completions before forgetting them.
  sim.run();
  const std::uint64_t emitted = source->jobs_emitted();
  const std::size_t completed = server->completions().size();
  source.reset();
  EXPECT_EQ(counter("lbmv_sim_source_jobs_total"), emitted);
  server->reset();
  EXPECT_EQ(counter(done), completed);
  EXPECT_EQ(counter(sent), emitted);
  EXPECT_EQ(Registry::global().snapshot().histograms.at(wait).count,
            completed);

  // Destruction flushes jobs submitted and served since the reset.
  server->submit(lbmv::sim::Job{1, sim.now()});
  sim.run();
  server.reset();
  EXPECT_EQ(counter(done), completed + 1);
  EXPECT_EQ(counter(sent), emitted + 1);
}

TEST(BatchedRecording, SwitchingRecordingOffMidRunDropsNothing) {
  SKIP_IF_COMPILED_OUT();
  const auto& config = sim_config();
  const std::vector<double> rates = {1.5, 1.2, 1.0, 0.9, 0.8, 0.6};
  Registry::global().reset();
  set_enabled(true);  // servers resolve their families at construction
  std::size_t steps_on = 0, completed_on = 0;
  std::uint64_t jobs_on = 0;
  {
    ReplayedRound round(config.true_values(), rates, 800.0, 77);
    for (; steps_on < 3000; ++steps_on) ASSERT_TRUE(round.sim.step());
    completed_on = round.completed();
    jobs_on = round.source->jobs_emitted();
    // Nothing flushed at the switch: every tally is still local.
    set_enabled(false);
    round.sim.run();
    ASSERT_GT(round.completed(), completed_on);
  }
  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counters.at("lbmv_sim_events_total"), steps_on);
  EXPECT_EQ(snap.counters.at("lbmv_sim_source_jobs_total"), jobs_on);
  std::uint64_t completions = 0, arrivals = 0, waits = 0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const std::string server = computer_name(i);
    completions += snap.counters.at(
        labeled("lbmv_server_completions_total", "server", server));
    arrivals += snap.counters.at(
        labeled("lbmv_server_arrivals_total", "server", server));
    waits += snap.histograms
                 .at(labeled("lbmv_server_waiting_seconds", "server", server))
                 .count;
  }
  EXPECT_EQ(completions, completed_on);
  EXPECT_EQ(waits, completed_on);
  EXPECT_EQ(arrivals, jobs_on);
}

TEST(BatchedRecording, RecordingLeavesCompletionTracesBitIdentical) {
  const auto& config = sim_config();
  const std::vector<double> rates = {1.5, 1.2, 1.0, 0.9, 0.8, 0.6};
  const auto traces = [&](bool recording) {
    set_enabled(recording);
    ReplayedRound round(config.true_values(), rates, 1000.0, 11);
    round.sim.run();
    set_enabled(false);
    std::vector<std::vector<lbmv::sim::Completion>> out;
    for (const auto* s : round.ptrs) out.push_back(s->completions());
    return out;
  };
  const auto off = traces(false);
  const auto on = traces(true);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    ASSERT_EQ(on[i].size(), off[i].size());
    for (std::size_t k = 0; k < on[i].size(); ++k) {
      EXPECT_EQ(on[i][k].job_id, off[i][k].job_id);
      EXPECT_EQ(on[i][k].arrival, off[i][k].arrival);
      EXPECT_EQ(on[i][k].start, off[i][k].start);
      EXPECT_EQ(on[i][k].finish, off[i][k].finish);
    }
  }
}

TEST(BatchedRecording, ReplicatedTotalsIndependentOfThreadCount) {
  SKIP_IF_COMPILED_OUT();
  const auto& config = sim_config();
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 400.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  std::vector<MetricsSnapshot> snaps;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    lbmv::util::ThreadPool pool(threads);
    lbmv::sim::ReplicationOptions replication;
    replication.replications = 8;
    replication.root_seed = 19;
    replication.pool = &pool;
    Registry::global().reset();
    set_enabled(true);
    (void)protocol.run_replicated(
        config, lbmv::model::BidProfile::truthful(config), replication);
    set_enabled(false);
    snaps.push_back(Registry::global().snapshot());
  }
  // Pool counters differ with the pool's size by design; every simulator
  // and mechanism family must not.
  const auto simulated = [](const MetricsSnapshot& s) {
    MetricsSnapshot out;
    const auto keep = [](const std::string& name) {
      return name.rfind("lbmv_sim_", 0) == 0 ||
             name.rfind("lbmv_server_", 0) == 0 ||
             name.rfind("lbmv_mech_round_", 0) == 0 ||
             name == "lbmv_protocol_rounds_total";
    };
    for (const auto& [k, v] : s.counters) {
      if (keep(k)) out.counters[k] = v;
    }
    for (const auto& [k, v] : s.gauges) {
      if (keep(k)) out.gauges[k] = v;
    }
    for (const auto& [k, v] : s.histograms) {
      if (keep(k)) out.histograms[k] = v;
    }
    return out;
  };
  const MetricsSnapshot want = simulated(snaps[0]);
  ASSERT_EQ(want.counters.at("lbmv_protocol_rounds_total"), 8u);
  EXPECT_EQ(want.gauges.at("lbmv_sim_queue_depth"), 0.0);
  for (std::size_t t = 1; t < snaps.size(); ++t) {
    expect_same_families(snaps[t], want);
  }
}

}  // namespace
