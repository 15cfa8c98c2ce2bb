#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/latency.h"
#include "lbmv/obs/obs.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/strategy/best_response.h"
#include "lbmv/util/rng.h"

namespace e2e {
namespace {

constexpr MetricSpec kPerLayer[] = {
    {"sim.run_ms", "ms"},
    {"sim.ns_per_job", "ns"},
    {"sim.jobs", "count"},
    {"sim.events", "count"},
    {"sim.setup_ms", "ms"},
    {"sim.metrics_ms", "ms"},
    {"sim.estimate_ms", "ms"},
    {"sim.estimate_fallback_frac", "ratio"},
    {"alloc.allocate_us", "us"},
    {"core.pay_us", "us"},
    {"sim.drift_us", "us"},
    {"util.rng_us", "us"},
    {"sim.record_us", "us"},
    {"model.config_us", "us"},
    {"core.round_us", "us"},
    {"alloc.optimal_latency_us", "us"},
    {"core.delta_rounds", "count"},
    {"core.full_rebuilds", "count"},
    {"core.newton_iters", "count"},
    {"strategy.rounds", "count"},
    {"strategy.round_ms", "ms"},
    {"strategy.deviation_evals", "count"},
    {"strategy.grid_evals", "count"},
    {"strategy.grid_lane_util", "ratio"},
    {"strategy.commits", "count"},
    {"strategy.runs_avoided_frac", "ratio"},
    {"obs.monitor_checks", "count"},
    {"obs.extra.alloc.allocate_us", "us"},
    {"obs.extra.sim.setup_ms", "ms"},
    {"obs.extra.sim.run_ms", "ms"},
    {"obs.extra.sim.metrics_ms", "ms"},
    {"obs.extra.sim.estimate_ms", "ms"},
    {"obs.extra.core.pay_us", "us"},
    {"trace.op_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

constexpr std::string_view kWorkloads[] = {"protocol", "protocol_obs", "epochs",
                                           "epochs_nonlinear", "dynamics"};

/// A layer's per-layer metric: the name and the factor from seconds.
struct LayerName {
  Layer layer;
  const char* name;
  double scale;
};

constexpr LayerName kRoundLayers[] = {
    {kAllocate, "alloc.allocate_us", 1e6}, {kSimSetup, "sim.setup_ms", 1e3},
    {kSimRun, "sim.run_ms", 1e3},          {kSimMetrics, "sim.metrics_ms", 1e3},
    {kSimEstimate, "sim.estimate_ms", 1e3}, {kPay, "core.pay_us", 1e6},
};

constexpr LayerName kEpochLayers[] = {
    {kConfig, "model.config_us", 1e6}, {kRound, "core.round_us", 1e6},
    {kOptimal, "alloc.optimal_latency_us", 1e6},
    {kRecord, "sim.record_us", 1e6},   {kDrift, "sim.drift_us", 1e6},
    {kRng, "util.rng_us", 1e6},
};

constexpr double kCheckTol = 1e-9;

bool close(double a, double b, double tol = kCheckTol) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

double count(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Per-op seed: op indices never share a stream.
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  return lbmv::util::splitmix64(seed ^ lbmv::util::splitmix64(index + 1));
}

std::vector<double> log_uniform(lbmv::util::Rng& rng, std::size_t n, double lo,
                                double hi) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = std::exp(rng.uniform(std::log(lo), std::log(hi)));
  }
  return values;
}

/// \p k distinct agents out of \p n, by a partial Fisher-Yates shuffle.
std::vector<std::size_t> pick_agents(lbmv::util::Rng& rng, std::size_t n,
                                     std::size_t k) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n - 1)));
    std::swap(order[i], order[j]);
  }
  order.resize(k);
  return order;
}

/// Each layer's time, scaled to its unit, per \p per ops or epochs.
void add_layers(std::span<const LayerName> names,
                const std::array<double, kLayerCount>& seconds, double per,
                Metrics& out) {
  for (const LayerName& l : names) {
    out[l.name] = l.scale * seconds[l.layer] / per;
  }
}

/// protocol / protocol_obs: one VerifiedProtocol::run_round per op.
class ProtocolWorkload final : public Workload {
 public:
  ProtocolWorkload(std::uint64_t seed, bool telemetry)
      : seed_(seed), telemetry_(telemetry), config_(make_config(seed)),
        protocol_(mechanism_, make_options()) {
    lbmv::util::Rng rng(lbmv::util::splitmix64(seed + 1));
    intents_ = lbmv::model::BidProfile::truthful(config_);
    const std::size_t n = config_.size();
    for (const std::size_t i : pick_agents(rng, n, n / 8)) {
      intents_.bids[i] *= rng.uniform(0.5, 3.0);
      intents_.executions[i] *= rng.uniform(1.0, 2.0);
    }
  }

  void op(std::uint64_t index) override {
    report_ = protocol_.run_round(config_, intents_, op_seed(seed_, index));
  }

  std::string check() override {
    const std::optional<lbmv::sim::RoundReport> report = std::move(report_);
    report_.reset();
    composed_.reset();
    if (!report) return "no output";
    const std::size_t n = config_.size();
    const double rate = config_.arrival_rate();
    const auto x = report->allocation.rates();
    if (x.size() != n) return "allocation size";
    // Thm 2.1: x_i = R (1/b_i) / sum_j 1/b_j, so sum x = R.
    double inv_sum = 0.0;
    for (const double b : intents_.bids) inv_sum += 1.0 / b;
    double shipped = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!close(x[i], rate / intents_.bids[i] / inv_sum)) {
        return "allocation of agent " + std::to_string(i) +
               " is not the PR closed form";
      }
      shipped += x[i];
    }
    if (!close(shipped, rate)) return "allocated rates do not sum to R";
    for (const auto* outcome : {&report->outcome, &report->oracle_outcome}) {
      if (outcome->agents.size() != n) return "outcome size";
      for (std::size_t i = 0; i < n; ++i) {
        const auto& a = outcome->agents[i];
        if (!std::isfinite(a.payment) || !close(a.payment,
                                                a.compensation + a.bonus)) {
          return "P != C + B for agent " + std::to_string(i);
        }
      }
    }
    // Thm 3.2 at the oracle values.  U_i = L_-i - L(x, t~), and L(x, t~)
    // is L*(b) plus the excess sum_j (t~_j - b_j) x_j^2 of the agents that
    // execute slower than they bid, so a truthful agent's utility plus
    // that excess is L_-i - L*(b) >= 0.  Without deviators it reads
    // U_i >= 0.
    double excess = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      excess += (intents_.executions[i] - intents_.bids[i]) * x[i] * x[i];
    }
    const double scale = std::max(1.0, rate * rate / inv_sum);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = config_.true_value(i);
      if (intents_.bids[i] != t || intents_.executions[i] != t) continue;
      if (report->oracle_outcome.agents[i].utility + excess <
          -kCheckTol * scale) {
        return "truthful agent " + std::to_string(i) +
               " loses at the oracle values";
      }
    }
    if (report->messages != 3 * n) return "message count is not 3n";
    for (const double e : report->estimated_execution) {
      if (!(std::isfinite(e) && e > 0.0)) return "estimate not finite";
    }
    return {};
  }

  bool composable() const override { return true; }

  void composed(std::uint64_t index, LayerTotals& totals) override {
    const LayerTotals before = totals;
    composed_ = composed_round(mechanism_, protocol_.options(), config_,
                               intents_, op_seed(seed_, index), totals);
    if (index == 0) {
      first_jobs_ = totals.jobs - before.jobs;
      first_events_ = totals.events - before.events;
    }
  }

  std::string fidelity() const override {
    if (!report_ || !composed_) return "missing output";
    return round_difference(*composed_, *report_);
  }

  bool telemetry() const override { return telemetry_; }

  std::string layer_metrics(const TraceSummary& trace,
                            Metrics& out) const override {
    const double ops = static_cast<double>(trace.ops);
    add_layers(kRoundLayers, trace.on.seconds, ops, out);
    out["sim.ns_per_job"] = 1e9 * trace.on.seconds[kSimRun] /
                            static_cast<double>(trace.on.jobs);
    out["sim.jobs"] = count(trace.counters, "lbmv_sim_source_jobs_total");
    out["sim.events"] = count(trace.counters, "lbmv_sim_events_total");
    out["sim.estimate_fallback_frac"] =
        static_cast<double>(trace.on.fallbacks) /
        (ops * static_cast<double>(config_.size()));
    if (telemetry_) {
      out["obs.monitor_checks"] = static_cast<double>(trace.monitor_checks);
      Metrics off;
      add_layers(kRoundLayers, trace.off.seconds, ops, off);
      for (const auto& [name, value] : off) {
        out["obs.extra." + name] = out[name] - value;
      }
    }
    if (lbmv::obs::kCompiledIn &&
        (static_cast<double>(first_jobs_) != out["sim.jobs"] ||
         static_cast<double>(first_events_) != out["sim.events"])) {
      return "composed round's jobs/events differ from the counting pass";
    }
    return {};
  }

 private:
  static lbmv::model::SystemConfig make_config(std::uint64_t seed) {
    lbmv::util::Rng rng(seed);
    return lbmv::model::SystemConfig(log_uniform(rng, 64, 0.01, 0.04), 32.0);
  }

  static lbmv::sim::ProtocolOptions make_options() {
    lbmv::sim::ProtocolOptions options;
    options.horizon = 2000.0;
    options.service_model = lbmv::sim::ServiceModel::kExponential;
    return options;
  }

  std::uint64_t seed_;
  bool telemetry_;
  lbmv::model::SystemConfig config_;
  lbmv::core::CompBonusMechanism mechanism_;
  lbmv::sim::VerifiedProtocol protocol_;
  lbmv::model::BidProfile intents_;
  std::optional<lbmv::sim::RoundReport> report_;
  std::optional<lbmv::sim::RoundReport> composed_;
  std::uint64_t first_jobs_ = 0;
  std::uint64_t first_events_ = 0;
};

/// Inputs of an epochs workload.
struct EpochsSpec {
  std::size_t n;
  int epochs;
  bool nonlinear;  ///< WorkloadFamily(0.5) + WorkloadAllocator
};

/// epochs / epochs_nonlinear: one sim::run_epochs horizon per op.
class EpochsWorkload final : public Workload {
 public:
  EpochsWorkload(std::uint64_t seed, const EpochsSpec& spec)
      : seed_(seed),
        mechanism_(spec.nonlinear
                       ? lbmv::core::CompBonusMechanism(
                             std::make_shared<
                                 const lbmv::alloc::WorkloadAllocator>())
                       : lbmv::core::CompBonusMechanism()),
        config_(make_config(seed, spec)) {
    options_.epochs = spec.epochs;
    options_.drift_sigma = 0.08;
    options_.bid_lags.assign(spec.n, 0);
    lbmv::util::Rng rng(lbmv::util::splitmix64(seed + 1));
    for (const std::size_t i : pick_agents(rng, spec.n, spec.n / 4)) {
      options_.bid_lags[i] = 1;
    }
  }

  void op(std::uint64_t index) override {
    options_.seed = op_seed(seed_, index);
    report_ = lbmv::sim::run_epochs(mechanism_, config_, options_);
  }

  std::string check() override {
    const std::optional<lbmv::sim::EpochReport> report = std::move(report_);
    report_.reset();
    composed_.reset();
    if (!report) return "no output";
    const auto& records = report->records;
    const auto epochs = static_cast<std::size_t>(options_.epochs);
    if (records.size() != epochs) return "epoch count";
    for (std::size_t e = 0; e < epochs; ++e) {
      const double eff = records[e].efficiency;
      if (!(eff > 0.0 && eff <= 1.0 + 1e-12)) {
        return "efficiency outside (0, 1] at epoch " + std::to_string(e);
      }
    }
    // A sample of epochs against a fresh round at the epoch's profile:
    // bids are the true values lag epochs back, executions the current.
    const std::size_t n = config_.size();
    lbmv::model::BidProfile profile;
    profile.bids.resize(n);
    for (const std::size_t e : {std::size_t{0}, epochs / 2, epochs - 1}) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lag = static_cast<std::size_t>(options_.bid_lags[i]);
        profile.bids[i] = records[e >= lag ? e - lag : 0].true_values[i];
      }
      profile.executions = records[e].true_values;
      const auto fresh = mechanism_.run(config_.family(),
                                        config_.arrival_rate(), profile);
      if (auto d = outcome_difference(records[e].outcome, fresh, kCheckTol);
          !d.empty()) {
        return "epoch " + std::to_string(e) + " differs from a fresh round: " +
               d;
      }
    }
    for (const double u : report->cumulative_utility) {
      if (!std::isfinite(u)) return "cumulative utility not finite";
    }
    return {};
  }

  bool composable() const override { return true; }

  void composed(std::uint64_t index, LayerTotals& totals) override {
    lbmv::sim::EpochOptions options = options_;
    options.seed = op_seed(seed_, index);
    composed_ = composed_epochs(mechanism_, config_, options, totals);
  }

  std::string fidelity() const override {
    if (!report_ || !composed_) return "missing output";
    return epochs_difference(*composed_, *report_);
  }

  std::string layer_metrics(const TraceSummary& trace,
                            Metrics& out) const override {
    add_layers(kEpochLayers, trace.on.seconds,
               static_cast<double>(trace.ops) * options_.epochs, out);
    out["core.delta_rounds"] =
        count(trace.counters, "lbmv_core_delta_rounds_total");
    out["core.full_rebuilds"] =
        count(trace.counters, "lbmv_core_full_rebuilds_total");
    out["core.newton_iters"] =
        count(trace.counters, "lbmv_mech_newton_iters_total");
    return {};
  }

 private:
  static lbmv::model::SystemConfig make_config(std::uint64_t seed,
                                               const EpochsSpec& spec) {
    lbmv::util::Rng rng(seed);
    auto values = log_uniform(rng, spec.n, 1.0, 10.0);
    if (!spec.nonlinear) return {std::move(values), 20.0};
    return {std::move(values), 20.0,
            std::make_shared<const lbmv::model::WorkloadFamily>(0.5)};
  }

  std::uint64_t seed_;
  lbmv::core::CompBonusMechanism mechanism_;
  lbmv::model::SystemConfig config_;
  lbmv::sim::EpochOptions options_;
  std::optional<lbmv::sim::EpochReport> report_;
  std::optional<lbmv::sim::EpochReport> composed_;
};

/// dynamics: one strategy::best_response_dynamics run per op.
class DynamicsWorkload final : public Workload {
 public:
  explicit DynamicsWorkload(std::uint64_t seed)
      : seed_(seed), config_(make_config(seed)) {}

  void op(std::uint64_t index) override {
    lbmv::util::Rng rng(op_seed(seed_, index));
    lbmv::model::BidProfile start = lbmv::model::BidProfile::truthful(config_);
    for (double& b : start.bids) b *= std::exp(rng.uniform(-1.0, 1.0));
    result_ = lbmv::strategy::best_response_dynamics(mechanism_, config_,
                                                     start, {});
    rounds_[index] = result_->rounds;
  }

  std::string check() override {
    const std::optional<lbmv::strategy::BestResponseResult> result =
        std::move(result_);
    result_.reset();
    if (!result) return "no output";
    if (!result->converged) return "dynamics did not converge";
    for (std::size_t i = 0; i < result->final_bids.size(); ++i) {
      if (!(std::isfinite(result->final_bids[i]) &&
            std::isfinite(result->final_executions[i]))) {
        return "final action of agent " + std::to_string(i) + " not finite";
      }
    }
    const double optimum = mechanism_.allocator().optimal_latency(
        config_.family(), config_.true_values(), config_.arrival_rate());
    if (!(result->final_actual_latency >= optimum * (1.0 - kCheckTol))) {
      return "final latency below the optimum at the true values";
    }
    return {};
  }

  std::string layer_metrics(const TraceSummary& trace,
                            Metrics& out) const override {
    const Counters& c = trace.counters;
    const double evals = count(c, "lbmv_strategy_deviation_evals_total");
    const double grid = count(c, "lbmv_strategy_grid_evals_total");
    const double wasted = count(c, "lbmv_strategy_grid_lanes_wasted_total");
    // The traced loop ran ops 0 .. trace.ops - 1; ops that threw have
    // neither a time nor a round count.
    double rounds = 0.0;
    for (std::uint64_t i = 0; i < trace.ops; ++i) {
      if (const auto it = rounds_.find(i); it != rounds_.end()) {
        rounds += it->second;
      }
    }
    const auto first = rounds_.find(0);
    out["strategy.rounds"] = first == rounds_.end() ? 0.0 : first->second;
    out["strategy.round_ms"] =
        1e3 *
        std::accumulate(trace.untraced_s.begin(), trace.untraced_s.end(),
                        0.0) /
        rounds;
    out["strategy.deviation_evals"] = evals;
    out["strategy.grid_evals"] = grid;
    out["strategy.grid_lane_util"] =
        grid + wasted > 0.0 ? 1.0 - wasted / (grid + wasted) : 0.0;
    out["strategy.commits"] = count(c, "lbmv_strategy_commits_total");
    out["strategy.runs_avoided_frac"] =
        evals > 0.0
            ? count(c, "lbmv_strategy_mechanism_runs_avoided_total") / evals
            : 0.0;
    return {};
  }

 private:
  static lbmv::model::SystemConfig make_config(std::uint64_t seed) {
    lbmv::util::Rng rng(seed);
    return {log_uniform(rng, 1024, 1.0, 10.0), 20.0};
  }

  std::uint64_t seed_;
  lbmv::core::CompBonusMechanism mechanism_;
  lbmv::model::SystemConfig config_;
  std::optional<lbmv::strategy::BestResponseResult> result_;
  std::map<std::uint64_t, int> rounds_;  ///< best-response rounds per op
};

}  // namespace

std::span<const MetricSpec> per_layer_specs() { return kPerLayer; }

std::span<const std::string_view> workload_names() { return kWorkloads; }

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "protocol") return std::make_unique<ProtocolWorkload>(seed, false);
  if (name == "protocol_obs") {
    return std::make_unique<ProtocolWorkload>(seed, true);
  }
  if (name == "epochs") {
    return std::make_unique<EpochsWorkload>(seed, EpochsSpec{1024, 250, false});
  }
  if (name == "epochs_nonlinear") {
    return std::make_unique<EpochsWorkload>(seed, EpochsSpec{256, 50, true});
  }
  if (name == "dynamics") return std::make_unique<DynamicsWorkload>(seed);
  return nullptr;
}

}  // namespace e2e
