// lbmv_e2e: the end-to-end workload benchmark driver (README.md).
//
//   lbmv_e2e --workload NAME --seed N --seconds S --trace 0|1
//            [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 times a closed loop of ops for S seconds and prints the
// end-to-end metrics; --trace 1 runs the traced and counting passes and
// prints the per-layer metrics.  Every op's output is checked.  The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics.  Exit status 0 only when every check passed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "e2e_build_info.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/obs/flight_recorder.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/obs.h"
#include "lbmv/obs/trace.h"
#include "lbmv/util/json.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using lbmv::util::JsonValue;

constexpr int kSetups = 5;          // set-ups per run; setup_s is the median
constexpr int kWarmupOps = 3;       // checked ops in each set-up
// The tail percentile reported is the highest with >= 10 samples beyond it
// at the shortest workload's op count (~400 ops in 20 s): p95, which needs
// at least 182 ops.
constexpr std::size_t kMinOps = 200;
constexpr std::size_t kMinTraceOps = 10;
constexpr double kMaxPhaseSeconds = 120.0;  // hard stop for a slow machine
constexpr double kMinCoverage = 0.9;
// Warm-up ops draw their seeds far from the timed ops'.
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 40;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--src-digest") {
      args.src_digest = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  return args;
}

/// Ops attempted and failed, with the first failure's reason.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
};

/// One op and its output check; the op's wall time, or nullopt when it
/// threw.  The clock stops before the check.
std::optional<double> checked_op(e2e::Workload& w, std::uint64_t index,
                                 Tally& tally) {
  ++tally.attempted;
  try {
    const Clock::time_point t0 = Clock::now();
    w.op(index);
    const double seconds = since(t0);
    if (const std::string why = w.check(); !why.empty()) tally.fail(why);
    return seconds;
  } catch (const std::exception& e) {
    tally.fail(std::string("op threw: ") + e.what());
    return std::nullopt;
  }
}

/// Input generation, mechanism construction and warm-up ops.  Telemetry
/// workloads start a fresh recording session first, as `lbmv obs` does.
std::unique_ptr<e2e::Workload> set_up(const Args& args, Tally& tally) {
  lbmv::obs::set_enabled(false);
  auto w = e2e::make_workload(args.workload, args.seed);
  if (w->telemetry()) {
    lbmv::obs::Registry::global().reset();
    lbmv::obs::TraceRecorder::global().clear();
    lbmv::obs::FlightRecorder::global().clear();
    lbmv::obs::set_enabled(true);
  }
  for (int k = 0; k < kWarmupOps; ++k) {
    (void)checked_op(*w, kWarmupIndex + static_cast<std::uint64_t>(k), tally);
  }
  return w;
}

/// Counting pass: op 0 with the probes on, read back from the registry.
e2e::Counters count_op(e2e::Workload& w, Tally& tally,
                       std::uint64_t& monitor_checks) {
  lbmv::obs::Registry::global().reset();
  lbmv::obs::set_enabled(true);
  (void)checked_op(w, 0, tally);
  const lbmv::obs::MetricsSnapshot snap =
      lbmv::obs::Registry::global().snapshot();
  lbmv::obs::set_enabled(w.telemetry());
  monitor_checks = lbmv::obs::monitor_totals(snap).checks;
  return snap.counters;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

JsonValue provenance(const Args& args, std::size_t ops) {
  JsonValue::Object p;
  p["git_sha"] = args.git_sha;
  p["src_digest"] = args.src_digest;
  p["compiler"] = E2E_COMPILER;
  p["cxx_flags"] = E2E_CXX_FLAGS;
  p["build_type"] = E2E_BUILD_TYPE;
  p["vector_backend"] = lbmv::core::vector_backend_name();
  p["lbmv_obs"] = lbmv::obs::kCompiledIn;
  p["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  p["cpu_model"] = cpu_model();
  p["workload"] = args.workload;
  p["seed"] = static_cast<double>(args.seed);
  p["seconds"] = args.seconds;
  p["trace"] = args.trace;
  p["ops"] = static_cast<double>(ops);
  return JsonValue::Object{{"provenance", JsonValue(std::move(p))}};
}

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note = {}) {
  std::cout << "  " << std::left << std::setw(30) << name << std::right
            << std::setw(14) << std::setprecision(6) << value << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

/// --trace 0: set-ups, then the closed loop of timed ops.
std::size_t run_timed(const Args& args, Clock::time_point process_start,
                      Tally& tally, JsonValue::Object& metrics) {
  std::vector<double> setup_s;
  std::unique_ptr<e2e::Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
    w.reset();
    w = set_up(args, tally);
    setup_s.push_back(since(t0));
  }

  std::vector<double> op_s;
  const Clock::time_point phase_start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (const auto s = checked_op(*w, i, tally)) op_s.push_back(*s);
    const double elapsed = since(phase_start);
    if ((elapsed >= args.seconds && op_s.size() >= kMinOps) ||
        elapsed >= kMaxPhaseSeconds) {
      break;
    }
  }
  if (op_s.empty()) throw std::runtime_error("every timed op failed");

  const e2e::OpSummary ops = e2e::summarize_ops(op_s);
  const double setup = e2e::median(setup_s);
  const double rss = e2e::peak_rss_mib();
  const double failed_frac = static_cast<double>(tally.failed) /
                             static_cast<double>(tally.attempted);
  std::cout << "workload " << args.workload << "  seed " << args.seed
            << "  end-to-end\n";
  print_metric("ops_per_s", ops.ops_per_s, "1/s",
               std::to_string(ops.ops) + " ops, one caller, closed loop");
  print_metric("op_p50_ms", ops.p50_ms, "ms");
  std::ostringstream tail;
  tail << ops.p95_beyond << " of " << ops.ops
       << " samples beyond it; highest percentile with 10 beyond: p"
       << e2e::highest_supported_percentile(ops.ops);
  print_metric("op_p95_ms", ops.p95_ms, "ms", tail.str());
  print_metric("setup_s", setup, "s",
               "median of " + std::to_string(kSetups) + " set-ups");
  print_metric("peak_rss_mb", rss, "MiB");
  print_metric("failed_frac", failed_frac, "ratio",
               std::to_string(tally.failed) + " of " +
                   std::to_string(tally.attempted) + " ops");

  const auto put = [&](const char* name, double value, const char* unit) {
    metrics[name] = JsonValue::Object{{"value", value}, {"unit", unit}};
  };
  put("ops_per_s", ops.ops_per_s, "1/s");
  put("op_p50_ms", ops.p50_ms, "ms");
  put("op_p95_ms", ops.p95_ms, "ms");
  put("setup_s", setup, "s");
  put("peak_rss_mb", rss, "MiB");
  put("ok_frac", 1.0 - failed_frac, "ratio");
  return ops.ops;
}

/// --trace 1: composed and program ops side by side, then the counting
/// pass twice.  Returns false when the attribution itself fails a gate.
bool run_traced(const Args& args, Tally& tally, JsonValue::Object& metrics,
                std::size_t& ops_out) {
  std::unique_ptr<e2e::Workload> w = set_up(args, tally);
  const bool composable = w->composable();
  e2e::TraceSummary trace;
  std::vector<double> traced_s;

  const Clock::time_point phase_start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    ++tally.attempted;
    try {
      const auto composed = [&] {
        const Clock::time_point t0 = Clock::now();
        w->composed(i, trace.on);
        traced_s.push_back(since(t0));
      };
      // Alternate which goes first, so neither gets the warmer caches.
      if (composable && i % 2 == 1) composed();
      const Clock::time_point t0 = Clock::now();
      w->op(i);
      trace.untraced_s.push_back(since(t0));
      if (composable && i % 2 == 0) composed();
      std::string why = w->fidelity();
      if (why.empty() && composable && w->telemetry()) {
        lbmv::obs::set_enabled(false);
        w->composed(i, trace.off);
        lbmv::obs::set_enabled(true);
        why = w->fidelity();
      }
      if (!why.empty()) why = "composed op differs from the program: " + why;
      if (const std::string bad = w->check(); why.empty() && !bad.empty()) {
        why = bad;
      }
      if (!why.empty()) tally.fail(why);
    } catch (const std::exception& e) {
      tally.fail(std::string("op threw: ") + e.what());
    }
    ++trace.ops;
    const double elapsed = since(phase_start);
    if ((elapsed >= args.seconds && trace.ops >= kMinTraceOps) ||
        elapsed >= kMaxPhaseSeconds) {
      break;
    }
  }
  ops_out = trace.ops;

  std::uint64_t repeat_checks = 0;
  trace.counters = count_op(*w, tally, trace.monitor_checks);
  const e2e::Counters repeat = count_op(*w, tally, repeat_checks);
  bool ok = true;
  const auto gate = [&](bool pass, const std::string& why) {
    if (!pass) {
      std::cout << "trace gate failed: " << why << '\n';
      ok = false;
    }
  };
  gate(repeat == trace.counters && repeat_checks == trace.monitor_checks,
       "the counting pass's counts did not repeat");

  e2e::Metrics layer;
  for (const e2e::MetricSpec& spec : e2e::per_layer_specs()) {
    layer[spec.name] = 0.0;
  }
  const std::string inconsistent = w->layer_metrics(trace, layer);
  gate(inconsistent.empty(), inconsistent);
  if (composable && !traced_s.empty()) {
    const double traced_total =
        std::accumulate(traced_s.begin(), traced_s.end(), 0.0);
    std::vector<double> covered(trace.on.seconds.begin(),
                                trace.on.seconds.end());
    covered[e2e::kRng] = 0.0;  // inside kDrift
    layer["trace.op_ms"] =
        1e3 * traced_total / static_cast<double>(traced_s.size());
    layer["trace.coverage"] = e2e::coverage(covered, traced_total);
    layer["trace.overhead_frac"] = e2e::overhead_frac(
        e2e::median(traced_s), e2e::median(trace.untraced_s));
    gate(layer["trace.coverage"] >= kMinCoverage,
         "named layers explain less than 90% of the traced op");
  }

  std::cout << "workload " << args.workload << "  seed " << args.seed
            << "  per-layer (" << trace.ops << " traced ops)\n";
  for (const e2e::MetricSpec& spec : e2e::per_layer_specs()) {
    print_metric(spec.name, layer[spec.name], spec.unit);
    metrics[spec.name] = JsonValue::Object{{"value", layer[spec.name]},
                                           {"unit", spec.unit}};
  }
  return ok;
}

int run(const Args& args, Clock::time_point process_start) {
  Tally tally;
  JsonValue::Object metrics;
  std::size_t ops = 0;
  bool trace_ok = true;
  if (args.trace) {
    trace_ok = run_traced(args, tally, metrics, ops);
  } else {
    ops = run_timed(args, process_start, tally, metrics);
  }
  lbmv::obs::set_enabled(false);
  if (tally.failed > 0) {
    std::cout << "first failure: " << tally.first_failure << '\n';
  }
  const bool correct = tally.failed == 0 && trace_ok;
  std::cout << provenance(args, ops).dump() << '\n';
  JsonValue::Object result;
  result["correct"] = correct;
  result["attempted"] = static_cast<double>(tally.attempted);
  result["failed"] = static_cast<double>(tally.failed);
  result["metrics"] = std::move(metrics);
  std::cout << JsonValue(std::move(result)).dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::optional<Args> args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception&) {
    args.reset();
  }
  const auto names = e2e::workload_names();
  if (!args ||
      std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::cerr << "usage: lbmv_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA] [--src-digest HEX]\n"
                 "workloads:";
    for (const auto name : names) std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
  }
  try {
    return run(*args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "lbmv_e2e: " << e.what() << '\n';
    return 1;
  }
}
