#include "bench_math.h"

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "lbmv/util/stats.h"

namespace e2e {

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

OpSummary summarize_ops(std::span<const double> op_seconds) {
  if (op_seconds.empty()) throw std::invalid_argument("no ops to summarise");
  OpSummary s;
  s.ops = op_seconds.size();
  s.busy_s = std::accumulate(op_seconds.begin(), op_seconds.end(), 0.0);
  s.ops_per_s = static_cast<double>(s.ops) / s.busy_s;
  s.p50_ms = 1e3 * lbmv::util::percentile(op_seconds, 50.0);
  s.p95_ms = 1e3 * lbmv::util::percentile(op_seconds, 95.0);
  s.p95_beyond = samples_beyond(s.ops, 95.0);
  return s;
}

double median(std::span<const double> values) {
  return lbmv::util::percentile(values, 50.0);
}

double parse_peak_rss_mib(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  const std::size_t at = status.find(kKey);
  if (at == std::string_view::npos) {
    throw std::runtime_error("no VmHWM line in the process status");
  }
  std::istringstream line(std::string(status.substr(at + kKey.size())));
  double kib = 0.0;
  std::string unit;
  if (!(line >> kib >> unit) || unit != "kB" || kib < 0.0) {
    throw std::runtime_error("malformed VmHWM line in the process status");
  }
  return kib / 1024.0;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return parse_peak_rss_mib(text.str());
}

double coverage(std::span<const double> layer_seconds, double op_seconds) {
  if (!(op_seconds > 0.0)) throw std::invalid_argument("op time must be > 0");
  return std::accumulate(layer_seconds.begin(), layer_seconds.end(), 0.0) /
         op_seconds;
}

double overhead_frac(double traced, double untraced) {
  if (!(untraced > 0.0)) throw std::invalid_argument("untraced must be > 0");
  return traced / untraced - 1.0;
}

}  // namespace e2e
