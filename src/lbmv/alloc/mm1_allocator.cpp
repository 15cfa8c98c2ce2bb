#include "lbmv/alloc/mm1_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "lbmv/util/error.h"

namespace lbmv::alloc {
namespace {

/// The typed diagnostic for a closed form that cancels: one computer so
/// much faster than the rest that x = mu - c sqrt(mu) (or sum mu - R over
/// the active set) keeps no significant digits.
std::string unresolvable(std::size_t agent, std::size_t n) {
  return "M/M/1 allocation is numerically unresolvable: one computer is so "
         "much faster than the rest that x = mu - c sqrt(mu) cancels "
         "catastrophically (agent " +
         std::to_string(agent) + " of " + std::to_string(n) + ")";
}

}  // namespace

Mm1Solve mm1_solve_into(std::span<const double> mus, double arrival_rate,
                        std::span<double> rates_out) {
  LBMV_REQUIRE(!mus.empty(), "need at least one computer");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(rates_out.size() == mus.size(), "rates_out size mismatch");
  double total_mu = 0.0;
  for (double mu : mus) {
    LBMV_REQUIRE(mu > 0.0, "service rates must be positive");
    total_mu += mu;
  }
  LBMV_REQUIRE(arrival_rate < total_mu,
               "arrival rate exceeds the total service capacity");
  LBMV_REQUIRE(total_mu - arrival_rate >= kMm1MinRelativeSlack * total_mu,
               "arrival rate sits within 1e-9 of the total service capacity: "
               "the M/M/1 closed form would return only cancelled digits");

  // Indices sorted by decreasing service rate; the active set is always a
  // prefix of this order.
  std::vector<std::size_t> order(mus.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return mus[a] > mus[b]; });

  std::size_t active = order.size();
  double c = 0.0;
  double sum_sqrt = 0.0;
  for (;;) {
    double sum_mu = 0.0;
    sum_sqrt = 0.0;
    for (std::size_t k = 0; k < active; ++k) {
      sum_mu += mus[order[k]];
      sum_sqrt += std::sqrt(mus[order[k]]);
    }
    c = (sum_mu - arrival_rate) / sum_sqrt;
    LBMV_REQUIRE(c > 0.0, unresolvable(order[0], mus.size()));
    // Drop trailing computers whose load would be non-positive.
    std::size_t keep = active;
    while (keep > 1 && std::sqrt(mus[order[keep - 1]]) <= c) --keep;
    if (keep == active) break;
    active = keep;
  }

  std::fill(rates_out.begin(), rates_out.end(), 0.0);
  for (std::size_t k = 0; k < active; ++k) {
    const std::size_t i = order[k];
    rates_out[i] = mus[i] - c * std::sqrt(mus[i]);
    LBMV_REQUIRE(rates_out[i] > 0.0 && rates_out[i] < mus[i],
                 unresolvable(i, mus.size()));
  }

  Mm1Solve solve;
  solve.c = c;
  solve.active = active;
  solve.sum_sqrt_active = sum_sqrt;
  // Active queue lengths collapse to x/(mu - x) = sqrt(mu)/c - 1; dropped
  // computers carry no load and so no latency.
  solve.optimal_latency = sum_sqrt / c - static_cast<double>(active);
  return solve;
}

model::Allocation mm1_allocate(std::span<const double> mus,
                               double arrival_rate) {
  std::vector<double> x(mus.size(), 0.0);
  mm1_solve_into(mus, arrival_rate, x);
  return model::Allocation(std::move(x));
}

double mm1_optimal_latency(std::span<const double> mus, double arrival_rate) {
  std::vector<double> scratch(mus.size(), 0.0);
  return mm1_solve_into(mus, arrival_rate, scratch).optimal_latency;
}

namespace {

void types_to_mus(const model::LatencyFamily& family,
                  std::span<const double> types, std::vector<double>& mus) {
  LBMV_REQUIRE(dynamic_cast<const model::MM1Family*>(&family) != nullptr,
               "MM1Allocator requires the MM1 latency family");
  mus.resize(types.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    LBMV_REQUIRE(types[i] > 0.0, "types must be positive");
    mus[i] = 1.0 / types[i];
  }
}

}  // namespace

model::Allocation MM1Allocator::allocate(const model::LatencyFamily& family,
                                         std::span<const double> types,
                                         double arrival_rate) const {
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  return mm1_allocate(mus, arrival_rate);
}

void MM1Allocator::allocate_into(const model::LatencyFamily& family,
                                 std::span<const double> types,
                                 double arrival_rate,
                                 std::vector<double>& rates) const {
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  rates.resize(types.size());
  mm1_solve_into(mus, arrival_rate, rates);
}

double MM1Allocator::optimal_latency(const model::LatencyFamily& family,
                                     std::span<const double> types,
                                     double arrival_rate) const {
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  return mm1_optimal_latency(mus, arrival_rate);
}

void MM1Allocator::leave_one_out_into(const model::LatencyFamily& family,
                                      std::span<const double> types,
                                      double arrival_rate,
                                      std::vector<double>& out) const {
  const std::size_t n = types.size();
  LBMV_REQUIRE(n >= 2, "leave-one-out requires at least two computers");
  std::vector<double> mus;
  types_to_mus(family, types, mus);

  double sum_mu = 0.0;
  double sum_a = 0.0;
  // min / second-min of a_j = sqrt(mu_j): min over j != i is the global min
  // unless i is the argmin, in which case it is the runner-up.
  double min_a = std::numeric_limits<double>::infinity();
  double second_a = std::numeric_limits<double>::infinity();
  std::size_t argmin_a = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::sqrt(mus[i]);
    sum_mu += mus[i];
    sum_a += a;
    if (a < min_a) {
      second_a = min_a;
      min_a = a;
      argmin_a = i;
    } else if (a < second_a) {
      second_a = a;
    }
  }

  out.resize(n);
  std::vector<double> rest;      // lazy: only built when a rest set is not
  std::vector<double> scratch;   // all-active and needs the full solver
  for (std::size_t i = 0; i < n; ++i) {
    const double rest_mu = sum_mu - mus[i];
    const double slack = rest_mu - arrival_rate;
    if (slack <= 0.0 || slack < kMm1MinRelativeSlack * rest_mu) {
      std::ostringstream os;
      os << "leave-one-out subsystem without computer " << i
         << " cannot absorb the arrival rate (sum of remaining service "
            "rates "
         << rest_mu << " vs arrival rate " << arrival_rate
         << "): the M/M/1 closed form is undefined there";
      throw util::PreconditionError(os.str());
    }
    const double rest_a = sum_a - std::sqrt(mus[i]);
    const double c = slack / rest_a;
    const double rest_min_a = i == argmin_a ? second_a : min_a;
    if (rest_min_a > c) {
      // Every remaining computer stays active: O(1) closed form.
      out[i] = rest_a / c - static_cast<double>(n - 1);
    } else {
      // Some computer drops out of the rest set; run the full active-set
      // solve on the subsystem.
      rest.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) rest.push_back(mus[j]);
      }
      scratch.resize(rest.size());
      out[i] = mm1_solve_into(rest, arrival_rate, scratch).optimal_latency;
    }
  }
}

}  // namespace lbmv::alloc
