#pragma once

/// \file generic_path.h
/// Oracle seam shared by the tests, the benches and the perf runner.
///
/// core::classify_round hands a round to an exact engine only when its
/// allocator IS PRAllocator, MM1Allocator or WorkloadAllocator.  GenericPath
/// forwards every call to one of those but is a different type, so a
/// mechanism built over it runs every round — and every
/// make_profile_context — down the generic reference path, with the same
/// allocation rule.  Engine-vs-oracle differentials compare a mechanism
/// against its twin over generic_path(allocator).

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lbmv/alloc/allocator.h"

namespace lbmv::testing {

class GenericPath final : public alloc::Allocator {
 public:
  explicit GenericPath(std::shared_ptr<const alloc::Allocator> exact)
      : exact_(std::move(exact)) {}

  [[nodiscard]] model::Allocation allocate(
      const model::LatencyFamily& family, std::span<const double> types,
      double arrival_rate) const override {
    return exact_->allocate(family, types, arrival_rate);
  }
  void allocate_into(const model::LatencyFamily& family,
                     std::span<const double> types, double arrival_rate,
                     std::vector<double>& rates) const override {
    exact_->allocate_into(family, types, arrival_rate, rates);
  }
  [[nodiscard]] double optimal_latency(const model::LatencyFamily& family,
                                       std::span<const double> types,
                                       double arrival_rate) const override {
    return exact_->optimal_latency(family, types, arrival_rate);
  }
  void leave_one_out_into(const model::LatencyFamily& family,
                          std::span<const double> types, double arrival_rate,
                          std::vector<double>& out) const override {
    exact_->leave_one_out_into(family, types, arrival_rate, out);
  }
  [[nodiscard]] std::string name() const override {
    return "generic(" + exact_->name() + ")";
  }

 private:
  std::shared_ptr<const alloc::Allocator> exact_;
};

/// \p exact behind the seam.
[[nodiscard]] inline std::shared_ptr<const alloc::Allocator> generic_path(
    std::shared_ptr<const alloc::Allocator> exact) {
  return std::make_shared<const GenericPath>(std::move(exact));
}

}  // namespace lbmv::testing
