#include "lbmv/core/batch.h"

#include "lbmv/util/error.h"

namespace lbmv::core {

void ProfileBatch::push_back(const model::BidProfile& profile) {
  push_back(profile.bids, profile.executions);
}

void ProfileBatch::push_back(std::span<const double> bids,
                             std::span<const double> executions) {
  LBMV_REQUIRE(agents_ > 0, "set the batch's agent count before appending");
  LBMV_REQUIRE(bids.size() == agents_, "bid vector size mismatch");
  LBMV_REQUIRE(executions.size() == agents_,
               "execution vector size mismatch");
  bids_.insert(bids_.end(), bids.begin(), bids.end());
  executions_.insert(executions_.end(), executions.begin(), executions.end());
}

void ProfileBatch::extract_into(std::size_t b, model::BidProfile& out) const {
  LBMV_REQUIRE(b < size(), "profile index out of range");
  const std::span<const double> bid_slice = bids(b);
  const std::span<const double> exec_slice = executions(b);
  out.bids.assign(bid_slice.begin(), bid_slice.end());
  out.executions.assign(exec_slice.begin(), exec_slice.end());
}

RoundWorkspace& RoundWorkspace::thread_local_instance() {
  thread_local RoundWorkspace ws;
  return ws;
}

}  // namespace lbmv::core
