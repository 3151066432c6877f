#include "hh/exact_tracker.h"

namespace dmt {
namespace hh {

ExactTracker::ExactTracker(size_t num_sites) : HHProtocolCore(num_sites) {}

double ExactTracker::EstimateElementWeight(uint64_t element) const {
  auto it = weights_.find(element);
  return it == weights_.end() ? 0.0 : it->second;
}

double ExactTracker::EstimateTotalWeight() const { return total_; }

std::vector<uint64_t> ExactTracker::TrackedElements() const {
  std::vector<uint64_t> out;
  out.reserve(weights_.size());
  for (const auto& [e, w] : weights_) out.push_back(e);
  return out;
}

}  // namespace hh
}  // namespace dmt
