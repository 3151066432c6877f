// Exact baseline: every element is forwarded to the coordinator.
//
// Zero error, Theta(N) messages — the reference point the paper's
// "baseline ... would have no error" refers to in Section 6.1.
#ifndef DMT_HH_EXACT_TRACKER_H_
#define DMT_HH_EXACT_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hh/hh_protocol.h"

namespace dmt {
namespace hh {

/// One forwarded arrival.
struct ExactForward {
  uint64_t element;
  double weight;
};

/// Forward-everything exact tracker.
class ExactTracker : public HHProtocolCore<ExactTracker, ExactForward> {
 public:
  explicit ExactTracker(size_t num_sites);

  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  std::string name() const override { return "Exact"; }
  std::vector<uint64_t> TrackedElements() const override;

 private:
  friend Core;

  static stream::MessageCost Cost(const ExactForward&) {
    return stream::MessageCost{0, 1, 0};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& f) {
    return io.Field(f.element) && io.Field(f.weight);
  }
  DMT_UNTRUSTED_INPUT
  bool Valid(const ExactForward& f) const { return f.weight > 0.0; }
  void SiteStep(size_t site, uint64_t element, double weight) {
    Emit(site, ExactForward{element, weight});
  }
  void Apply(size_t, const ExactForward& f) {
    weights_[f.element] += f.weight;
    total_ += f.weight;
  }

  std::unordered_map<uint64_t, double> weights_;
  double total_ = 0.0;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_EXACT_TRACKER_H_
