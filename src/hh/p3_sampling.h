// Protocol P3: sampling-based trackers (paper Algorithms 4.5 / 4.6 and the
// with-replacement variant of Section 4.3.1).
//
// Without replacement (P3wor): sites forward an item when its priority
// rho = w / Unif(0,1] reaches the global threshold tau. The coordinator
// buckets arrivals into Q_cur (tau <= rho < 2 tau) and Q_next (rho >= 2
// tau); when |Q_next| reaches s it doubles tau, broadcasts it, discards
// Q_cur and re-partitions. The pool Q_cur + Q_next is at all times exactly
// {items with rho >= tau}, i.e. a priority sample, from which subset-sum
// estimates use adjusted weights max(w, rho_min).
//
// With replacement (P3wr): s independent single-item priority samplers.
// Each site conceptually draws s priorities per item and forwards the
// successes; we simulate the identical distribution with geometric skips
// so the cost is proportional to the number of *sent* messages, not s*N.
// The coordinator keeps the top-2 priorities per sampler; a round ends
// when every second-highest priority exceeds 2 tau.
#ifndef DMT_HH_P3_SAMPLING_H_
#define DMT_HH_P3_SAMPLING_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hh/hh_protocol.h"
#include "sketch/priority_sampler.h"
#include "util/rng.h"

namespace dmt {
namespace hh {

/// Returns the paper's sample size s = Theta((1/eps^2) log(1/eps)).
size_t SampleSizeForEpsilon(double eps);

/// Without-replacement sampling protocol (P3wor).
class P3SamplingWoR
    : public HHProtocolCore<P3SamplingWoR, sketch::PriorityEntry> {
 public:
  /// `sample_size` = 0 derives s from eps via SampleSizeForEpsilon.
  P3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                size_t sample_size = 0);

  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  std::string name() const override { return "P3wor"; }
  std::vector<uint64_t> TrackedElements() const override;

  size_t sample_size() const { return s_; }
  double threshold() const { return tau_; }
  size_t pool_size() const { return q_cur_.size() + q_next_.size(); }

 private:
  friend Core;

  // One forwarded item is one (element, weight) message.
  static stream::MessageCost Cost(const sketch::PriorityEntry&) {
    return stream::MessageCost{0, 1, 0};
  }
  void SiteStep(size_t site, uint64_t element, double weight);
  void Apply(size_t site, const sketch::PriorityEntry& e);
  void EndRoundIfNeeded();
  /// Current adjusted sample (exact weights while still in round 1).
  std::vector<sketch::PriorityEntry> CurrentSample() const;

  size_t s_;
  // One private generator per site (seed = base ⊕ site), so sites draw
  // priorities independently and may run on concurrent threads.
  std::vector<Rng> site_rngs_;
  double tau_ = 1.0;
  bool tau_ever_doubled_ = false;
  std::vector<sketch::PriorityEntry> q_cur_;
  std::vector<sketch::PriorityEntry> q_next_;
};

/// All P3wr sampler successes one element scored at one site: (slot
/// index, priority) pairs, one message each, delivered as one batch so
/// round accounting matches the per-element serial schedule.
struct P3Sends {
  uint64_t element;
  double weight;
  std::vector<std::pair<size_t, double>> hits;
};

/// With-replacement sampling protocol (P3wr).
class P3SamplingWR : public HHProtocolCore<P3SamplingWR, P3Sends> {
 public:
  P3SamplingWR(size_t num_sites, double eps, uint64_t seed,
               size_t sample_size = 0);

  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  std::string name() const override { return "P3wr"; }
  std::vector<uint64_t> TrackedElements() const override;

  size_t sample_size() const { return s_; }

 private:
  friend Core;

  struct Slot {
    sketch::PriorityEntry top;
    double second_priority = 0.0;
  };

  static stream::MessageCost Cost(const P3Sends& sends) {
    return stream::MessageCost{0, sends.hits.size(), 0};
  }
  void SiteStep(size_t site, uint64_t element, double weight);
  void Apply(size_t site, const P3Sends& sends);
  void ApplySlotUpdate(size_t t, uint64_t element, double weight,
                       double rho);
  void EndRoundIfNeeded();

  size_t s_;
  // One private generator per site (seed = base ⊕ site); see P3SamplingWoR.
  std::vector<Rng> site_rngs_;
  double tau_ = 1.0;
  std::vector<Slot> slots_;
  size_t slots_below_2tau_ = 0;  // count of slots with second <= 2 tau
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P3_SAMPLING_H_
