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

/// Coordinator half of the without-replacement samplers (P3wor, MP3wor):
/// pools `entry` into Q_cur (tau <= rho < 2 tau) or Q_next (rho >= 2 tau),
/// or drops it if tau already passed it (sent before the round's broadcast
/// arrived). Each time |Q_next| reaches `s`, tau doubles: Q_cur is dropped
/// and Q_next re-partitioned. Returns the number of doublings.
template <typename Entry>
size_t PoolSampled(Entry entry, double tau, size_t s,
                   std::vector<Entry>* q_cur, std::vector<Entry>* q_next) {
  if (entry.priority < tau) return 0;
  if (entry.priority < 2.0 * tau) {
    q_cur->push_back(std::move(entry));
    return 0;
  }
  q_next->push_back(std::move(entry));
  size_t doublings = 0;
  for (; q_next->size() >= s; ++doublings) {
    tau *= 2.0;
    q_cur->clear();
    std::vector<Entry> promoted;
    for (Entry& e : *q_next) {
      (e.priority >= 2.0 * tau ? promoted : *q_cur).push_back(std::move(e));
    }
    *q_next = std::move(promoted);
  }
  return doublings;
}

/// Site half of the with-replacement samplers (P3wr, MP3wr): the
/// (sampler, priority) successes of an arrival among `s` samplers,
/// visited with geometric skips.
std::vector<std::pair<uint64_t, double>> SampleHits(Rng* rng, double weight,
                                                    double tau, size_t s);

/// Coordinator half of the with-replacement samplers (P3wr, MP3wr): s
/// independent samplers, each holding the item of its top priority and
/// its second-highest priority. A round ends when every second priority
/// exceeds 2 tau; tau then doubles.
template <typename Item>
class SamplerSlots {
 public:
  struct Slot {
    Item item{};
    double top = 0.0;     // top priority; 0 while the sampler is empty
    double second = 0.0;  // second-highest priority
  };

  explicit SamplerSlots(size_t s) : slots_(s), below_2tau_(s) {}

  /// Offers one arrival's hits against threshold `tau`, then checks the
  /// round once (the per-arrival serial schedule). Returns the number of
  /// times tau doubles, each of which the caller broadcasts.
  size_t Offer(const std::vector<std::pair<uint64_t, double>>& hits,
               const Item& item, double tau) {
    for (const auto& [t, rho] : hits) {
      Slot& slot = slots_[t];
      const double second = slot.second;
      if (rho > slot.top) {
        slot.second = slot.top;
        slot.top = rho;
        slot.item = item;
      } else if (rho > second) {
        slot.second = rho;
      }
      if (second <= 2.0 * tau && slot.second > 2.0 * tau) --below_2tau_;
    }
    size_t doublings = 0;
    for (; below_2tau_ == 0; ++doublings) {
      tau *= 2.0;
      for (const Slot& slot : slots_) {
        if (slot.second <= 2.0 * tau) ++below_2tau_;
      }
    }
    return doublings;
  }

  /// The mean second priority over the non-empty samplers (each is an
  /// unbiased estimate of the total weight W); 0 while all are empty.
  /// `*live` receives the number of non-empty samplers.
  double MeanSecond(size_t* live) const {
    double sum = 0.0;
    *live = 0;
    for (const Slot& slot : slots_) {
      if (slot.top > 0.0) {
        sum += slot.second;
        ++*live;
      }
    }
    return *live == 0 ? 0.0 : sum / static_cast<double>(*live);
  }

  const std::vector<Slot>& slots() const { return slots_; }

  /// Wire domain of one arrival's batch: a positive weight and at least
  /// one hit, each naming a sampler and carrying a positive priority.
  bool Accepts(double weight,
               const std::vector<std::pair<uint64_t, double>>& hits) const {
    if (!(weight > 0.0) || hits.empty()) return false;
    for (const auto& [t, rho] : hits) {
      if (t >= slots_.size() || !(rho > 0.0)) return false;
    }
    return true;
  }

 private:
  std::vector<Slot> slots_;
  size_t below_2tau_;  // samplers whose second priority is <= 2 tau
};


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
  /// The coordinator's threshold tau, the last value it broadcast.
  double threshold() const { return broadcast_value(); }
  size_t pool_size() const { return q_cur_.size() + q_next_.size(); }

 private:
  friend Core;

  // One forwarded item is one (element, weight) message.
  static stream::MessageCost Cost(const sketch::PriorityEntry&) {
    return stream::MessageCost{0, 1, 0};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& e) {
    return io.Field(e.element) && io.Field(e.weight) &&
           io.Field(e.priority);
  }
  DMT_UNTRUSTED_INPUT
  bool Valid(const sketch::PriorityEntry& e) const {
    return e.weight > 0.0 && e.priority > 0.0;
  }
  void SiteStep(size_t site, uint64_t element, double weight);
  void Apply(size_t site, const sketch::PriorityEntry& e);
  /// Current adjusted sample (exact weights while still in round 1).
  std::vector<sketch::PriorityEntry> CurrentSample() const;

  size_t s_;
  // One private generator per site (seed = base ⊕ site), so sites draw
  // priorities independently and may run on concurrent threads.
  std::vector<Rng> site_rngs_;
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
  std::vector<std::pair<uint64_t, double>> hits;
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

  struct Item {
    uint64_t element;
    double weight;
  };

  static stream::MessageCost Cost(const P3Sends& sends) {
    return stream::MessageCost{0, sends.hits.size(), 0};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& sends) {
    return io.Field(sends.element) && io.Field(sends.weight) &&
           io.Field(sends.hits);
  }
  DMT_UNTRUSTED_INPUT
  bool Valid(const P3Sends& sends) const {
    return slots_.Accepts(sends.weight, sends.hits);
  }
  void SiteStep(size_t site, uint64_t element, double weight);
  void Apply(size_t site, const P3Sends& sends);

  size_t s_;
  // One private generator per site (seed = base ⊕ site); see P3SamplingWoR.
  std::vector<Rng> site_rngs_;
  SamplerSlots<Item> slots_;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P3_SAMPLING_H_
