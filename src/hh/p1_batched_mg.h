// Protocol P1: batched Misra-Gries (paper Algorithms 4.1 / 4.2).
//
// Each site runs a weighted MG summary with eps' = eps/2 error and tracks
// the local weight W_i since its last flush. When W_i reaches
// tau = (eps/2m) * W-hat, the whole summary is shipped to the coordinator
// and the site resets. The coordinator merges summaries (mergeability of
// MG keeps the error bound) and re-broadcasts W-hat whenever its tally
// grew by a (1 + eps/2) factor.
//
// Guarantee: |W_e - Estimate(e)| <= eps * W for every element, with
// O((m/eps^2) log(beta*N)) total messages (Lemma 2).
#ifndef DMT_HH_P1_BATCHED_MG_H_
#define DMT_HH_P1_BATCHED_MG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hh/hh_protocol.h"
#include "sketch/misra_gries.h"

namespace dmt {
namespace hh {

/// A site's shipped batch: the snapshot of its MG summary plus the local
/// weight W_i since the previous flush.
struct P1Flush {
  sketch::WeightedMisraGries summary{1};
  double weight = 0.0;
};

/// Deterministic batched-summary protocol (P1).
class P1BatchedMG : public HHProtocolCore<P1BatchedMG, P1Flush> {
 public:
  /// `num_sites` = m, `eps` = target additive error fraction.
  P1BatchedMG(size_t num_sites, double eps);

  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  std::string name() const override { return "P1"; }
  std::vector<uint64_t> TrackedElements() const override;

 private:
  friend Core;

  // Message cost: every live counter travels as an (element, weight)
  // pair; the scalar W_i piggybacks on the batch (Algorithm 4.1 ships
  // "(G_i, W_i)" as one payload). An empty summary still costs the scalar.
  static stream::MessageCost Cost(const P1Flush& flush) {
    const size_t k = flush.summary.size();
    return k == 0 ? stream::MessageCost{1, 0, 0}
                  : stream::MessageCost{0, k, 0};
  }
  // Wire layout: W_i, then the summary's k, total weight, total
  // decrement and live counters in Items() order. Decode accepts only
  // this run's k, at most 2k distinct counters and positive weights.
  static void Encode(const P1Flush& flush, ByteWriter* w);
  bool Decode(ByteReader* r, P1Flush* flush) const;
  void SiteStep(size_t site, uint64_t element, double weight);
  // Coordinator half (merge + W_C + possible W-hat broadcast).
  void Apply(size_t site, const P1Flush& flush);

  double eps_;
  // Per-site state.
  std::vector<sketch::WeightedMisraGries> site_summaries_;
  std::vector<double> site_weight_;    // W_i since last flush
  // Coordinator state (the last broadcast W-hat is broadcast_value()).
  sketch::WeightedMisraGries coordinator_summary_;
  double coordinator_weight_ = 0.0;    // W_C
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P1_BATCHED_MG_H_
