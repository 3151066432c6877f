// Protocol P2: per-element threshold reports (paper Algorithms 4.3 / 4.4),
// the weighted extension of Yi & Zhang's deterministic tracker.
//
// A site accumulates, per element, the weight delta since it last reported
// that element, and separately the total local weight W_i since its last
// scalar report. When either crosses (eps/m) * W-hat, only that quantity is
// sent. The coordinator adds scalar reports into W-hat and, after m of
// them, broadcasts the new W-hat (a round boundary).
//
// Guarantee: |W_e - Estimate(e)| <= eps * W with O((m/eps) log(beta*N))
// messages (Theorem 1) — a 1/eps factor better than P1.
#ifndef DMT_HH_P2_THRESHOLD_H_
#define DMT_HH_P2_THRESHOLD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hh/hh_protocol.h"
#include "sketch/space_saving.h"
#include "util/aligned.h"

namespace dmt {
namespace hh {

/// Options for P2.
struct P2Options {
  /// When > 0, each site tracks its per-element deltas with a weighted
  /// SpaceSaving summary of this many counters instead of an exact map —
  /// the space reduction the paper suggests via [Metwally et al.]. Sites
  /// then use O(counters) memory regardless of the element universe, at
  /// the cost of (bounded) overestimates in the reported deltas.
  size_t site_counters = 0;
};

/// One P2 site->coordinator report. Scalar (total-weight) and element
/// (delta) reports share the site's outbox, so delivery preserves the
/// exact emission order within a site.
struct P2Report {
  bool is_scalar;
  double value;      // W_i for scalars, reported delta for elements
  uint64_t element;  // only meaningful when !is_scalar
};

/// Deterministic threshold protocol (P2).
class P2Threshold : public HHProtocolCore<P2Threshold, P2Report> {
 public:
  P2Threshold(size_t num_sites, double eps, const P2Options& options = {});

  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  std::string name() const override { return "P2"; }
  std::vector<uint64_t> TrackedElements() const override;

 private:
  friend Core;

  static stream::MessageCost Cost(const P2Report& r) {
    return r.is_scalar ? stream::MessageCost{1, 0, 0}
                       : stream::MessageCost{0, 1, 0};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& r) {
    return io.Field(r.is_scalar) && io.Field(r.value) &&
           (r.is_scalar || io.Field(r.element));
  }
  // Both kinds report a positive weight.
  DMT_UNTRUSTED_INPUT
  bool Valid(const P2Report& r) const { return r.value > 0.0; }
  void SiteStep(size_t site, uint64_t element, double weight);
  void Apply(size_t site, const P2Report& r);

  double eps_;
  P2Options options_;
  // Per-site state, SoA. The scalar-hot array (every site step writes
  // it) is cache-line-aligned: with the driver's
  // batch-reservation scheduler handing each worker a contiguous site
  // range, workers then touch disjoint line ranges except at the two
  // range boundaries. With bounded space, `site_summary_` replaces the
  // exact delta map (only one of the two is populated per run).
  CacheAlignedVector<double> site_weight_;  // W_i since last scalar report
  std::vector<std::unordered_map<uint64_t, double>> site_delta_;
  std::vector<sketch::SpaceSaving> site_summary_;
  // Bounded-space mode: cumulative weight already reported per element
  // (only elements that crossed the threshold ever get an entry).
  std::vector<std::unordered_map<uint64_t, double>> site_reported_;
  // Coordinator state.
  std::unordered_map<uint64_t, double> coordinator_weights_;
  double coordinator_total_ = 0.0;   // W-hat (grows with scalar reports)
  size_t scalar_msgs_since_broadcast_ = 0;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P2_THRESHOLD_H_
