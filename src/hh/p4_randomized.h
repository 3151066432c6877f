// Protocol P4: randomized reporting (paper Algorithm 4.7), the weighted
// extension of Huang, Yi & Zhang's sqrt(m) tracker.
//
// Each site knows a 2-approximation W-hat of the total weight and sets
// p = 2 sqrt(m) / (eps * W-hat). For an arriving (e, w) it sends its
// *exact* local tally f_e(A_j) with probability p-bar = 1 - exp(-p w)
// (the limiting form of treating w as w/10^k unit items, Lemma 7). The
// coordinator compensates the expected unreported residue by adding 1/p to
// each reported tally.
//
// Guarantee: |W_e - Estimate(e)| <= eps W with probability >= 0.75, using
// O((sqrt(m)/eps) log(beta N)) messages (Theorem 3).
#ifndef DMT_HH_P4_RANDOMIZED_H_
#define DMT_HH_P4_RANDOMIZED_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hh/hh_protocol.h"
#include "hh/total_weight.h"
#include "util/rng.h"

namespace dmt {
namespace hh {

/// One P4 site->coordinator message: either a total-weight report
/// (`value` = the reported amount) or a tally refresh for (copy, element):
/// `value` = the site's exact local tally.
struct P4Report {
  bool is_weight_report;
  double value;
  uint64_t copy;
  uint64_t element;
};

/// Randomized sqrt(m) protocol (P4).
///
/// `copies` > 1 runs that many independent instances of the reporting
/// scheme over the same site tallies and answers queries with the median
/// estimate — the paper's remark after Theorem 3: log(2/delta) copies
/// boost the 0.75 success probability to 1 - delta, at proportionally
/// more communication.
class P4Randomized : public HHProtocolCore<P4Randomized, P4Report> {
 public:
  P4Randomized(size_t num_sites, double eps, uint64_t seed,
               size_t copies = 1);

  double EstimateElementWeight(uint64_t element) const override;
  double EstimateTotalWeight() const override;
  std::string name() const override { return "P4"; }
  std::vector<uint64_t> TrackedElements() const override;

 private:
  friend Core;

  static stream::MessageCost Cost(const P4Report& r) {
    return r.is_weight_report ? stream::MessageCost{1, 0, 0}
                              : stream::MessageCost{0, 1, 0};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& r) {
    return io.Field(r.is_weight_report) && io.Field(r.value) &&
           (r.is_weight_report || (io.Field(r.copy) && io.Field(r.element)));
  }
  // Reported amounts and tallies are positive; a tally names a copy.
  DMT_UNTRUSTED_INPUT
  bool Valid(const P4Report& r) const {
    return r.value > 0.0 && (r.is_weight_report || r.copy < reported_.size());
  }
  void SiteStep(size_t site, uint64_t element, double weight);
  void Apply(size_t site, const P4Report& r);

  /// Send probability parameter p = 2 sqrt(m) / (eps W-hat) for the
  /// estimate `what`; infinite (send always) before bootstrap.
  double SendParameter(double what) const;

  /// Estimate of one independent copy.
  double CopyEstimate(size_t copy, uint64_t element) const;

  double eps_;
  // One private generator per site (seed = base ⊕ site): all copies'
  // coins for a site flip from that site's stream.
  std::vector<Rng> site_rngs_;
  TotalWeightTracker weight_tracker_;
  // Per-site exact local tallies f_e(A_j), shared by all copies.
  std::vector<std::unordered_map<uint64_t, double>> site_tally_;
  // Per-copy coordinator state: last reported tally w-bar_{e,j} per
  // element per site. The inner per-site map is ordered: CopyEstimate sums
  // its values in iteration order, and that floating-point reduction must
  // be replay-stable (hash order is not).
  std::vector<std::unordered_map<uint64_t, std::map<size_t, double>>>
      reported_;
};

}  // namespace hh
}  // namespace dmt

#endif  // DMT_HH_P4_RANDOMIZED_H_
