// Weighted Misra-Gries frequency summary (deterministic, mergeable).
//
// The classic MG algorithm [Misra & Gries 1982] keeps k counters and on
// overflow decrements all counters by the minimum. The weighted variant
// here follows the mergeable-summaries formulation [Agarwal et al., PODS
// 2012]: counters absorb arbitrary positive weights, and compaction
// subtracts the (k+1)-th largest counter value from everyone. Guarantee:
//
//   0 <= W_e - Estimate(e) <= W / (k+1)
//
// where W is the total weight processed (plus merged). Merging two
// summaries with the same k keeps the guarantee relative to the combined
// weight, which is exactly the property protocol P1 needs at the
// coordinator.
#ifndef DMT_SKETCH_MISRA_GRIES_H_
#define DMT_SKETCH_MISRA_GRIES_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dmt {
namespace sketch {

/// Weighted Misra-Gries summary with `k` counters.
class WeightedMisraGries {
 public:
  /// `k` >= 1 is the number of counters retained after compaction.
  explicit WeightedMisraGries(size_t k);

  /// Summary sized for additive error `eps * W`: k = ceil(1/eps).
  static WeightedMisraGries WithEpsilon(double eps);

  /// Processes one (element, weight) pair; weight must be >= 0.
  void Update(uint64_t element, double weight);

  /// Lower-bound estimate of element's total weight (0 if untracked).
  double Estimate(uint64_t element) const;

  /// Merges another summary (same k) into this one.
  void Merge(const WeightedMisraGries& other);

  /// All currently tracked (element, estimate) pairs.
  std::vector<std::pair<uint64_t, double>> Items() const;

  /// Total weight processed (including merged-in weight).
  double total_weight() const { return total_weight_; }

  /// Sum of all compaction decrements so far; the worst-case undercount of
  /// any single element. Always <= total_weight() / (k+1).
  double total_decrement() const { return total_decrement_; }

  size_t k() const { return k_; }

  /// Number of live counters (<= 2k between compactions).
  size_t size() const { return counters_.size(); }

  /// Drops all state (counters and weight tallies).
  void Clear();

  /// Replaces all state, k included, with a deserialized snapshot (a P1
  /// flush off the wire). False, leaving the summary unspecified, unless
  /// k >= 1, the tallies are finite and >= 0, and `counters` holds at most
  /// 2k distinct elements with finite positive weights (as Items() of a
  /// valid summary does). The rebuilt summary merges bit-identically to
  /// the original: merging depends only on the counter multiset.
  bool RestoreState(size_t k, double total_weight, double total_decrement,
                    const std::vector<std::pair<uint64_t, double>>& counters);

 private:
  void CompactIfNeeded();

  size_t k_;
  std::unordered_map<uint64_t, double> counters_;
  double total_weight_ = 0.0;
  double total_decrement_ = 0.0;
};

}  // namespace sketch
}  // namespace dmt

#endif  // DMT_SKETCH_MISRA_GRIES_H_
