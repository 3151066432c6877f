#include "sketch/misra_gries.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/contracts.h"

namespace dmt {
namespace sketch {

WeightedMisraGries::WeightedMisraGries(size_t k) : k_(k) {
  DMT_CHECK_GE(k, 1u);
  counters_.reserve(2 * k + 1);
}

WeightedMisraGries WeightedMisraGries::WithEpsilon(double eps) {
  DMT_CHECK_GT(eps, 0.0);
  return WeightedMisraGries(static_cast<size_t>(std::ceil(1.0 / eps)));
}

void WeightedMisraGries::Update(uint64_t element, double weight) {
  DMT_CHECK_GE(weight, 0.0);
  if (weight == 0.0) return;
  total_weight_ += weight;
  counters_[element] += weight;
  CompactIfNeeded();
}

void WeightedMisraGries::CompactIfNeeded() {
  // Amortization: let the map grow to 2k, then do one O(k) compaction that
  // subtracts the (k+1)-th largest value. This preserves the classic MG
  // error bound (each compaction's decrement delta is "paid for" by at
  // least (k+1) counters each losing delta).
  if (counters_.size() <= 2 * k_) return;
  std::vector<double> values;
  values.reserve(counters_.size());
  // dmt-lint: allow(determinism-unordered-iter): order-independent fold —
  // nth_element's result does not depend on the order values were collected.
  for (const auto& [e, v] : counters_) values.push_back(v);
  // delta = (k+1)-th largest value.
  std::nth_element(values.begin(), values.begin() + k_, values.end(),
                   std::greater<double>());
  const double delta = values[k_];
  total_decrement_ += delta;
  // dmt-lint: allow(determinism-unordered-iter): each counter is updated
  // exactly once with the same delta; the result set is order-independent.
  for (auto it = counters_.begin(); it != counters_.end();) {
    it->second -= delta;
    if (it->second <= 0.0) {
      it = counters_.erase(it);
    } else {
      ++it;
    }
  }
  DMT_CHECK_LE(counters_.size(), k_);
}

double WeightedMisraGries::Estimate(uint64_t element) const {
  auto it = counters_.find(element);
  return it == counters_.end() ? 0.0 : it->second;
}

void WeightedMisraGries::Merge(const WeightedMisraGries& other) {
  DMT_CHECK_EQ(k_, other.k_);
  total_weight_ += other.total_weight_;
  total_decrement_ += other.total_decrement_;
  // dmt-lint: allow(determinism-unordered-iter): keyed accumulation — each
  // key's final value is independent of the iteration order.
  for (const auto& [e, v] : other.counters_) {
    counters_[e] += v;
  }
  // One compaction pass restores the size invariant; the merged summary's
  // error is the sum of the two inputs' errors plus this decrement, which
  // stays within (W1+W2)/(k+1) by the mergeable-summaries analysis.
  if (counters_.size() > k_) {
    std::vector<double> values;
    values.reserve(counters_.size());
    // dmt-lint: allow(determinism-unordered-iter): order-independent fold
    // feeding nth_element; see CompactIfNeeded.
    for (const auto& [e, v] : counters_) values.push_back(v);
    if (values.size() > k_) {
      std::nth_element(values.begin(), values.begin() + k_, values.end(),
                       std::greater<double>());
      const double delta = values[k_];
      if (delta > 0.0) {
        total_decrement_ += delta;
        // dmt-lint: allow(determinism-unordered-iter): uniform per-counter
        // decrement; the surviving set is order-independent.
        for (auto it = counters_.begin(); it != counters_.end();) {
          it->second -= delta;
          if (it->second <= 0.0) {
            it = counters_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
  }
}

std::vector<std::pair<uint64_t, double>> WeightedMisraGries::Items() const {
  // dmt-lint: allow(determinism-unordered-iter): drained into a vector and
  // totally ordered below (weight desc, element id asc as a tie-break).
  std::vector<std::pair<uint64_t, double>> out(counters_.begin(),
                                               counters_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

void WeightedMisraGries::Clear() {
  counters_.clear();
  total_weight_ = 0.0;
  total_decrement_ = 0.0;
}

DMT_UNTRUSTED_INPUT
bool WeightedMisraGries::RestoreState(
    size_t k, double total_weight, double total_decrement,
    const std::vector<std::pair<uint64_t, double>>& counters) {
  if (k == 0 || counters.size() > 2 * k || !std::isfinite(total_weight) ||
      !(total_weight >= 0.0) || !std::isfinite(total_decrement) ||
      !(total_decrement >= 0.0)) {
    return false;
  }
  k_ = k;
  counters_.clear();
  for (const auto& [element, weight] : counters) {
    if (!std::isfinite(weight) || !(weight > 0.0) ||
        !counters_.emplace(element, weight).second) {
      return false;
    }
  }
  total_weight_ = total_weight;
  total_decrement_ = total_decrement;
  return true;
}

}  // namespace sketch
}  // namespace dmt
