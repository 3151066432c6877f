// Matrix Protocol 3: squared-norm priority sampling (paper Section 5.3) —
// the matrix analogue of heavy-hitter protocol P3.
//
// Rows are treated as weighted items with w = ‖a‖²; sites forward a row
// when its priority w/Unif(0,1] reaches the global threshold, and the
// coordinator runs the identical two-queue round structure as hh::P3.
// At query time the sampled rows are stacked into B after rescaling: rows
// with w < rho-hat are scaled up so their squared norm equals the
// adjusted weight max(w, rho-hat) (rows above the threshold stay as-is).
//
// Guarantee (Theorem 5): |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F w.p. >= 1 - 1/s using
// O((m + s) log(βN/s)) messages, s = Θ((1/ε²) log(1/ε)).
//
// The with-replacement variant (Section 4.3.1 applied to rows) keeps s
// independent single-row samplers; each sampled row is rescaled to squared
// norm W-hat/s. It needs more communication for the same accuracy, which
// Table 1 reproduces.
#ifndef DMT_MATRIX_MP3_SAMPLING_H_
#define DMT_MATRIX_MP3_SAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hh/p3_sampling.h"
#include "matrix/matrix_protocol.h"
#include "util/rng.h"

namespace dmt {
namespace matrix {

/// One forwarded MP3wor row with its squared norm at arrival and its
/// priority.
struct MP3SampledRow {
  std::vector<double> row;
  double weight = 0.0;
  double priority = 0.0;
};

/// Without-replacement row-sampling protocol (MP3 / "P3wor").
class MP3SamplingWoR
    : public MatrixProtocolCore<MP3SamplingWoR, MP3SampledRow> {
 public:
  /// `sample_size` = 0 derives s from eps (same formula as hh::P3).
  MP3SamplingWoR(size_t num_sites, double eps, uint64_t seed,
                 size_t sample_size = 0);

  linalg::Matrix CoordinatorSketch() const override;
  std::string name() const override { return "P3wor"; }

  size_t sample_size() const { return s_; }
  /// The coordinator's threshold tau, the last value it broadcast.
  double threshold() const { return broadcast_value(); }

 private:
  friend Core;

  // One forwarded row is one vector message.
  static stream::MessageCost Cost(const MP3SampledRow&) {
    return stream::MessageCost{0, 0, 1};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& sr) {
    return io.Row(sr.row) && io.Field(sr.weight) && io.Field(sr.priority);
  }
  DMT_UNTRUSTED_INPUT
  bool Valid(const MP3SampledRow& sr) const {
    return sr.weight > 0.0 && sr.priority > 0.0;
  }
  void SiteStep(size_t site, const std::vector<double>& row);
  void Apply(size_t site, MP3SampledRow& sr);

  size_t s_;
  // One private generator per site (seed = base ⊕ site), so sites draw
  // priorities independently and may run on concurrent threads.
  std::vector<Rng> site_rngs_;
  bool tau_ever_doubled_ = false;
  std::vector<MP3SampledRow> q_cur_;
  std::vector<MP3SampledRow> q_next_;
};

/// All MP3wr sampler successes of one row scored at one site: (slot
/// index, priority) pairs, one message each, delivered as one batch so
/// round accounting matches the per-row serial schedule.
struct MP3Sends {
  std::vector<double> row;
  double weight = 0.0;
  std::vector<std::pair<uint64_t, double>> hits;
};

/// With-replacement row-sampling protocol (MP3wr / "P3wr").
class MP3SamplingWR : public MatrixProtocolCore<MP3SamplingWR, MP3Sends> {
 public:
  MP3SamplingWR(size_t num_sites, double eps, uint64_t seed,
                size_t sample_size = 0);

  linalg::Matrix CoordinatorSketch() const override;
  std::string name() const override { return "P3wr"; }

  size_t sample_size() const { return s_; }

 private:
  friend Core;

  struct Item {
    std::vector<double> row;
    double weight;
  };

  static stream::MessageCost Cost(const MP3Sends& sends) {
    return stream::MessageCost{0, 0, sends.hits.size()};
  }
  template <typename IO, typename M>
  static bool Fields(IO& io, M& sends) {
    return io.Row(sends.row) && io.Field(sends.weight) &&
           io.Field(sends.hits);
  }
  DMT_UNTRUSTED_INPUT
  bool Valid(const MP3Sends& sends) const {
    return slots_.Accepts(sends.weight, sends.hits);
  }
  void SiteStep(size_t site, const std::vector<double>& row);
  void Apply(size_t site, MP3Sends& sends);

  size_t s_;
  // One private generator per site (seed = base ⊕ site); see MP3SamplingWoR.
  std::vector<Rng> site_rngs_;
  hh::SamplerSlots<Item> slots_;
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP3_SAMPLING_H_
