// Matrix Protocol 1: batched Frequent Directions (paper Algorithms
// 5.1 / 5.2) — the matrix analogue of heavy-hitter protocol P1.
//
// Each site runs FD with eps' = eps/2 and tracks F_i, the squared
// Frobenius mass received since its last flush. When F_i reaches
// (eps/2m) * F-hat the sketch is shipped (each sketch row is one vector
// message) and the site resets. The coordinator merges received sketches
// into one FD sketch (mergeability keeps the bound) and re-broadcasts
// F-hat on (1 + eps/2)-factor growth. A row with zero squared norm
// carries no mass and is dropped at the site: it never flushes.
//
// Outbox and drain. A flush appends the site sketch's rows to the site's
// flat outbox (one row matrix per site, plus F_i and the row end per
// flush) and resets the site sketch in place, keeping its workspaces. The
// drain applies each flush's scalar half (F_C += F_i, the F-hat broadcast
// test) in ascending-site emission order and stages its rows; the
// end-of-window step folds the rows of every drained site into the
// coordinator sketch as one block through FD's bulk AppendRows.
// At MP1's shapes (6*ell >= d, e.g. ell = 20, d = 44 on PAMAP) that is
// FD's dense route, where the whole block costs one shrink: one Gram of
// the sketch plus the block, one eigensolve per drain. Wider shapes take
// the Lanczos route, which fills to 4*ell rows between shrinks.
// Mergeability makes the grouping free: the coordinator sketch satisfies
// the same bound however the shipped rows are batched. The end-of-window
// step ends with a Compress(), so between windows the coordinator sketch
// holds at most ell rows; the per-row ProcessRow() path skips that final
// shrink.
//
// Guarantee: |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F with O((m/ε²) log(βN)) rows of
// communication.
#ifndef DMT_MATRIX_MP1_BATCHED_FD_H_
#define DMT_MATRIX_MP1_BATCHED_FD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "matrix/matrix_protocol.h"
#include "sketch/frequent_directions.h"

namespace dmt {
namespace matrix {

/// One MP1 flush: a site sketch's `count` rows of width `cols`
/// (row-major, contiguous) and its squared Frobenius mass F_i. A view:
/// the rows live in the site sketch at emission and in the site's flat
/// outbox until the drain.
struct MP1Flush {
  const double* rows;
  size_t count;
  size_t cols;
  double frob;
};

/// An MP1 flush decoded off the wire: owns its rows (a buffer the wire
/// adapter reuses across frames) and converts to the view Apply takes.
struct MP1WireFlush {
  std::vector<double> rows;
  size_t count = 0;
  size_t cols = 0;
  double frob = 0.0;
  operator MP1Flush() const { return MP1Flush{rows.data(), count, cols, frob}; }
};

/// A site's queued flushes, flat: every flushed sketch's rows back to
/// back, and each flush's row end and F_i. Cleared, not freed, by the
/// drain, so a flush allocates nothing once the buffers have grown.
class MP1FlushOutbox {
 public:
  size_t size() const { return frobs_.size(); }
  void push_back(const MP1Flush& f);
  MP1Flush operator[](size_t i) const;
  void clear();

 private:
  linalg::Matrix rows_;
  std::vector<size_t> ends_;
  std::vector<double> frobs_;
};

/// Deterministic batched-FD protocol (MP1).
class MP1BatchedFD
    : public MatrixProtocolCore<MP1BatchedFD, MP1Flush, MP1FlushOutbox> {
 public:
  MP1BatchedFD(size_t num_sites, double eps);

  /// The serial path without the end-of-window Compress(): the facade
  /// drains after every row, and a shrink per flush would cost more than
  /// the row budget it buys.
  void ProcessRow(size_t site, const std::vector<double>& row) override;
  linalg::Matrix CoordinatorSketch() const override;
  std::string name() const override { return "P1"; }

  double coordinator_frobenius() const { return coordinator_frob_; }

  using WireMsg = MP1WireFlush;

 private:
  friend Core;

  // Each sketch row travels as one vector message; the scalar F_i
  // piggybacks on the batch (the paper's Algorithm 5.1 sends "(B_i, F_i)"
  // as one payload of |B_i| rows). An empty sketch still costs the scalar.
  static stream::MessageCost Cost(const MP1Flush& f) {
    return f.count == 0 ? stream::MessageCost{1, 0, 0}
                        : stream::MessageCost{0, 0, f.count};
  }
  // Wire layout: F_i, the row count, the row width, then the rows.
  // Decode accepts only rows of the run's width and a positive F_i.
  static void Encode(const MP1Flush& f, ByteWriter* w);
  bool Decode(ByteReader* r, MP1WireFlush* f) const;
  void SiteStep(size_t site, const std::vector<double>& row);
  // F_C and the F-hat broadcast test; rows staged into drained_rows_.
  void Apply(size_t site, const MP1Flush& flush);
  // Folds the staged rows into the coordinator sketch, then Compress().
  void EndWindow();
  // Appends one flush's rows to drained_rows_.
  void StageRows(const MP1Flush& flush);
  // Folds the staged rows into the coordinator sketch in one bulk append.
  void FoldDrainedRows();

  double eps_;
  std::vector<sketch::FrequentDirections> site_sketches_;
  std::vector<double> site_frob_;   // F_i since last flush
  linalg::Matrix drained_rows_;     // rows of the flushes drained so far
  sketch::FrequentDirections coordinator_sketch_;
  double coordinator_frob_ = 0.0;   // F_C
};

}  // namespace matrix
}  // namespace dmt

#endif  // DMT_MATRIX_MP1_BATCHED_FD_H_
