#include "matrix/baselines.h"

#include <cmath>

#include "linalg/svd.h"

namespace dmt {
namespace matrix {

NaiveFdBaseline::NaiveFdBaseline(size_t num_sites, size_t ell)
    : ForwardAllRows(num_sites), fd_(ell) {}

void NaiveFdBaseline::ProcessRow(size_t site,
                                 const std::vector<double>& row) {
  SerialStep(site, row);  // counts the row; Apply stages it
  fd_.Append(window_rows_.Row(0), window_rows_.cols());
  window_rows_.ClearRows();
}

void NaiveFdBaseline::EndWindow() {
  fd_.AppendRows(window_rows_);
  window_rows_.ClearRows();
}

linalg::Matrix NaiveFdBaseline::CoordinatorSketch() const {
  return fd_.sketch();
}

NaiveSvdBaseline::NaiveSvdBaseline(size_t num_sites, size_t dim, size_t k)
    : ForwardAllRows(num_sites), k_(k), cov_(dim) {}

void NaiveSvdBaseline::EndWindow() {
  cov_.AddRows(window_rows_);
  window_rows_.ClearRows();
}

linalg::Matrix NaiveSvdBaseline::CoordinatorSketch() const {
  linalg::RightSingular rs = linalg::RightSingularFromGram(cov_.gram());
  linalg::Matrix b(0, cov_.dim());
  for (size_t i = 0; i < rs.squared_sigma.size() && i < k_; ++i) {
    if (rs.squared_sigma[i] <= 0.0) break;
    const double s = std::sqrt(rs.squared_sigma[i]);
    std::vector<double> row(cov_.dim());
    for (size_t j = 0; j < cov_.dim(); ++j) row[j] = s * rs.v(j, i);
    b.AppendRow(row);
  }
  return b;
}

linalg::Matrix NaiveSvdBaseline::CoordinatorGram() const {
  return CoordinatorSketch().Gram();
}

}  // namespace matrix
}  // namespace dmt
