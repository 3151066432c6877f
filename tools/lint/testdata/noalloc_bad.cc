// Violating fixture: allocation reachable from DMT_NO_ALLOC roots, both
// directly and through a transitive call.
// Compiled only by `dmt_lint --selftest`, never linked into the build.
//
// EXPECT-FINDING: noalloc-violation fn=HotDirect
// EXPECT-FINDING: noalloc-violation fn=HotTransitive
// EXPECT-FINDING: noalloc-violation fn=HotNew
// EXPECT-FINDING: noalloc-violation fn=HotSizedVector
// EXPECT-FINDING: noalloc-violation fn=HotFilledVector
// EXPECT-FINDING: noalloc-violation fn=HotSizedString
#include <cstddef>
#include <string>
#include <vector>

#include "util/contracts.h"

namespace dmt {
namespace fixture {

struct Workspace {
  std::vector<double> data;
  // No DMT_ALLOC_OK here: the growth is visible to the call-graph walk.
  void Grow(std::size_t n) { data.resize(n); }
};

DMT_NO_ALLOC
void HotDirect(std::vector<double>& v) { v.push_back(1.0); }

DMT_NO_ALLOC
void HotTransitive(Workspace& w, std::size_t n) { w.Grow(n); }

DMT_NO_ALLOC
double HotNew(std::size_t n) {
  double* p = new double[n];
  double s = p[0];
  delete[] p;
  return s;
}

// Sized and fill constructors allocate as surely as resize() does.
DMT_NO_ALLOC
double HotSizedVector(std::size_t n) {
  std::vector<double> v(n);
  return v.empty() ? 0.0 : v[0];
}

DMT_NO_ALLOC
double HotFilledVector(std::size_t n) {
  const std::vector<double> v(n, 1.0);
  return v.empty() ? 0.0 : v[0];
}

DMT_NO_ALLOC
std::size_t HotSizedString(std::size_t n) {
  const std::string s(n, 'x');
  return s.size();
}

}  // namespace fixture
}  // namespace dmt
