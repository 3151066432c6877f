// Clean fixture: DMT_NO_ALLOC roots that only touch preallocated
// storage, including one that calls through a DMT_ALLOC_OK setup
// barrier (the walk must stop there).
// Compiled only by `dmt_lint --selftest`, never linked into the build.
//
// EXPECT-CLEAN
#include <cstddef>
#include <vector>

#include "util/contracts.h"

namespace dmt {
namespace fixture {

struct Workspace {
  std::vector<double> data;

  DMT_ALLOC_OK("one-time setup; hot paths run only after it")
  void Ensure(std::size_t n) {
    if (data.size() < n) data.resize(n);
  }
};

DMT_NO_ALLOC
double HotSum(const Workspace& w) {
  double s = 0.0;
  for (std::size_t i = 0; i < w.data.size(); ++i) s += w.data[i];
  return s;
}

DMT_NO_ALLOC
void HotFill(Workspace& w, double value) {
  for (std::size_t i = 0; i < w.data.size(); ++i) w.data[i] = value;
}

// Only sized and fill constructors allocate: an empty vector does not.
DMT_NO_ALLOC
std::size_t HotEmptyVector() {
  const std::vector<double> v;
  return v.size();
}

// Calling an ALLOC_OK helper from a NO_ALLOC root is the sanctioned
// setup pattern: the barrier stops the transitive walk.
DMT_NO_ALLOC
void HotWithSetup(Workspace& w) {
  w.Ensure(64);
  HotFill(w, 0.0);
}

}  // namespace fixture
}  // namespace dmt
