// Ablation of the O(k log N) claim of Sec. 2.4: the real Test executions
// (memoized misses, the paper's cost metric) that each search spends to
// find k planted culprits among N elements --
//   * core::bisect_all (Algorithm 1), against its (k+1)(log2 N + 2) bound,
//   * a linear scan, which tests every element alone (always N),
//   * core::ddmin, delta debugging's 1-minimal failing subset
//     (O(k^2 log N)),
// over nine synthetic universes.  Every search must return exactly the
// planted culprits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "core/bisect.h"
#include "core/delta_debug.h"

namespace {

using flit::core::MemoizedTest;

std::vector<int> culprits_for(int n, int k, unsigned seed) {
  std::mt19937 rng(seed);
  std::set<int> c;
  while (static_cast<int>(c.size()) < k) {
    c.insert(static_cast<int>(rng() % static_cast<unsigned>(n)));
  }
  return {c.begin(), c.end()};
}

/// A culprit adds its own power of two, so any subset holding culprits
/// tests positive and only the full culprit set reaches the full value.
MemoizedTest<int> make_test(const std::vector<int>& culprits) {
  return MemoizedTest<int>([culprits](const std::vector<int>& items) {
    double v = 0.0;
    for (int e : items) {
      if (std::binary_search(culprits.begin(), culprits.end(), e)) {
        v += std::ldexp(1.0, e % 50);
      }
    }
    return v;
  });
}

}  // namespace

int main() {
  std::printf("Bisect complexity (Sec. 2.4): real Test executions to find "
              "k culprits among N elements\n");
  std::printf("%6s %3s %11s %14s %12s %7s\n", "N", "k", "bisect_all",
              "(k+1)(lgN+2)", "linear scan", "ddmin");
  for (const int n : {64, 256, 1024}) {
    std::vector<int> universe(static_cast<std::size_t>(n));
    std::iota(universe.begin(), universe.end(), 0);
    for (const int k : {1, 4, 8}) {
      const std::vector<int> culprits = culprits_for(n, k, 42);

      auto bisect_test = make_test(culprits);
      auto bisect = flit::core::bisect_all(bisect_test, universe);
      std::sort(bisect.found.begin(), bisect.found.end());

      auto linear_test = make_test(culprits);
      std::vector<int> linear;
      for (const int e : universe) {
        if (linear_test({e}) > 0.0) linear.push_back(e);
      }

      auto ddmin_test = make_test(culprits);
      auto dd = flit::core::ddmin(ddmin_test, universe);
      std::sort(dd.minimal.begin(), dd.minimal.end());

      if (bisect.found != culprits || linear != culprits ||
          dd.minimal != culprits) {
        std::fprintf(stderr,
                     "FATAL: a search missed the culprits at N=%d k=%d\n", n,
                     k);
        return 1;
      }
      std::printf("%6d %3d %11d %14.0f %12d %7d\n", n, k, bisect.executions,
                  (k + 1) * (std::log2(static_cast<double>(n)) + 2.0),
                  linear_test.executions(), dd.executions);
    }
  }
  return 0;
}
