// Shared helpers for the prtree test suite.

#ifndef PRTREE_TESTS_TEST_UTIL_H_
#define PRTREE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "geom/rect.h"
#include "io/block_device.h"
#include "util/random.h"

namespace prtree {
namespace testing_util {

/// A memory device that claims batched readahead pays, so a BufferPool
/// over it prefetches every frontier: the readahead path, deterministic
/// and without a kernel, for tests that assert it never changes answers.
class ReadaheadMemoryDevice : public MemoryBlockDevice {
 public:
  using MemoryBlockDevice::MemoryBlockDevice;
  bool ReadaheadPays() const override { return true; }
};

/// Uniform random rectangles in the unit square with sides up to max_side.
template <int D>
std::vector<Record<D>> RandomRects(size_t n, uint64_t seed,
                                   double max_side = 0.05) {
  Rng rng(seed);
  std::vector<Record<D>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Record<D> rec;
    for (int d = 0; d < D; ++d) {
      double side = rng.Uniform(0.0, max_side);
      double lo = rng.Uniform(0.0, 1.0 - side);
      rec.rect.lo[d] = lo;
      rec.rect.hi[d] = lo + side;
    }
    rec.id = static_cast<DataId>(i);
    out.push_back(rec);
  }
  return out;
}

/// Uniform random points (degenerate rectangles) in the unit square.
template <int D>
std::vector<Record<D>> RandomPoints(size_t n, uint64_t seed) {
  return RandomRects<D>(n, seed, 0.0);
}

/// Reference result: ids of records intersecting `window`, sorted.
template <int D>
std::vector<DataId> BruteForceQuery(const std::vector<Record<D>>& data,
                                    const Rect<D>& window) {
  std::vector<DataId> out;
  for (const auto& rec : data) {
    if (rec.rect.Intersects(window)) out.push_back(rec.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted id list from query output.
template <int D>
std::vector<DataId> SortedIds(const std::vector<Record<D>>& records) {
  std::vector<DataId> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.id);
  std::sort(out.begin(), out.end());
  return out;
}

/// A random query window with sides up to `max_side`.
template <int D>
Rect<D> RandomWindow(Rng* rng, double max_side) {
  Rect<D> w;
  for (int d = 0; d < D; ++d) {
    double side = rng->Uniform(0.0, max_side);
    double lo = rng->Uniform(-0.1, 1.1 - side);
    w.lo[d] = lo;
    w.hi[d] = lo + side;
  }
  return w;
}

}  // namespace testing_util
}  // namespace prtree

#endif  // PRTREE_TESTS_TEST_UTIL_H_
