#include "rtree/knn.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/prtree.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::RandomRects;

template <int D>
std::vector<Neighbor<D>> BruteForceKnn(const std::vector<Record<D>>& data,
                                       const std::array<Real, D>& p,
                                       size_t k) {
  std::vector<Neighbor<D>> all;
  for (const auto& rec : data) {
    all.push_back(Neighbor<D>{rec, MinDist<D>(p, rec.rect)});
  }
  std::sort(all.begin(), all.end(),
            [](const Neighbor<D>& a, const Neighbor<D>& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.record.id < b.record.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(MinDistTest, BasicGeometry) {
  Rect2 r = MakeRect(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ((MinDist<2>({1.5, 1.5}, r)), 0.0);  // inside
  EXPECT_DOUBLE_EQ((MinDist<2>({1.5, 1.0}, r)), 0.0);  // on boundary
  EXPECT_DOUBLE_EQ((MinDist<2>({0, 1.5}, r)), 1.0);    // left of
  EXPECT_DOUBLE_EQ((MinDist<2>({1.5, 4}, r)), 2.0);    // above
  EXPECT_DOUBLE_EQ((MinDist<2>({0, 0}, r)), std::sqrt(2.0));  // corner
}

TEST(KnnTest, EmptyTreeAndZeroK) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  EXPECT_TRUE(KnnSearch<2>(tree, {0.5, 0.5}, 5).empty());
  auto data = RandomRects<2>(100, 1);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 1u << 20}, data, &tree));
  EXPECT_TRUE(KnnSearch<2>(tree, {0.5, 0.5}, 0).empty());
}

TEST(KnnTest, KLargerThanTreeReturnsEverything) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  auto data = RandomRects<2>(50, 3);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 1u << 20}, data, &tree));
  auto res = KnnSearch<2>(tree, {0.5, 0.5}, 500);
  EXPECT_EQ(res.size(), 50u);
  // Distances non-decreasing.
  for (size_t i = 1; i < res.size(); ++i) {
    EXPECT_GE(res[i].distance, res[i - 1].distance);
  }
}

class KnnCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(KnnCorrectnessTest, MatchesBruteForce) {
  auto [n, k, seed] = GetParam();
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(n, seed);
  RTree<2> tree(&dev);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 4u << 20}, data, &tree));

  Rng rng(seed + 99);
  for (int q = 0; q < 20; ++q) {
    std::array<Real, 2> p{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    auto got = KnnSearch<2>(tree, p, k);
    auto expect = BruteForceKnn<2>(data, p, k);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Distances must agree exactly; the record may differ only between
      // equidistant candidates.
      EXPECT_DOUBLE_EQ(got[i].distance, expect[i].distance) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 100, 3000),
                       ::testing::Values(size_t{1}, size_t{10}, size_t{64}),
                       ::testing::Values(7, 1001)));

TEST(KnnTest, VisitsFarFewerNodesThanFullScan) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(100000, 13);
  RTree<2> tree(&dev);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 16u << 20}, data, &tree));
  QueryStats stats;
  auto res = KnnSearch<2>(tree, {0.5, 0.5}, 10, &stats);
  ASSERT_EQ(res.size(), 10u);
  // Best-first search should touch a tiny fraction of the tree.
  EXPECT_LT(stats.nodes_visited, tree.ComputeStats().num_nodes / 20);
}

TEST(KnnTest, WorksThroughBufferPool) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(5000, 17);
  RTree<2> tree(&dev);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 4u << 20}, data, &tree));
  BufferPool pool(&dev, 4096);
  tree.CacheInternalNodes(&pool);
  auto with_pool = KnnSearch<2>(tree, {0.3, 0.7}, 25, nullptr, &pool);
  auto without = KnnSearch<2>(tree, {0.3, 0.7}, 25);
  ASSERT_EQ(with_pool.size(), without.size());
  for (size_t i = 0; i < with_pool.size(); ++i) {
    EXPECT_EQ(with_pool[i].record.id, without[i].record.id);
  }
}

TEST(KnnTest, ReadaheadPoolGivesIdenticalNeighborsAndStats) {
  testing_util::ReadaheadMemoryDevice dev(512);
  auto data = RandomRects<2>(5000, 21);
  RTree<2> tree(&dev);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 4u << 20}, data, &tree));
  // Small pool, readahead on: best-first expansion prefetches each pushed
  // frontier; some of that is speculative, none of it may change answers.
  BufferPool pool(&dev, 64);
  QueryStats plain_stats, ahead_stats;
  auto plain = KnnSearch<2>(tree, {0.6, 0.2}, 25, &plain_stats);
  auto ahead = KnnSearch<2>(tree, {0.6, 0.2}, 25, &ahead_stats, &pool);
  ASSERT_EQ(ahead.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(ahead[i].record.id, plain[i].record.id);
    EXPECT_EQ(ahead[i].distance, plain[i].distance);
  }
  EXPECT_EQ(ahead_stats.nodes_visited, plain_stats.nodes_visited);
  EXPECT_EQ(ahead_stats.leaves_visited, plain_stats.leaves_visited);
  EXPECT_GT(pool.prefetch_staged(), 0u);
}

TEST(KnnTest, ThreeDimensional) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<3>(3000, 19);
  RTree<3> tree(&dev);
  AbortIfError(BulkLoadPrTree<3>(WorkEnv{&dev, 4u << 20}, data, &tree));
  Rng rng(23);
  for (int q = 0; q < 10; ++q) {
    std::array<Real, 3> p{rng.Uniform(0, 1), rng.Uniform(0, 1),
                          rng.Uniform(0, 1)};
    auto got = KnnSearch<3>(tree, p, 8);
    auto expect = BruteForceKnn<3>(data, p, 8);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i].distance, expect[i].distance);
    }
  }
}

}  // namespace
}  // namespace prtree
