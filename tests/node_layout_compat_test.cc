// On-disk node format: the QueryStats identity across SIMD levels, the
// zeroed-tail determinism contract of BasicNodeView::Format, and the clean
// rejection of the retired v1 (packed AoS) layout through a committed
// golden v1 device file.

#include "rtree/node.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <tuple>
#include <vector>

#include "core/prtree.h"
#include "geom/rect_batch.h"
#include "io/file_block_device.h"
#include "rtree/knn.h"
#include "rtree/persist.h"
#include "rtree/validate.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

// A device file written and persisted by a release that still wrote v1
// nodes (1500 records, kDefaultBlockSize).
constexpr char kGoldenName[] = "/golden_v1_tree.bin";

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (ForceSimdLevel(l) == l) levels.push_back(l);
  }
  ForceSimdLevel(SimdLevel::kScalar);
  return levels;
}

std::tuple<uint64_t, uint64_t, uint64_t, uint64_t> StatsTuple(
    const QueryStats& qs) {
  return {qs.nodes_visited, qs.internal_visited, qs.leaves_visited,
          qs.results};
}

uint64_t Bits(Real v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class NodeLayoutCompatTest : public ::testing::Test {
 protected:
  void TearDown() override { ForceSimdLevel(SimdLevel::kScalar); }
};

// Every available SIMD level must report byte-identical QueryStats,
// result sets and kNN distance bits on the same tree.
TEST_F(NodeLayoutCompatTest, QueryStatsIdenticalAcrossSimdLevels) {
  auto data = RandomRects<2>(6000, 29);
  MemoryBlockDevice dev;
  RTree<2> tree(&dev);
  AbortIfError(BulkLoadPrTree<2>(WorkEnv{&dev, 4u << 20}, data, &tree));
  ASSERT_TRUE(ValidateTree(tree).ok());

  Rng rng(31);
  std::vector<Rect2> windows;
  for (int q = 0; q < 24; ++q) windows.push_back(RandomWindow<2>(&rng, 0.2));
  std::vector<std::array<Real, 2>> points;
  for (int q = 0; q < 16; ++q) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }

  // Reference leg: scalar.
  ASSERT_EQ(ForceSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>> ref_stats;
  std::vector<std::vector<DataId>> ref_ids;
  std::vector<std::vector<std::pair<DataId, uint64_t>>> ref_knn;
  for (const auto& w : windows) {
    std::vector<Record2> out;
    QueryStats qs = tree.Query(w, [&](const Record2& r) { out.push_back(r); });
    ref_stats.push_back(StatsTuple(qs));
    ref_ids.push_back(SortedIds(out));
    EXPECT_EQ(ref_ids.back(), BruteForceQuery(data, w));
  }
  for (const auto& p : points) {
    std::vector<std::pair<DataId, uint64_t>> nn;
    for (const auto& n : KnnSearch<2>(tree, p, 10)) {
      nn.emplace_back(n.record.id, Bits(n.distance));
    }
    ref_knn.push_back(nn);
  }

  for (SimdLevel level : AvailableLevels()) {
    ASSERT_EQ(ForceSimdLevel(level), level);
    for (size_t q = 0; q < windows.size(); ++q) {
      std::vector<Record2> out;
      QueryStats qs =
          tree.Query(windows[q], [&](const Record2& r) { out.push_back(r); });
      EXPECT_EQ(StatsTuple(qs), ref_stats[q])
          << SimdLevelName(level) << " window " << q;
      EXPECT_EQ(SortedIds(out), ref_ids[q])
          << SimdLevelName(level) << " window " << q;
    }
    for (size_t q = 0; q < points.size(); ++q) {
      std::vector<std::pair<DataId, uint64_t>> nn;
      for (const auto& n : KnnSearch<2>(tree, points[q], 10)) {
        nn.emplace_back(n.record.id, Bits(n.distance));
      }
      EXPECT_EQ(nn, ref_knn[q]) << SimdLevelName(level) << " knn " << q;
    }
  }
}

// Formatting is a determinism contract, not just initialisation: the
// same Format+Append sequence on a garbage-filled recycled buffer must
// produce bytes identical to a fresh buffer (this is what makes
// parallel-build output and persisted files byte-stable).  RemoveSwap
// re-zeroes the slot it vacates.
TEST_F(NodeLayoutCompatTest, FormatZeroesTailDeterministically) {
  auto data = RandomRects<2>(40, 67);
  std::vector<std::byte> fresh(kDefaultBlockSize, std::byte{0});
  std::vector<std::byte> dirty(kDefaultBlockSize, std::byte{0xAB});
  for (auto* buf : {&fresh, &dirty}) {
    NodeView<2> node(buf->data(), buf->size());
    node.Format(0);
    for (const auto& rec : data) node.Append(rec.rect, rec.id);
  }
  EXPECT_EQ(std::memcmp(fresh.data(), dirty.data(), fresh.size()), 0);

  // RemoveSwap(i) leaves the same bytes as never having appended the
  // removed entry in that position at all.
  NodeView<2> node(dirty.data(), dirty.size());
  node.RemoveSwap(7);
  NodeView<2> expect(fresh.data(), fresh.size());
  expect.Format(0);
  // Rebuild the post-RemoveSwap logical sequence explicitly: the last
  // entry moves into slot 7 and the count shrinks by one.
  std::vector<Record2> seq(data.begin(), data.end());
  seq[7] = seq.back();
  seq.pop_back();
  for (const auto& rec : seq) expect.Append(rec.rect, rec.id);
  EXPECT_EQ(std::memcmp(fresh.data(), dirty.data(), fresh.size()), 0)
      << "RemoveSwap left stale bytes in the vacated slot";
}

// ---- golden v1 device file --------------------------------------------

class GoldenFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    golden_ = std::string(PRTREE_TEST_DATA_DIR) + kGoldenName;
    copy_ = ::testing::TempDir() + "/prtree_golden_copy." +
            std::to_string(static_cast<long>(getpid())) + ".bin";
  }
  void TearDown() override { std::remove(copy_.c_str()); }

  // The device may dirty its file (superblock rewrites on close), so the
  // committed golden bytes are never opened directly.
  void CopyGoldenToTemp() {
    std::ifstream in(golden_, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << golden_;
    std::ofstream out(copy_, std::ios::binary);
    out << in.rdbuf();
    ASSERT_TRUE(out.good());
  }

  std::string golden_;
  std::string copy_;
};

// A device file persisted with v1 nodes still opens (the superblock
// format did not change), but attaching the tree fails with a Status that
// says to rebuild, and the tree stays empty.
TEST_F(GoldenFileTest, AttachRejectsV1File) {
  CopyGoldenToTemp();
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(copy_, FileDeviceOptions{}, &dev).ok());
  RTree<2> attached(dev.get());
  Status st = AttachTree(dev.get(), &attached);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find(
                "node layout v1 (AoS) is no longer supported; rebuild the "
                "index"),
            std::string::npos)
      << st.ToString();
  EXPECT_TRUE(attached.empty());
}

}  // namespace
}  // namespace prtree
