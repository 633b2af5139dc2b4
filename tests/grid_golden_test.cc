// Golden digest of an external (grid) PR-tree build.
//
// The determinism tests elsewhere compare serial with parallel runs of the
// same code; this suite pins the build's output across revisions.  A fixed
// seeded input is bulk-loaded with the grid path forced and a memory
// budget small enough for several levels of grid recursion, and the test
// checks an FNV-64 digest of every node page (depth-first, children in
// entry order) plus the build's block reads, block writes and peak device
// occupancy against recorded constants.  A refactor of the grid builder,
// the external sort or the streams must leave all four unchanged; if a
// change is meant to alter the tree or its I/O, re-record the constants
// and say why in the change log.
//
// Both the memory device and the io_uring file device run the build (the
// latter also under PRTREE_NO_URING=1 in CI, which takes its pwrite
// fallback): the digest must not depend on the backend.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/uring_block_device.h"
#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "workload/datasets.h"

namespace prtree {
namespace {

struct GoldenBuild {
  uint64_t page_digest = 0;
  size_t pages = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  size_t peak_allocated = 0;
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvAppend(uint64_t h, const std::byte* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// Builds the golden tree on `dev` and digests it.
GoldenBuild BuildAndDigest(BlockDevice* dev) {
  auto data =
      workload::MakeTigerLike(20000, workload::TigerRegion::kEastern, 15);
  BuildOptions opts;
  opts.memory_bytes = 128u << 10;  // 20000 records need two grid levels
  opts.force_grid = true;
  opts.threads = 4;
  RTree<2> tree(dev);
  Stream<Record2> input(dev);
  input.Append(data);
  input.Flush();
  dev->ResetStats();
  AbortIfError(MakeBulkLoader<2>(LoaderKind::kPrTree, opts)
                   ->Build(dev, &input, &tree));
  GoldenBuild out;
  out.reads = dev->stats().reads;
  out.writes = dev->stats().writes;
  out.peak_allocated = dev->peak_allocated();
  EXPECT_TRUE(ValidateTree(tree).ok());

  const size_t bs = dev->block_size();
  std::vector<std::byte> buf(bs);
  std::vector<PageId> stack{tree.root()};
  out.page_digest = kFnvOffset;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    AbortIfError(dev->Read(page, buf.data()));
    out.page_digest = FnvAppend(out.page_digest, buf.data(), bs);
    ++out.pages;
    ConstNodeView<2> node(buf.data(), bs);
    if (node.is_leaf()) continue;
    for (int i = node.count() - 1; i >= 0; --i) {
      stack.push_back(node.GetId(i));  // reversed: pops in entry order
    }
  }
  return out;
}

// Recorded from the build before the cursor-based stream reader, the
// block-copy slab split and the captured-id prefilter went in.
constexpr uint64_t kGoldenDigest = 0x2eb9dec9baa1c56bull;
constexpr size_t kGoldenPages = 1695;
constexpr uint64_t kGoldenReads = 38525;
constexpr uint64_t kGoldenWrites = 27997;
constexpr size_t kGoldenPeakAllocated = 10002;

void ExpectGolden(const GoldenBuild& g) {
  EXPECT_EQ(g.page_digest, kGoldenDigest);
  EXPECT_EQ(g.pages, kGoldenPages);
  EXPECT_EQ(g.reads, kGoldenReads);
  EXPECT_EQ(g.writes, kGoldenWrites);
  EXPECT_EQ(g.peak_allocated, kGoldenPeakAllocated);
}

TEST(GridBuildGoldenTest, MemoryDeviceMatchesRecordedDigest) {
  MemoryBlockDevice dev(512);
  ExpectGolden(BuildAndDigest(&dev));
}

TEST(GridBuildGoldenTest, UringDeviceMatchesRecordedDigest) {
  const std::string path = ::testing::TempDir() + "/prtree_grid_golden." +
                           std::to_string(static_cast<long>(getpid())) +
                           ".dev";
  UringDeviceOptions opts;
  opts.file.block_size = 512;
  opts.file.truncate = true;
  std::unique_ptr<UringBlockDevice> dev;
  ASSERT_TRUE(UringBlockDevice::Open(path, opts, &dev).ok());
  std::remove(path.c_str());  // the open descriptor keeps the file alive
  ExpectGolden(BuildAndDigest(dev.get()));
}

}  // namespace
}  // namespace prtree
