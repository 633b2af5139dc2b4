// Snapshot reads under concurrent writes: the epoch-based MVCC layer.
//
// Covers two guarantees end to end:
//  * a reader holding a SnapshotHandle observes an immutable record set —
//    and byte-identical QueryStats — regardless of concurrent update
//    traffic (8-thread storm included);
//  * pages retired by a version swap sit in limbo exactly until the last
//    reader epoch drains, then return to the device free list (the device
//    allocation count provably returns to its baseline).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_prtree.h"
#include "io/epoch.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::SortedIds;

bool SameStats(const QueryStats& a, const QueryStats& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.internal_visited == b.internal_visited &&
         a.leaves_visited == b.leaves_visited && a.results == b.results;
}

// ---- EpochManager unit behaviour ---------------------------------------

TEST(EpochManagerTest, NoReadersDrainImmediately) {
  MemoryBlockDevice dev(512);
  EpochManager mgr(&dev);
  std::vector<PageId> pages = {dev.Allocate(), dev.Allocate(),
                               dev.Allocate()};
  ASSERT_EQ(dev.num_allocated(), 3u);
  mgr.Retire(std::move(pages));
  // Nothing pinned: retirement degenerates to eager Free().
  EXPECT_EQ(mgr.limbo_pages(), 0u);
  EXPECT_EQ(dev.num_allocated(), 0u);
}

TEST(EpochManagerTest, ReaderHoldsLimboUntilRelease) {
  MemoryBlockDevice dev(512);
  EpochManager mgr(&dev);
  std::vector<PageId> pages = {dev.Allocate(), dev.Allocate()};
  EpochGuard guard = mgr.Enter();
  mgr.Retire(std::move(pages));
  EXPECT_EQ(mgr.limbo_pages(), 2u);
  EXPECT_EQ(dev.num_allocated(), 2u);  // still reachable by the reader
  guard.Release();
  EXPECT_EQ(mgr.limbo_pages(), 0u);
  EXPECT_EQ(dev.num_allocated(), 0u);
}

TEST(EpochManagerTest, OverlappingReadersDrainInRetireOrder) {
  MemoryBlockDevice dev(512);
  EpochManager mgr(&dev);
  PageId a = dev.Allocate();
  PageId b = dev.Allocate();

  EpochGuard g1 = mgr.Enter();
  mgr.Retire({a});  // stamped after g1: waits for it
  EpochGuard g2 = mgr.Enter();
  mgr.Retire({b});  // stamped after g2: waits for it too
  EXPECT_EQ(mgr.limbo_pages(), 2u);

  g1.Release();  // frees a; b still pinned by g2
  EXPECT_EQ(mgr.limbo_pages(), 1u);
  EXPECT_EQ(dev.num_allocated(), 1u);
  g2.Release();
  EXPECT_EQ(mgr.limbo_pages(), 0u);
  EXPECT_EQ(dev.num_allocated(), 0u);
}

TEST(EpochManagerTest, AttachedPoolFramesDieAtDrainNotRetire) {
  MemoryBlockDevice dev(512);
  EpochManager mgr(&dev);
  BufferPool pool(&dev, 8);
  mgr.AttachPool(&pool);

  PageId page = dev.Allocate();
  std::vector<std::byte> old_bytes(dev.block_size(), std::byte{0xAA});
  ASSERT_TRUE(dev.Write(page, old_bytes.data()).ok());
  {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(page, &g).ok());  // cache the frame
  }

  EpochGuard guard = mgr.Enter();
  mgr.Retire({page});
  {
    // Retired but not drained: copy-on-write means the bytes are still
    // accurate, so the cached frame must keep serving them.
    PageGuard g;
    ASSERT_TRUE(pool.Pin(page, &g).ok());
    EXPECT_EQ(g.data()[0], std::byte{0xAA});
  }
  guard.Release();  // drain: frame invalidated, id back on the free list

  PageId recycled = dev.Allocate();
  ASSERT_EQ(recycled, page);  // LIFO free list recycles the id
  std::vector<std::byte> new_bytes(dev.block_size(), std::byte{0xBB});
  ASSERT_TRUE(dev.Write(recycled, new_bytes.data()).ok());
  PageGuard g;
  ASSERT_TRUE(pool.Pin(recycled, &g).ok());
  EXPECT_EQ(g.data()[0], std::byte{0xBB});  // not the stale frame
}

// ---- DynamicPRTree snapshots -------------------------------------------

TEST(SnapshotTest, HandleFreezesRecordSetAndStatsUnderUpdateStorm) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;  // frequent flushes: lots of version churn
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(400, 13);
  for (size_t i = 0; i < 200; ++i) index.Insert(data[i]);

  const Rect<2> everything = MakeRect(-1, -1, 2, 2);
  const Rect<2> corner = MakeRect(0.0, 0.0, 0.4, 0.4);
  auto snap = index.Snapshot();
  EXPECT_EQ(snap.size(), 200u);
  const auto frozen_ids = SortedIds(snap.QueryToVector(everything));
  std::vector<Record2> tmp;
  const QueryStats frozen_stats =
      snap.Query(corner, [&](const Record2& r) { tmp.push_back(r); });
  QueryStats knn_stats;
  const auto frozen_knn = snap.Knn({0.5, 0.5}, 10, &knn_stats);
  ASSERT_EQ(frozen_knn.size(), 10u);

  // 8 writer threads: 4 inserting the second half, 4 deleting the first.
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 200 + static_cast<size_t>(t); i < data.size(); i += 4) {
        index.Insert(data[i]);
      }
    });
    writers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = static_cast<size_t>(t); i < 200; i += 4) {
        index.Delete(data[i]);
      }
    });
  }
  go.store(true);

  // Re-query the pinned snapshot while the storm runs: same ids, same
  // stats, every time.
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(SortedIds(snap.QueryToVector(everything)), frozen_ids);
    std::vector<Record2> hits;
    QueryStats qs =
        snap.Query(corner, [&](const Record2& r) { hits.push_back(r); });
    EXPECT_TRUE(SameStats(qs, frozen_stats));
    QueryStats ks;
    auto knn = snap.Knn({0.5, 0.5}, 10, &ks);
    ASSERT_EQ(knn.size(), frozen_knn.size());
    for (size_t i = 0; i < knn.size(); ++i) {
      EXPECT_EQ(knn[i].record.id, frozen_knn[i].record.id);
    }
    EXPECT_TRUE(SameStats(ks, knn_stats));
  }
  for (auto& th : writers) th.join();

  // Still frozen after the storm.
  EXPECT_EQ(SortedIds(snap.QueryToVector(everything)), frozen_ids);
  snap.Release();

  // The live view converged to inserts minus deletes.
  std::vector<Record2> expect;
  for (size_t i = 200; i < data.size(); ++i) expect.push_back(data[i]);
  EXPECT_EQ(index.size(), expect.size());
  EXPECT_EQ(SortedIds(index.QueryToVector(everything)),
            BruteForceQuery(expect, everything));
  EXPECT_EQ(index.epochs().active_readers(), 0u);
}

TEST(SnapshotTest, LimboPagesReturnToBaselineAfterLastReaderDrains) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  const size_t baseline = dev.num_allocated();
  auto data = RandomRects<2>(300, 17);
  for (const auto& rec : data) index.Insert(rec);
  ASSERT_GT(dev.num_allocated(), baseline);

  auto snap = index.Snapshot();
  const auto frozen = SortedIds(
      snap.QueryToVector(MakeRect(-1, -1, 2, 2)));
  ASSERT_EQ(frozen.size(), data.size());

  // Delete everything: the forest collapses and frees all of its pages —
  // but the snapshot still pins the full 300-record version.
  for (const auto& rec : data) ASSERT_TRUE(index.Delete(rec));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_GT(index.epochs().limbo_pages(), 0u);
  EXPECT_GT(dev.num_allocated(), baseline);
  EXPECT_EQ(SortedIds(snap.QueryToVector(MakeRect(-1, -1, 2, 2))), frozen);

  // Last reader drains: every limbo page provably back on the free list.
  snap.Release();
  EXPECT_EQ(index.epochs().limbo_pages(), 0u);
  EXPECT_EQ(dev.num_allocated(), baseline);
}

TEST(SnapshotTest, StatsByteIdenticalWithWritersOnAndOff) {
  // Build two identical forests; query one quiesced, the other mid-storm
  // through a pinned snapshot.  Counters must match exactly.
  auto data = RandomRects<2>(250, 19);
  auto extra = RandomRects<2>(250, 23);
  for (auto& r : extra) r.id += 1000;
  const Rect<2> window = MakeRect(0.2, 0.2, 0.7, 0.7);

  MemoryBlockDevice dev_a(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;
  DynamicPRTree<2> quiet(WorkEnv{&dev_a, 1u << 20}, opts);
  for (const auto& rec : data) quiet.Insert(rec);
  std::vector<Record2> hits_a;
  QueryStats qs_quiet =
      quiet.Query(window, [&](const Record2& r) { hits_a.push_back(r); });

  MemoryBlockDevice dev_b(512);
  DynamicPRTree<2> busy(WorkEnv{&dev_b, 1u << 20}, opts);
  for (const auto& rec : data) busy.Insert(rec);
  auto snap = busy.Snapshot();
  std::thread writer([&] {
    for (const auto& rec : extra) busy.Insert(rec);
  });
  std::vector<Record2> hits_b;
  QueryStats qs_busy =
      snap.Query(window, [&](const Record2& r) { hits_b.push_back(r); });
  writer.join();

  EXPECT_TRUE(SameStats(qs_busy, qs_quiet));
  EXPECT_EQ(SortedIds(hits_b), SortedIds(hits_a));
}

TEST(SnapshotTest, AttachedPoolSafeAcrossRebuilds) {
  MemoryBlockDevice dev(512);
  // Declared before the index: the pool must outlive the forest (the
  // epoch manager invalidates attached pools when draining).
  BufferPool pool(&dev, 128);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  index.AttachPool(&pool);

  auto data = RandomRects<2>(300, 29);
  const Rect<2> everything = MakeRect(-1, -1, 2, 2);
  std::vector<Record2> inserted;
  for (const auto& rec : data) {
    index.Insert(rec);
    inserted.push_back(rec);
    if (inserted.size() % 50 == 0) {
      // The pool is kept across rebuilds without any manual Clear():
      // drain-time invalidation keeps recycled ids from serving stale
      // frames.
      EXPECT_EQ(SortedIds(index.QueryToVector(everything, &pool)),
                BruteForceQuery(inserted, everything));
    }
  }
  EXPECT_EQ(SortedIds(index.QueryToVector(everything, &pool)),
            BruteForceQuery(data, everything));
}

}  // namespace
}  // namespace prtree
