// k-nearest-neighbour search over the block-based R-tree.
//
// §1.1 notes that "many types of queries can be answered efficiently using
// an R-tree"; besides window queries, distance queries are the other
// workhorse.  This is the classic best-first (Hjaltason–Samet style)
// traversal: a priority queue ordered by MINDIST expands the closest node
// or reports the closest pending record; it visits provably no more nodes
// than any correct algorithm for the same tree.

#ifndef PRTREE_RTREE_KNN_H_
#define PRTREE_RTREE_KNN_H_

#include <cmath>
#include <queue>
#include <span>
#include <vector>

#include "rtree/node_scan.h"
#include "rtree/rtree.h"

namespace prtree {

/// \brief One kNN result: a stored record and its distance to the query
/// point (Euclidean distance to the closest point of the rectangle).
template <int D>
struct Neighbor {
  Record<D> record;
  Real distance;
};

/// MINDIST: Euclidean distance from point `p` to rectangle `r` (zero if
/// the point lies inside).
template <int D>
Real MinDist(const std::array<Real, D>& p, const Rect<D>& r) {
  Real d2 = 0;
  for (int d = 0; d < D; ++d) {
    Real delta = 0;
    if (p[d] < r.lo[d]) {
      delta = r.lo[d] - p[d];
    } else if (p[d] > r.hi[d]) {
      delta = p[d] - r.hi[d];
    }
    d2 += delta * delta;
  }
  return std::sqrt(d2);
}

template <int D, typename Keep>
std::vector<Neighbor<D>> KnnSearchFrom(const RTree<D>& tree, PageId root,
                                       const std::array<Real, D>& point,
                                       size_t k, QueryStats* stats,
                                       BufferPool* pool, Keep keep);

/// \brief Finds the `k` stored records closest to `point`, in increasing
/// distance order (ties broken by id for determinism).  Returns fewer
/// than `k` if the tree is smaller.  `stats` (optional) receives node
/// visit counters; `pool` (optional) caches node reads.  Like window
/// queries, safe to run from many threads over one shared tree and pool.
///
/// When the pool reads ahead (BufferPool::readahead_enabled) each internal
/// expansion prefetches the children it pushed onto the frontier in one
/// batch.  Best-first order makes some of those speculative — a distant
/// child may never be popped — which is the access-adaptive wager: the
/// pool's prefetch_useful/prefetch_staged ratio reports how it paid off.
/// Visit counters and results are identical with readahead on or off.
template <int D>
std::vector<Neighbor<D>> KnnSearch(const RTree<D>& tree,
                                   const std::array<Real, D>& point,
                                   size_t k, QueryStats* stats = nullptr,
                                   BufferPool* pool = nullptr) {
  return KnnSearchFrom<D>(tree, tree.root(), point, k, stats, pool,
                          [](const Record<D>&) { return true; });
}

/// \brief KnnSearch rooted at an explicit page with a record filter — the
/// snapshot/forest entry point.  MVCC readers pass a published root
/// captured under an EpochGuard (the tree's own root/height/size fields
/// are never read, so a concurrent copy-on-write updater is safe); the
/// logarithmic forest passes each level's root with a tombstone filter.
/// `keep(rec)` decides whether a stored record is reported (and counted
/// toward `k`); filtered records never enter the candidate heap.  With the
/// tree's own root and an always-true filter this is exactly KnnSearch.
template <int D, typename Keep>
std::vector<Neighbor<D>> KnnSearchFrom(const RTree<D>& tree, PageId root,
                                       const std::array<Real, D>& point,
                                       size_t k, QueryStats* stats,
                                       BufferPool* pool, Keep keep) {
  std::vector<Neighbor<D>> result;
  if (stats != nullptr) *stats = QueryStats{};
  if (k == 0 || root == kInvalidPageId) return result;

  struct Item {
    Real dist;
    bool is_record;
    PageId page;       // when !is_record
    Record<D> record;  // when is_record
  };
  auto greater = [](const Item& a, const Item& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    // Expand nodes before reporting records at equal distance (a record
    // may otherwise be reported ahead of a closer one still inside a
    // node); tie records by id for determinism.
    if (a.is_record != b.is_record) return a.is_record && !b.is_record;
    if (a.is_record) return a.record.id > b.record.id;
    return a.page > b.page;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(greater)> heap(
      greater);
  heap.push(Item{0.0, false, root, {}});

  QueryStats local;
  const bool readahead = pool != nullptr && pool->readahead_enabled();
  std::vector<PageId> frontier;  // children pushed by the current expansion
  PageGuard guard;  // hoisted: pool-less searches reuse one buffer
  NodeScanner<D> scan;  // batched MINDIST scratch (rtree/node_scan.h)
  while (!heap.empty() && result.size() < k) {
    Item item = heap.top();
    heap.pop();
    if (item.is_record) {
      result.push_back(Neighbor<D>{item.record, item.dist});
      continue;
    }
    tree.PinNode(item.page, pool, &guard);
    ConstNodeView<D> node(guard.data(), tree.block_size());
    ++local.nodes_visited;
    // One batched squared-MINDIST pass per node; std::sqrt(d2[i]) is
    // bit-identical to the scalar MinDist above, so heap order, visit
    // counters and reported distances are unchanged by SIMD dispatch.
    const Real* d2 = scan.MinDist2(node, point);
    if (node.is_leaf()) {
      ++local.leaves_visited;
      for (int i = 0; i < node.count(); ++i) {
        Record<D> rec{node.GetRect(i), node.GetId(i)};
        if (!keep(rec)) continue;
        heap.push(Item{std::sqrt(d2[i]), true, 0, rec});
      }
    } else {
      ++local.internal_visited;
      if (readahead) frontier.clear();
      for (int i = 0; i < node.count(); ++i) {
        heap.push(Item{std::sqrt(d2[i]), false, node.GetId(i), {}});
        if (readahead) frontier.push_back(node.GetId(i));
      }
      if (readahead && frontier.size() >= 2) {
        pool->Prefetch(std::span<const PageId>(frontier));
      }
    }
  }
  local.results = result.size();
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace prtree

#endif  // PRTREE_RTREE_KNN_H_
