// The block-based R-tree container shared by all index variants.
//
// Every bulk loader in this library (PR, packed Hilbert, 4-D Hilbert, TGS,
// STR) produces an instance of this one container: a height-balanced
// multiway tree of node blocks in which each internal entry stores the
// minimal bounding box of its child's subtree (§1.1).  Because the container
// and its query procedure are shared, query-performance comparisons between
// variants measure index quality only.
//
// All node reads flow through PinNode(), which returns a pinned PageGuard:
// with a BufferPool the guard is a zero-copy view over pool memory, without
// one it owns a private copy.  Queries are read-only over const tree state
// plus thread-safe device/pool calls, so any number of threads may query
// one tree concurrently (each gets its own exact QueryStats); mutations
// (bulk loads, updates, FreeAll) still require exclusive access.

#ifndef PRTREE_RTREE_RTREE_H_
#define PRTREE_RTREE_RTREE_H_

#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "io/buffer_pool.h"
#include "rtree/node.h"
#include "rtree/node_scan.h"
#include "util/check.h"

namespace prtree {

/// \brief Query-time visit counters.
///
/// `leaves_visited` is the paper's reported query cost: with all internal
/// nodes cached (§3.3), I/Os per query == leaf blocks read.
struct QueryStats {
  uint64_t nodes_visited = 0;
  uint64_t internal_visited = 0;
  uint64_t leaves_visited = 0;
  uint64_t results = 0;

  QueryStats& operator+=(const QueryStats& o) {
    nodes_visited += o.nodes_visited;
    internal_visited += o.internal_visited;
    leaves_visited += o.leaves_visited;
    results += o.results;
    return *this;
  }
};

/// \brief Structural summary of a tree (per-level node counts, packing).
struct TreeStats {
  int height = 0;                      // root level; a leaf-only tree is 0
  uint64_t num_nodes = 0;              // all node blocks
  uint64_t num_leaves = 0;
  uint64_t num_entries = 0;            // data entries in leaves
  std::vector<uint64_t> nodes_per_level;
  double utilization = 0.0;            // filled entry slots / total slots
};

/// \brief A height-balanced R-tree of node blocks on a BlockDevice.
///
/// The object holds the tree's superblock state (root page, height, entry
/// count); the nodes live on the device.  Bulk loaders construct trees via
/// the page-level helpers (AllocateNode/WriteNode), dynamic updates via
/// update.h, and all reads go through Query/PinNode.
template <int D = 2>
class RTree {
 public:
  using RectT = Rect<D>;
  using RecordT = Record<D>;

  explicit RTree(BlockDevice* device) : device_(device) {
    PRTREE_CHECK(device_ != nullptr);
    PRTREE_CHECK(NodeCapacity<D>(device->block_size()) >= 2);
  }

  // Movable so containers of levels (core/dynamic_prtree.h) can grow, but
  // not copyable: two handles on one set of pages would let one free or
  // rewrite what the other still traverses.
  RTree(RTree&&) noexcept = default;
  RTree& operator=(RTree&&) noexcept = default;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  BlockDevice* device() const { return device_; }
  size_t block_size() const { return device_->block_size(); }

  /// Fan-out: entries per node block (113 for D = 2 with 4 KB blocks).
  size_t capacity() const { return NodeCapacity<D>(block_size()); }

  bool empty() const { return root_ == kInvalidPageId; }
  PageId root() const { return root_; }

  /// Level of the root node; 0 means the root is a leaf.  Undefined for an
  /// empty tree.
  int height() const { return height_; }

  /// Number of data records stored.
  size_t size() const { return size_; }

  /// Installs a bulk-loaded tree.  `size` is the number of data records.
  void SetRoot(PageId root, int height, size_t size) {
    root_ = root;
    height_ = height;
    size_ = size;
  }

  /// Adjusts the record count after updates.
  void set_size(size_t n) { size_ = n; }

  /// \brief Window query (§1.1): reports every stored record whose
  /// rectangle intersects `window` by calling `emit(const RecordT&)`.
  ///
  /// Visits exactly the nodes whose MBR intersects the window — the
  /// standard R-tree procedure the paper analyses.  If `pool` is non-null
  /// all node reads go through it (the paper's internal-node cache);
  /// otherwise nodes are read from the device.  Safe to call from many
  /// threads at once over one shared pool.
  ///
  /// Frontier readahead: when the pool reads ahead (its device says
  /// batching pays, BufferPool::readahead_enabled), every internal
  /// expansion prefetches the children it just enqueued — one level ahead
  /// of the traversal, so by the time a child is popped (LIFO: the new
  /// children come off first) its block is already staged, and the whole
  /// frontier was read as one batch (one io_uring submission on
  /// UringBlockDevice).  Readahead changes when blocks are read, never
  /// what is visited: QueryStats are byte-identical with it on or off.
  template <typename Emit>
  QueryStats Query(const RectT& window, Emit emit,
                   BufferPool* pool = nullptr) const {
    return QueryFrom(root_, window, emit, pool);
  }

  /// \brief Window query rooted at an explicit page instead of the tree's
  /// current root — the snapshot-read entry point.  Snapshot readers
  /// capture a level root inside a DynamicPRTree version under an
  /// EpochGuard and traverse it here while rebuilds write new pages
  /// elsewhere; the traversal touches only `root`'s subtree, never this
  /// object's mutable root/height/size fields, so it is safe concurrently
  /// with the writer publishing new versions.  kInvalidPageId queries the
  /// empty tree.
  template <typename Emit>
  QueryStats QueryFrom(PageId root, const RectT& window, Emit emit,
                       BufferPool* pool = nullptr) const {
    QueryStats qs;
    if (root == kInvalidPageId) return qs;
    const bool readahead = pool != nullptr && pool->readahead_enabled();
    std::vector<PageId> stack{root};
    PageGuard guard;  // hoisted: pool-less traversals reuse one buffer
    NodeScanner<D> scan;  // per-traversal scratch for the batched tests
    while (!stack.empty()) {
      PageId page = stack.back();
      stack.pop_back();
      PinNode(page, pool, &guard);
      ConstNodeView<D> node(guard.data(), block_size());
      ++qs.nodes_visited;
      // One batched intersection test per node (SIMD over the SoA runs
      // when the CPU allows — see rtree/node_scan.h); iterating the
      // mask in increasing entry order keeps emit order and QueryStats
      // byte-identical to the historical per-entry loop.
      const uint64_t* mask = scan.IntersectMask(node, window);
      const size_t words = RectMaskWords(node.count());
      if (node.is_leaf()) {
        ++qs.leaves_visited;
        ForEachSetBit(mask, words, [&](int i) {
          ++qs.results;
          emit(RecordT{node.GetRect(i), node.GetId(i)});
        });
      } else {
        ++qs.internal_visited;
        const size_t frontier = stack.size();
        ForEachSetBit(mask, words,
                      [&](int i) { stack.push_back(node.GetId(i)); });
        if (readahead && stack.size() - frontier >= 2) {
          pool->Prefetch(std::span<const PageId>(stack.data() + frontier,
                                                 stack.size() - frontier));
        }
      }
    }
    return qs;
  }

  /// Window query that materialises matching records.
  std::vector<RecordT> QueryToVector(const RectT& window,
                                     BufferPool* pool = nullptr) const {
    std::vector<RecordT> out;
    Query(window, [&](const RecordT& r) { out.push_back(r); }, pool);
    return out;
  }

  /// MBR of the whole tree (Empty() for an empty tree).  Costs one node
  /// read.
  RectT Mbr() const {
    if (empty()) return RectT::Empty();
    PageGuard guard;
    PinNode(root_, nullptr, &guard);
    return ConstNodeView<D>(guard.data(), block_size()).ComputeMbr();
  }

  /// \brief Walks the whole tree and returns structural statistics
  /// (§3.3's space-utilisation numbers).
  TreeStats ComputeStats() const {
    TreeStats ts;
    if (empty()) return ts;
    ts.height = height_;
    ts.nodes_per_level.assign(height_ + 1, 0);
    uint64_t slots = 0;
    uint64_t filled = 0;
    std::vector<PageId> stack{root_};
    PageGuard guard;
    while (!stack.empty()) {
      PageId page = stack.back();
      stack.pop_back();
      PinNode(page, nullptr, &guard);
      ConstNodeView<D> node(guard.data(), block_size());
      ++ts.num_nodes;
      ts.nodes_per_level[node.level()] += 1;
      slots += node.capacity();
      filled += node.count();
      if (node.is_leaf()) {
        ++ts.num_leaves;
        ts.num_entries += node.count();
      } else {
        for (int i = 0; i < node.count(); ++i) {
          stack.push_back(node.GetId(i));
        }
      }
    }
    ts.utilization = slots == 0 ? 0.0 : static_cast<double>(filled) / slots;
    return ts;
  }

  /// Frees every node block of the tree, in DetachPages() order, and
  /// resets to empty.
  void FreeAll() {
    std::vector<PageId> pages;
    DetachPages(&pages);
    for (PageId page : pages) device_->Free(page);
  }

  /// \brief Walks the tree, appends every node page to `out` and resets to
  /// empty *without freeing anything* — the MVCC counterpart of FreeAll().
  /// DynamicPRTree hands the pages to an EpochManager::Retire() after
  /// publishing the version swap that obsoleted them, so snapshot readers
  /// drain before the ids return to the device free list.
  void DetachPages(std::vector<PageId>* out) {
    if (empty()) return;
    std::vector<PageId> stack{root_};
    PageGuard guard;
    while (!stack.empty()) {
      PageId page = stack.back();
      stack.pop_back();
      PinNode(page, nullptr, &guard);
      ConstNodeView<D> node(guard.data(), block_size());
      if (!node.is_leaf()) {
        for (int i = 0; i < node.count(); ++i) stack.push_back(node.GetId(i));
      }
      out->push_back(page);
    }
    root_ = kInvalidPageId;
    height_ = 0;
    size_ = 0;
  }

  /// \brief Pins node `page` into `guard`: through `pool` when given
  /// (zero-copy over the cached frame), else a private copy read from the
  /// device (a hoisted guard re-pinned in a loop reuses its buffer, so
  /// pool-less traversals stay allocation-free).  Any previous pin held by
  /// `guard` is dropped.  Aborts on I/O error — node pages are internal
  /// pointers, so an unreadable page is index corruption, not a
  /// recoverable condition.
  void PinNode(PageId page, BufferPool* pool, PageGuard* guard) const {
    if (pool != nullptr) {
      AbortIfError(pool->Pin(page, guard));
    } else {
      AbortIfError(ReadPage(*device_, page, guard));
    }
  }

  /// \brief Warms `pool` with every internal node — the paper's query setup
  /// ("in all our experiments we cached all internal nodes", §3.3).  Leaves
  /// are deliberately not cached, so query I/O == leaves read.
  /// Returns the number of internal nodes loaded.
  size_t CacheInternalNodes(BufferPool* pool) const {
    if (empty() || height_ == 0) return 0;
    size_t loaded = 0;
    std::vector<std::pair<PageId, int>> stack{{root_, height_}};
    PageGuard guard;
    while (!stack.empty()) {
      auto [page, level] = stack.back();
      stack.pop_back();
      PinNode(page, pool, &guard);
      ConstNodeView<D> node(guard.data(), block_size());
      ++loaded;
      if (level <= 1) continue;  // children are leaves
      for (int i = 0; i < node.count(); ++i) {
        stack.push_back({node.GetId(i), level - 1});
      }
    }
    return loaded;
  }

 private:
  BlockDevice* device_;
  PageId root_ = kInvalidPageId;
  int height_ = 0;
  size_t size_ = 0;
};

using RTree2 = RTree<2>;
static_assert(!std::is_copy_constructible_v<RTree2>);

}  // namespace prtree

#endif  // PRTREE_RTREE_RTREE_H_
