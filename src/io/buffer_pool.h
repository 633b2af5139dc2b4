// Sharded, pin-based LRU page cache over any BlockDevice backend.
//
// The paper's query experiments cache all internal R-tree nodes (they occupy
// at most a few MB), so a query's reported I/O count equals the number of
// leaf blocks read (§3.3).  The buffer pool realises that protocol — hits
// are free, misses cost one device read (a memcpy on MemoryBlockDevice, a
// real pread on FileBlockDevice, where a pinned frame genuinely shields a
// disk page) — and serves any number of querying threads at once:
//
//  * the frame table is split into shards, each with its own mutex, so
//    unrelated pages never contend on one lock;
//  * Pin() hands out an RAII PageGuard over the pooled frame itself
//    (zero-copy: the traversal layer wraps a ConstNodeView directly over
//    pool memory instead of memcpy-ing every block into a private buffer);
//  * a frame's refcount keeps it resident: eviction and Invalidate() never
//    free memory a guard still points at.
//
// The pool is a pure read cache: callers that modify pages write to the
// device directly and must Invalidate() the page (bulk loaders build trees
// before any pool exists; the dynamic-update paths invalidate after every
// write-back).

#ifndef PRTREE_IO_BUFFER_POOL_H_
#define PRTREE_IO_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "io/block_device.h"

namespace prtree {

class BufferPool;

namespace internal {

/// One cached page.  `pins` and `detached` are guarded by the owning
/// shard's mutex; `data` is immutable while cached (writers invalidate
/// instead of mutating), so guards read it without holding any lock.
struct PoolFrame {
  PageId page = kInvalidPageId;
  std::unique_ptr<std::byte[]> data;
  int pins = 0;
  bool detached = false;    // invalidated while pinned; freed on last unpin
  bool prefetched = false;  // staged by Prefetch(), not yet pinned
};

/// A slice of the pool: its own lock, LRU list and page table.  std::list
/// nodes have stable addresses, so a pinned PoolFrame never moves even as
/// the list is spliced or other frames are evicted.
struct PoolShard {
  std::mutex mu;
  std::list<PoolFrame> lru;       // cached frames, most-recently-used first
  std::list<PoolFrame> detached;  // invalidated but still pinned
  std::unordered_map<PageId, std::list<PoolFrame>::iterator> map;
  size_t capacity = 0;
  size_t pinned_frames = 0;  // cached (non-detached) frames with pins > 0
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t prefetch_staged = 0;  // frames inserted by Prefetch()
  uint64_t prefetch_useful = 0;  // staged frames later pinned
  // Bumped by every Invalidate()/Clear() of this shard.  Prefetch() plans
  // under the shard lock, reads the device without it, then re-checks the
  // epoch before inserting: a frame staged across an invalidation is
  // dropped rather than resurrecting pre-update bytes.
  uint64_t epoch = 0;
};

}  // namespace internal

/// \brief RAII pin on one page's bytes.
///
/// While a guard is alive its data() pointer stays valid: a pooled frame is
/// unpinnable (evictable / freeable) only when its refcount hits zero.  The
/// bytes are read-only — updates go through the device and Invalidate().
///
/// Guards also carry page copies that never entered the pool (capacity-0
/// pools, pool-less reads, and misses refused caching because every frame
/// was pinned); callers cannot tell the difference and need not care.
///
/// Lifetime rules: a guard must not outlive its BufferPool or the
/// BlockDevice backing the page.  Holding a guard across a call that frees
/// the page on the *device* is fine — the guard's bytes are a pinned copy.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& o) noexcept { MoveFrom(&o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(&o);
    }
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  /// The page's bytes (block_size of them).  Valid while the guard lives.
  const std::byte* data() const { return data_; }
  PageId page() const { return page_; }
  bool valid() const { return data_ != nullptr; }
  explicit operator bool() const { return valid(); }

  /// Drops the pin early (idempotent).  data() becomes invalid.
  void Release();

 private:
  friend class BufferPool;
  friend Status ReadPage(const BlockDevice& device, PageId page,
                         PageGuard* out);

  PageGuard(BufferPool* pool, internal::PoolShard* shard,
            internal::PoolFrame* frame)
      : pool_(pool),
        shard_(shard),
        frame_(frame),
        data_(frame->data.get()),
        page_(frame->page) {}
  PageGuard(std::unique_ptr<std::byte[]> owned, PageId page, size_t size)
      : owned_(std::move(owned)),
        owned_size_(size),
        data_(owned_.get()),
        page_(page) {}

  void MoveFrom(PageGuard* o) {
    pool_ = o->pool_;
    shard_ = o->shard_;
    frame_ = o->frame_;
    owned_ = std::move(o->owned_);
    owned_size_ = o->owned_size_;
    data_ = o->data_;
    page_ = o->page_;
    o->pool_ = nullptr;
    o->shard_ = nullptr;
    o->frame_ = nullptr;
    o->owned_size_ = 0;
    o->data_ = nullptr;
    o->page_ = kInvalidPageId;
  }

  BufferPool* pool_ = nullptr;             // null for unpooled copies
  internal::PoolShard* shard_ = nullptr;
  internal::PoolFrame* frame_ = nullptr;
  std::unique_ptr<std::byte[]> owned_;     // set for unpooled copies
  size_t owned_size_ = 0;                  // bytes in owned_
  const std::byte* data_ = nullptr;
  PageId page_ = kInvalidPageId;
};

/// \brief Read-through page cache, sharded for concurrent access.
///
/// Thread safety: Pin, Invalidate, Clear and the counter accessors may be
/// called from any number of threads.  The backing device must allow
/// concurrent Read() (BlockDevice does); device mutations still require
/// the caller to quiesce queries, as before.
class BufferPool {
 public:
  /// Default shard count; enough that a handful of query threads rarely
  /// collide on one mutex, small enough that per-shard LRU stays effective.
  static constexpr size_t kDefaultShards = 16;

  /// \param device     backing device (not owned).
  /// \param capacity   maximum number of cached pages across all shards.
  ///                   0 disables caching: every Pin reads from the device
  ///                   into a guard-owned copy (the guard still pins
  ///                   correctly and keeps its bytes valid — the uncached
  ///                   path is a protocol change only, never a lifetime
  ///                   change).
  /// \param num_shards shards to split the capacity over; 0 picks the
  ///                   default.  Clamped to [1, capacity] so every shard
  ///                   can hold at least one frame.  Tests pass 1 for a
  ///                   single deterministic LRU.
  BufferPool(BlockDevice* device, size_t capacity, size_t num_shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Pins `page` and returns a zero-copy guard over its bytes in
  /// `out`.  A hit costs no device I/O; a miss reads the block once and
  /// may evict the least-recently-used *unpinned* frame of the page's
  /// shard.  If every frame of the shard is pinned, the pool refuses to
  /// evict and serves the caller an unpooled copy instead.
  Status Pin(PageId page, PageGuard* out);

  /// \brief Advisory readahead: stages `pages` into the cache as unpinned
  /// frames so the pins that follow are hits, batching the device reads
  /// (one io_uring submission on UringBlockDevice) instead of paying one
  /// synchronous miss per page at use time.  Returns the number of frames
  /// actually staged.
  ///
  /// Never violates the pin/evict invariants: staging evicts only
  /// *unpinned* LRU frames, skips pages already cached, stages at most
  /// what a shard can actually hold (its capacity minus its pinned
  /// frames — no transfer is issued for a page that provably cannot be
  /// staged), and a capacity-0 pool stages nothing.  Racing Pin()s are
  /// safe (worst case a page is read twice); racing Invalidate()/Clear()
  /// wins — the stale staged frame is dropped (see PoolShard::epoch).
  /// Read failures just leave pages unstaged: a later Pin reports them, so
  /// prefetch never turns into an error path.
  ///
  /// Accounting: the device reads are charged to stats().prefetch_reads,
  /// not stats().reads; staged/useful counts are exposed below
  /// (docs/IO_MODEL.md).
  size_t Prefetch(std::span<const PageId> pages);

  /// Whether Query/kNN call Prefetch() on each frontier of enqueued
  /// children (one level ahead).  The device decides, once, at pool
  /// construction: BlockDevice::ReadaheadPays().  Readahead moves only
  /// *when* blocks are read — the traversal, its results and its leaf I/Os
  /// are the same either way (docs/IO_MODEL.md).
  bool readahead_enabled() const { return readahead_; }

  /// Drops `page` from the cache (after an in-place update).  If the page
  /// is currently pinned its frame is detached — existing guards keep
  /// reading the pre-update bytes safely; the frame is freed when the last
  /// guard releases — and later Pins re-read the device.
  void Invalidate(PageId page);

  /// Drops every unpinned frame and detaches every pinned one.
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return num_shards_; }

  /// Cached (non-detached) frames across all shards.
  size_t size() const;
  /// Frames currently pinned by at least one guard (cached or detached).
  size_t pinned() const;

  uint64_t hits() const;
  uint64_t misses() const;
  /// Frames staged by Prefetch() / staged frames that a Pin() later used.
  /// useful/staged is the readahead accuracy (bench/outofcore_sweep
  /// reports it).
  uint64_t prefetch_staged() const;
  uint64_t prefetch_useful() const;
  void ResetCounters();

 private:
  friend class PageGuard;

  internal::PoolShard& ShardFor(PageId page) {
    return shards_[page % num_shards_];
  }
  void Unpin(internal::PoolShard* shard, internal::PoolFrame* frame);

  BlockDevice* device_;
  size_t capacity_;
  size_t num_shards_;
  const bool readahead_;
  std::unique_ptr<internal::PoolShard[]> shards_;
};

/// \brief Pool-less read: fills `out` with a guard owning a private copy of
/// the page.  The traversal layer uses this when no BufferPool is given, so
/// all node access flows through the one PageGuard API.
///
/// When `out` already owns a right-sized buffer (the previous iteration of
/// a traversal loop re-pinning into one hoisted guard), that buffer is
/// reused — pool-less traversals allocate once, not once per node.
Status ReadPage(const BlockDevice& device, PageId page, PageGuard* out);

}  // namespace prtree

#endif  // PRTREE_IO_BUFFER_POOL_H_
