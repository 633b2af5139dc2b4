// Shared node-I/O helper for the dynamic updaters (rtree/update.h,
// rtree/rstar.h): the pool-read-then-copy and write-then-invalidate
// plumbing lives here once, and it is the single seam through which BOTH
// updaters log to the update journal.
//
// Two modes:
//
//  * Plain (no journal): Write() updates the page in place; Release()
//    frees it immediately.  The device-op sequence (Read/Write/Allocate/
//    Free order) is the historical in-place one, so page-id layouts and
//    I/O counters are those of the textbook algorithms.
//
//  * Journaled (JournalWriter attached, io/journal.h): copy-on-write that
//    protects the newest COMMITTED version on disk.  Write() shadows: the
//    new bytes go to a freshly allocated page and the old id is queued as
//    replaced.  Pages allocated within the current op (tracked in
//    `fresh_`) are unreachable from the committed root, so they may be
//    rewritten in place — that keeps an op's page count proportional to
//    the path it touches rather than the number of writes it issues.  The
//    updater opens each op with BeginInsert()/BeginDelete(), which stages
//    the logical record; EndOp() either commits the op through the
//    journal — the commit frame's block write is the durable point, and
//    the replaced pages defer into the journal's free list — or aborts
//    the staged record when the op never wrote (delete miss).  Crash
//    anywhere inside an op and recovery restores the previous committed
//    root, whose pages are all still byte-intact.
//
// Snapshot readers are not served here: the one snapshot-serving dynamic
// index is DynamicPRTree (core/dynamic_prtree.h), whose level rebuilds
// write fresh pages and free the replaced ones only after readers drain.
//
// Pool discipline: a page's pool frame is invalidated whenever the page is
// written, allocated or replaced — no reader outside the updater holds
// these pages, so a frame is never worth keeping past a change.

#ifndef PRTREE_RTREE_UPDATE_IO_H_
#define PRTREE_RTREE_UPDATE_IO_H_

#include <cstring>
#include <unordered_set>
#include <vector>

#include "io/journal.h"
#include "rtree/rtree.h"

namespace prtree {

template <int D>
class UpdaterIO {
 public:
  /// \param tree     tree whose nodes are read/written (not owned).
  /// \param pool     optional read cache over the tree's pages.
  /// \param journal  optional: presence switches on copy-on-write for
  ///                 crash consistency and logs every op through the
  ///                 journal.
  UpdaterIO(RTree<D>* tree, BufferPool* pool, JournalWriter* journal)
      : tree_(tree), pool_(pool), journal_(journal) {}

  /// Copy-on-write is on whenever the last durable commit may still need
  /// the current pages' bytes.
  bool cow() const { return journal_ != nullptr; }

  /// Marks the start of one logical update op (one Insert/Delete).
  void BeginOp() {
    PRTREE_CHECK(retired_.empty());  // missing EndOp on the previous op
    fresh_.clear();
    wrote_ = false;
  }

  /// BeginOp() plus staging the op's logical record in the journal.  The
  /// record reaches the device only inside EndOp()'s commit.
  void BeginInsert(const Record<D>& rec) {
    BeginOp();
    if (journal_ != nullptr) {
      journal_->StageRecord(JournalFrameType::kInsert, D,
                            rec.rect.lo.data(), rec.rect.hi.data(), rec.id);
    }
  }
  void BeginDelete(const Record<D>& rec) {
    BeginOp();
    if (journal_ != nullptr) {
      journal_->StageRecord(JournalFrameType::kDelete, D,
                            rec.rect.lo.data(), rec.rect.hi.data(), rec.id);
    }
  }

  /// Reads `page` into the private working buffer `buf`, through the pool
  /// when one caches this tree (a pinned guard is copied out — update
  /// paths mutate and write back, so they need an owned buffer either
  /// way).  Without a pool, reads straight from the device into `buf`.
  void Read(PageId page, std::byte* buf) {
    if (pool_ == nullptr) {
      AbortIfError(tree_->device()->Read(page, buf));
      return;
    }
    PageGuard guard;
    tree_->PinNode(page, pool_, &guard);
    std::memcpy(buf, guard.data(), tree_->block_size());
  }

  /// Stores `buf` as the new contents of logical node `page` and returns
  /// the id now holding them: `page` itself when writing in place, or a
  /// fresh shadow page under copy-on-write (the caller must re-point the
  /// parent entry — or the root — at the returned id).
  PageId Write(PageId page, const std::byte* buf) {
    wrote_ = true;
    if (!cow() || fresh_.count(page) != 0) {
      AbortIfError(tree_->device()->Write(page, buf));
      Invalidate(page);
      return page;
    }
    PageId shadow = WriteNew(buf);
    Replace(page);
    return shadow;
  }

  /// Allocates a fresh page, writes `buf` there, returns its id.  A pool
  /// frame from a previous tenant of the id would be stale, so it goes.
  PageId WriteNew(const std::byte* buf) {
    wrote_ = true;
    PageId page = tree_->device()->Allocate();
    AbortIfError(tree_->device()->Write(page, buf));
    if (cow()) fresh_.insert(page);
    Invalidate(page);
    return page;
  }

  /// The node at `page` left the tree (condensed away, shrunk root).
  /// Plain mode frees it immediately; under copy-on-write a page the
  /// committed version may reference is queued as replaced instead,
  /// while a page allocated within this op — never committed — is freed
  /// eagerly.
  void Release(PageId page) {
    wrote_ = true;
    if (cow() && fresh_.erase(page) == 0) {
      Replace(page);
      return;
    }
    Invalidate(page);
    tree_->device()->Free(page);
  }

  /// Ends the op.  Journaled, it commits the op — the pages it replaced
  /// defer into the journal's free list — or aborts the staged record
  /// when nothing was written; the in-memory tree is never behind what a
  /// crash would recover.
  void EndOp() {
    if (journal_ != nullptr) {
      if (wrote_) {
        AbortIfError(journal_->CommitOp(tree_->root(), tree_->height(),
                                        tree_->size(), &retired_));
      } else {
        journal_->AbortOp();  // delete miss: nothing durable to do
      }
      retired_.clear();
    }
    fresh_.clear();
  }

 private:
  void Invalidate(PageId page) {
    if (pool_ != nullptr) pool_->Invalidate(page);
  }

  /// A page the committed version still references was replaced: queue
  /// it for the commit's deferred free.
  void Replace(PageId page) {
    retired_.push_back(page);
    Invalidate(page);
  }

  RTree<D>* tree_;
  BufferPool* pool_;
  JournalWriter* journal_;
  std::unordered_set<PageId> fresh_;  // allocated by the op in flight
  std::vector<PageId> retired_;       // replaced pages awaiting EndOp
  bool wrote_ = false;                // op touched the device
};

}  // namespace prtree

#endif  // PRTREE_RTREE_UPDATE_IO_H_
