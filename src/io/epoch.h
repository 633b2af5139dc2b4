// Epoch-based page reclamation: the MVCC backbone for snapshot reads
// under concurrent writes.
//
// The write path (the logarithmic-method rebuilds in core/dynamic_prtree.h,
// the one snapshot-serving index) never mutates a page a published version
// references: it builds replacement pages off to the side, publishes with
// a single atomic version swap, and hands the replaced pages here.  A
// retired page is *logically* free — no current or future version
// references it — but a reader that pinned an older version may still be
// traversing it, so returning it to the device free list immediately
// would let the next Allocate() recycle the id and write fresh bytes under
// that reader.
//
// EpochManager closes that window with the classic epoch scheme:
//
//   * every published version belongs to an epoch; Retire() stamps the
//     replaced pages with a new epoch (the swap that obsoleted them) and
//     parks them on a per-epoch limbo list;
//   * readers Enter() before loading a version and hold the returned
//     EpochGuard while traversing; the guard records the epoch that was
//     current at entry;
//   * a limbo entry drains — each page is invalidated in every attached
//     BufferPool, then device->Free()d — once no active guard is older
//     than the entry's retire epoch.  With no readers at all, Retire()
//     drains immediately, so single-threaded usage reclaims pages exactly
//     as eagerly as direct Free() calls did.
//
// The pool interplay is the safety-critical part: a pooled frame for a
// retired-but-undrained page is still byte-accurate (copy-on-write means
// nobody overwrites it), so snapshot readers may keep hitting it.  Only
// when the page returns to the free list — and a later Allocate() may
// recycle the id with new contents — must cached frames die, which is why
// the invalidation happens at drain time, never earlier.
//
// Thread safety: all members may be called from any number of threads.
// Attached pools and the device must outlive the manager (or be detached).

#ifndef PRTREE_IO_EPOCH_H_
#define PRTREE_IO_EPOCH_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "io/buffer_pool.h"

namespace prtree {

class EpochManager;

/// \brief RAII reader registration: while alive, no page retired after the
/// guard was acquired is returned to the device free list.  Movable,
/// released on destruction or an explicit Release().
class EpochGuard {
 public:
  EpochGuard() = default;
  EpochGuard(EpochGuard&& o) noexcept : mgr_(o.mgr_), epoch_(o.epoch_) {
    o.mgr_ = nullptr;
  }
  EpochGuard& operator=(EpochGuard&& o) noexcept {
    if (this != &o) {
      Release();
      mgr_ = o.mgr_;
      epoch_ = o.epoch_;
      o.mgr_ = nullptr;
    }
    return *this;
  }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
  ~EpochGuard() { Release(); }

  bool valid() const { return mgr_ != nullptr; }
  uint64_t epoch() const { return epoch_; }

  /// Drops the registration early (idempotent).  Releasing the oldest
  /// guard is what lets pending limbo entries drain.
  void Release();

 private:
  friend class EpochManager;
  EpochGuard(EpochManager* mgr, uint64_t epoch) : mgr_(mgr), epoch_(epoch) {}

  EpochManager* mgr_ = nullptr;
  uint64_t epoch_ = 0;
};

/// \brief Reader registry plus per-epoch limbo lists of retired pages.
/// One per versioned structure (DynamicPRTree owns one).
class EpochManager {
 public:
  /// \param device  device the retired pages return to (not owned).
  explicit EpochManager(BlockDevice* device);

  /// Drains every remaining limbo page back to the device (still
  /// invalidating attached pools).  Aborts if a guard is still active —
  /// snapshots must not outlive the structure they read.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// \brief Registers a reader at the current epoch.  Acquire the guard
  /// *before* loading the version root(s) you intend to traverse: pages of
  /// any version observable after entry outlive the guard.
  EpochGuard Enter();

  /// \brief Parks `pages` on the limbo list, stamped with a fresh epoch.
  /// Call *after* publishing the version swap that made them unreachable.
  /// Entries whose epoch no active reader predates are freed immediately,
  /// so this is also the drain pump on the writer side.
  void Retire(std::vector<PageId> pages);

  /// \brief Registers `pool` for invalidation when pages drain: every page
  /// is Invalidate()d in each attached pool immediately before its
  /// device->Free().  Idempotent.  An attached pool must outlive this
  /// manager or be detached first.
  void AttachPool(BufferPool* pool);
  void DetachPool(BufferPool* pool);

  /// Pages awaiting drain across all limbo entries.
  size_t limbo_pages() const;
  /// Active (entered, not yet released) reader guards.
  size_t active_readers() const;

 private:
  friend class EpochGuard;

  void Exit(uint64_t epoch);
  /// Frees every limbo entry no active reader predates.  mu_ held.
  void DrainLocked();

  BlockDevice* const device_;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;                  // newest retire stamp
  std::map<uint64_t, size_t> active_;   // epoch -> reader count
  struct LimboEntry {
    uint64_t retire_epoch;
    std::vector<PageId> pages;
  };
  std::deque<LimboEntry> limbo_;        // retire_epoch ascending
  size_t limbo_pages_ = 0;
  std::vector<BufferPool*> pools_;
};

}  // namespace prtree

#endif  // PRTREE_IO_EPOCH_H_
