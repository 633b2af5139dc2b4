// JournaledTree: a crash-consistent dynamic R-tree on a file-backed device.
//
// Ties the pieces together — a FileBlockDevice (or its io_uring subclass),
// an RTree, a Guttman or R* updater running in journaled copy-on-write
// mode (rtree/update_io.h), and the update journal (io/journal.h) — into
// the durability story the pieces individually only enable:
//
//   Create()  fresh device + empty tree + bootstrap checkpoint.
//   Insert()/Delete()  one journaled op each: record frame staged, tree
//             pages shadowed, commit frame flushed last.  The block write
//             of the commit frame is the durable point; kill the process
//             anywhere and the tree recovers to exactly the ops whose
//             commit landed — a prefix of the applied sequence.
//   Open()    recovery: validate the anchor, scan the journal, point the
//             tree at the newest durable commit, discard (truncate) any
//             torn tail, sweep pages nothing reaches back to the free
//             list, and rotate to a fresh journal epoch.
//
// Concurrency: Insert/Delete/Checkpoint serialise on an internal mutex —
// the updaters are single-writer by design, so an 8-thread update storm
// is safe but not parallel (tools/crash_torture drives exactly that).
// Queries need no lock: read through tree().Query* as usual.
//
// Recovery state machine (docs/DURABILITY.md spells out each arrow):
//
//   read meta ──no anchor──▶ plain AttachTree ──▶ bootstrap checkpoint
//      │ anchor
//      ▼
//   adopt orphan pages ─▶ scan journal ─▶ root := last commit (else meta)
//      ─▶ validate tree ─▶ reachability sweep ─▶ adopt + checkpoint
//
// All recovery reads go through ReadMeta and the sweep/journal writes
// through the kMeta channel, so recovery never moves the demand I/O
// counters the experiments report.

#ifndef PRTREE_RTREE_JOURNALED_TREE_H_
#define PRTREE_RTREE_JOURNALED_TREE_H_

#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/file_block_device.h"
#include "io/journal.h"
#include "io/uring_block_device.h"
#include "rtree/persist.h"
#include "rtree/rstar.h"
#include "rtree/rtree.h"
#include "rtree/update.h"
#include "rtree/validate.h"

namespace prtree {

template <int D = 2>
class JournaledTree {
 public:
  using RectT = Rect<D>;
  using RecordT = Record<D>;

  struct Options {
    /// "file" (pread/pwrite) or "uring" (io_uring-batched) — the two
    /// file-backed backends share one on-disk format, so a tree written
    /// under either recovers under the other.
    std::string backend = "file";
    FileDeviceOptions device;
    JournalOptions journal;

    /// Updater heuristic: Guttman (default) or R*.
    bool use_rstar = false;
    SplitPolicy policy = SplitPolicy::kQuadratic;
    double min_fill = 0.4;

    /// Run ValidateTree on the recovered tree inside Open().  A
    /// journal-less index is always validated (by AttachTree).
    bool validate_on_open = true;

    /// Checkpoint in the destructor so a clean close leaves an empty
    /// journal (and a plain AttachTree-compatible file).  Tests that
    /// simulate in-process crashes turn this off.
    bool checkpoint_on_close = true;
  };

  /// One committed logical op recovered from the journal.
  struct RecoveredOp {
    JournalFrameType type;  // kInsert or kDelete
    RecordT record;
    uint64_t seq;
  };

  /// What Open() found and did.
  struct RecoveryReport {
    bool recovered = false;        // the journal held frames to apply
    uint64_t committed_ops = 0;    // commits honoured this epoch
    size_t truncated_frames = 0;   // torn-tail frames discarded
    size_t swept_pages = 0;        // unreachable pages returned to free list
    size_t adopted_pages = 0;      // post-checkpoint pages made visible
    std::vector<RecoveredOp> ops;  // the committed record stream, in order
  };

  /// Creates (truncating) a fresh journaled index at `path`.
  static Status Create(const std::string& path, const Options& opts,
                       std::unique_ptr<JournaledTree>* out) {
    out->reset();
    Options o = opts;
    o.device.truncate = true;
    o.device.must_exist = false;
    std::unique_ptr<JournaledTree> t(new JournaledTree(o));
    PRTREE_RETURN_NOT_OK(OpenDevice(o, path, &t->device_));
    t->Init();
    PRTREE_RETURN_NOT_OK(t->journal_->Checkpoint(t->MetaBuilderFn()));
    *out = std::move(t);
    return Status::OK();
  }

  /// Opens an existing index, running crash recovery when the journal
  /// holds anything.  Also the upgrade path: a plain (PersistTree'd,
  /// journal-less) index attaches and gains a journal.
  static Status Open(const std::string& path, const Options& opts,
                     std::unique_ptr<JournaledTree>* out,
                     RecoveryReport* report = nullptr) {
    out->reset();
    RecoveryReport local;
    RecoveryReport* rep = report != nullptr ? report : &local;
    *rep = RecoveryReport{};

    Options o = opts;
    o.device.truncate = false;
    o.device.must_exist = true;
    std::unique_ptr<JournaledTree> t(new JournaledTree(o));
    PRTREE_RETURN_NOT_OK(OpenDevice(o, path, &t->device_));
    t->Init();
    FileBlockDevice* dev = t->device_.get();

    using persist_internal::TreeMetaRecord;
    TreeMetaRecord meta{};
    if (dev->GetUserMeta(&meta, sizeof(meta)) < sizeof(meta)) {
      return Status::NotFound("device holds no persisted tree metadata");
    }
    if (meta.magic != persist_internal::kTreeMetaMagic) {
      return Status::Corruption("bad tree metadata magic");
    }
    if (meta.version != persist_internal::kTreeMetaVersion) {
      return Status::Corruption("unsupported tree metadata version");
    }
    if (meta.dimension != static_cast<uint32_t>(D)) {
      return Status::InvalidArgument("persisted tree dimension mismatch");
    }

    JournalAnchor anchor{};
    bool anchor_present = false;
    PRTREE_RETURN_NOT_OK(ReadJournalAnchor(*dev, &anchor, &anchor_present));
    if (!anchor_present) {
      // Journal-less index: the plain attach path (with its staleness
      // checks) applies, then the bootstrap checkpoint journals it.
      if (meta.journal_epoch != 0) {
        return Status::Corruption(
            "tree metadata names a journal epoch but the device holds no "
            "journal anchor");
      }
      PRTREE_RETURN_NOT_OK(AttachTree(dev, &*t->tree_));
      PRTREE_RETURN_NOT_OK(t->journal_->Checkpoint(t->MetaBuilderFn()));
      *out = std::move(t);
      return Status::OK();
    }
    if (meta.journal_epoch != anchor.epoch) {
      return Status::Corruption(
          "tree metadata and journal anchor disagree on the epoch");
    }

    // Pages allocated after the checkpoint (committed ops' shadow pages
    // among them) are invisible to the reopened superblock — adopt them
    // before touching the root.
    rep->adopted_pages = dev->AdoptOrphanPages();

    JournalScan scan;
    PRTREE_RETURN_NOT_OK(ScanJournal(*dev, anchor, &scan));

    PageId root = scan.has_commit ? scan.commit_root : meta.root;
    const int height =
        scan.has_commit ? static_cast<int>(scan.commit_height) : meta.height;
    const uint64_t size =
        scan.has_commit ? scan.commit_size : meta.record_count;
    if (root != kInvalidPageId) {
      std::vector<std::byte> buf(dev->block_size());
      Status st = dev->ReadMeta(root, buf.data());
      if (!st.ok()) {
        return Status::Corruption("recovered root page is not readable: " +
                                  st.message());
      }
      st = ConstNodeView<D>(buf.data(), dev->block_size()).CheckFormat();
      if (!st.ok()) {
        return Status::Corruption("recovered root page: " + st.message());
      }
      t->tree_->SetRoot(root, height, size);
    }
    if (o.validate_on_open) {
      PRTREE_RETURN_NOT_OK(ValidateTree(*t->tree_));
    }

    // Everything the recovered tree and the scanned journal region do not
    // reach goes back to the free list: uncommitted shadow pages, pages
    // retired by committed ops, checkpoint-crash leftovers.  This is what
    // keeps num_allocated leak-free across any crash point.
    rep->swept_pages = t->SweepUnreachable(scan.region);

    // Rotate to a fresh epoch so the scanned region (torn tail included)
    // is logically truncated and physically freed.
    t->journal_->AdoptRecovered(scan);
    PRTREE_RETURN_NOT_OK(t->journal_->Checkpoint(t->MetaBuilderFn()));

    rep->recovered = scan.committed_ops > 0 || scan.truncated_frames > 0;
    rep->committed_ops = scan.committed_ops;
    rep->truncated_frames = scan.truncated_frames;
    rep->ops.reserve(scan.committed.size());
    for (const JournalOpRecord& op : scan.committed) {
      RecoveredOp r;
      r.type = op.type;
      r.seq = op.seq;
      if (DecodeJournalRecord(op, D, r.record.rect.lo.data(),
                              r.record.rect.hi.data(), &r.record.id)) {
        rep->ops.push_back(std::move(r));
      }
    }
    *out = std::move(t);
    return Status::OK();
  }

  ~JournaledTree() {
    if (opts_.checkpoint_on_close && journal_ != nullptr &&
        dirty_ops_ != 0) {
      // Best effort — a failure here is the crash case Open() recovers.
      (void)journal_->Checkpoint(MetaBuilderFn());
    }
  }

  JournaledTree(const JournaledTree&) = delete;
  JournaledTree& operator=(const JournaledTree&) = delete;

  /// Journaled insert: serialised, auto-checkpointing when the region
  /// runs low.  Durable once the call returns.
  Status Insert(const RecordT& rec) {
    std::lock_guard<std::mutex> lock(mu_);
    PRTREE_RETURN_NOT_OK(MaybeCheckpointLocked());
    if (rstar_ != nullptr) {
      rstar_->Insert(rec);
    } else {
      guttman_->Insert(rec);
    }
    ++dirty_ops_;
    return Status::OK();
  }

  /// Journaled delete; *deleted reports whether the record existed.
  Status Delete(const RecordT& rec, bool* deleted = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    PRTREE_RETURN_NOT_OK(MaybeCheckpointLocked());
    const bool d =
        rstar_ != nullptr ? rstar_->Delete(rec) : guttman_->Delete(rec);
    if (deleted != nullptr) *deleted = d;
    if (d) ++dirty_ops_;
    return Status::OK();
  }

  /// Forces a journal checkpoint (durable meta, empty journal, reclaimed
  /// retired pages).
  Status Checkpoint() {
    std::lock_guard<std::mutex> lock(mu_);
    return CheckpointLocked();
  }

  RTree<D>& tree() { return *tree_; }
  const RTree<D>& tree() const { return *tree_; }
  FileBlockDevice* device() { return device_.get(); }
  JournalWriter& journal() { return *journal_; }
  const Options& options() const { return opts_; }

 private:
  explicit JournaledTree(const Options& opts) : opts_(opts) {}

  static Status OpenDevice(const Options& o, const std::string& path,
                           std::unique_ptr<FileBlockDevice>* dev) {
    if (o.backend == "uring") {
      UringDeviceOptions uopts;
      uopts.file = o.device;
      std::unique_ptr<UringBlockDevice> u;
      PRTREE_RETURN_NOT_OK(UringBlockDevice::Open(path, uopts, &u));
      *dev = std::move(u);
      return Status::OK();
    }
    if (o.backend == "file") {
      return FileBlockDevice::Open(path, o.device, dev);
    }
    return Status::InvalidArgument("unknown journaled-tree backend '" +
                                   o.backend + "' (file|uring)");
  }

  void Init() {
    tree_.emplace(device_.get());
    journal_ = std::make_unique<JournalWriter>(device_.get(), opts_.journal);
    if (opts_.use_rstar) {
      rstar_ = std::make_unique<RStarUpdater<D>>(
          &*tree_, opts_.min_fill, /*reinsert_frac=*/0.3,
          /*pool=*/nullptr, journal_.get());
    } else {
      guttman_ = std::make_unique<RTreeUpdater<D>>(
          &*tree_, opts_.policy, opts_.min_fill, /*pool=*/nullptr,
          journal_.get());
    }
  }

  JournalWriter::MetaBuilder MetaBuilderFn() {
    return [this](void* buf, size_t cap, uint32_t epoch, uint64_t allocated,
                  uint64_t peak_allocated) -> size_t {
      using persist_internal::TreeMetaRecord;
      TreeMetaRecord meta{persist_internal::kTreeMetaMagic,
                          persist_internal::kTreeMetaVersion,
                          static_cast<uint32_t>(D),
                          tree_->empty() ? 0 : tree_->height(),
                          tree_->empty() ? kInvalidPageId : tree_->root(),
                          epoch,
                          tree_->size(),
                          allocated,
                          peak_allocated};
      PRTREE_CHECK(sizeof(meta) <= cap);
      std::memcpy(buf, &meta, sizeof(meta));
      return sizeof(meta);
    };
  }

  Status CheckpointLocked() {
    PRTREE_RETURN_NOT_OK(journal_->Checkpoint(MetaBuilderFn()));
    dirty_ops_ = 0;
    return Status::OK();
  }

  Status MaybeCheckpointLocked() {
    if (!journal_->NeedsCheckpoint()) return Status::OK();
    return CheckpointLocked();
  }

  /// Marks every page the tree and `keep` reach, frees the rest.
  size_t SweepUnreachable(const std::vector<PageId>& keep) {
    FileBlockDevice* dev = device_.get();
    std::vector<uint8_t> mark(dev->num_pages(), 0);
    for (PageId p : keep) {
      if (p < mark.size()) mark[p] = 1;
    }
    if (!tree_->empty()) {
      std::vector<PageId> stack{tree_->root()};
      std::vector<std::byte> buf(dev->block_size());
      while (!stack.empty()) {
        PageId p = stack.back();
        stack.pop_back();
        if (p >= mark.size() || mark[p] != 0) continue;
        mark[p] = 1;
        if (!dev->ReadMeta(p, buf.data()).ok()) continue;
        ConstNodeView<D> node(buf.data(), dev->block_size());
        if (!node.CheckFormat().ok() || node.is_leaf()) continue;
        for (int i = 0; i < node.count(); ++i) {
          stack.push_back(node.GetId(i));
        }
      }
    }
    size_t swept = 0;
    const size_t n = dev->num_pages();
    for (PageId p = 0; p < n; ++p) {
      if (mark[p] == 0 && dev->IsAllocated(p)) {
        dev->Free(p);
        ++swept;
      }
    }
    return swept;
  }

  Options opts_;
  std::unique_ptr<FileBlockDevice> device_;
  std::optional<RTree<D>> tree_;
  std::unique_ptr<JournalWriter> journal_;
  std::unique_ptr<RTreeUpdater<D>> guttman_;  // null when use_rstar
  std::unique_ptr<RStarUpdater<D>> rstar_;    // null unless use_rstar
  std::mutex mu_;           // serialises updates and checkpoints
  uint64_t dirty_ops_ = 0;  // committed ops since the last checkpoint
};

}  // namespace prtree

#endif  // PRTREE_RTREE_JOURNALED_TREE_H_
