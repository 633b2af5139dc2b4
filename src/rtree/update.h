// Guttman's dynamic R-tree update algorithms (§1.1 [13]).
//
// The paper bulk-loads its trees but notes that "after bulk-loading, a
// PR-tree can be updated in O(log_B N) I/Os using the standard R-tree
// updating algorithms, but without maintaining its query efficiency" (§1.2).
// This module provides those standard algorithms — ChooseLeaf descent,
// quadratic/linear node splitting, and deletion with CondenseTree and
// reinsertion — over the shared block-based container, so the claim can be
// measured (see bench/ablation_updates and the dynamic example).

#ifndef PRTREE_RTREE_UPDATE_H_
#define PRTREE_RTREE_UPDATE_H_

#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "rtree/node_scan.h"
#include "rtree/rtree.h"
#include "rtree/update_io.h"

namespace prtree {

/// Node-splitting policy for overflowing nodes.
enum class SplitPolicy {
  kQuadratic,  // Guttman's quadratic-cost split (default in practice)
  kLinear,     // Guttman's linear-cost split
};

/// \brief Dynamic insert/delete on an RTree, per Guttman.
///
/// Writes go through UpdaterIO: in place (invalidating any BufferPool
/// frame) by default, copy-on-write when a JournalWriter is attached —
/// then every op builds its replacement pages off to the side and commits
/// the new root through the journal, so a crash always recovers the last
/// committed tree.
template <int D>
class RTreeUpdater {
 public:
  using RectT = Rect<D>;
  using RecordT = Record<D>;

  /// \param tree     the tree to update (may be empty).
  /// \param policy   node split algorithm.
  /// \param min_fill minimum node occupancy after deletion and the floor
  ///                 for split groups, as a fraction of capacity.  Guttman
  ///                 requires m <= capacity/2; 0.4 is the customary value.
  /// \param journal  optional: logs every op through the update journal
  ///                 (copy-on-write, commit-at-EndOp — io/journal.h).
  explicit RTreeUpdater(RTree<D>* tree,
                        SplitPolicy policy = SplitPolicy::kQuadratic,
                        double min_fill = 0.4, BufferPool* pool = nullptr,
                        JournalWriter* journal = nullptr)
      : tree_(tree), policy_(policy), io_(tree, pool, journal) {
    PRTREE_CHECK(min_fill > 0.0 && min_fill <= 0.5);
    min_entries_ = std::max<size_t>(
        1, static_cast<size_t>(min_fill *
                               static_cast<double>(tree->capacity())));
  }

  /// \brief Inserts one record in O(log_B N) I/Os.
  void Insert(const RecordT& rec) {
    io_.BeginInsert(rec);
    InsertEntry(rec.rect, rec.id, /*target_level=*/0);
    tree_->set_size(tree_->size() + 1);
    io_.EndOp();
  }

  /// \brief Deletes the record matching `rec` exactly (rectangle and id).
  /// Returns false if no such record is stored.
  bool Delete(const RecordT& rec) {
    if (tree_->empty()) return false;
    io_.BeginDelete(rec);
    std::vector<Orphan> orphans;
    DeleteResult res = DeleteRec(tree_->root(), tree_->height(), rec,
                                 &orphans);
    if (!res.found) {
      io_.EndOp();  // nothing written, nothing retired
      return false;
    }
    if (res.page != tree_->root()) {
      tree_->SetRoot(res.page, tree_->height(), tree_->size());
    }
    tree_->set_size(tree_->size() - 1);
    // Shrink the root while it is an internal node with a single child.
    ShrinkRoot();
    // Reinsert entries of condensed nodes at their original level so leaves
    // stay on the bottom level (Guttman's CondenseTree step).
    for (const Orphan& o : orphans) {
      InsertEntry(o.rect, o.id, o.level);
    }
    io_.EndOp();
    return true;
  }

  /// Entry floor used by condense/split decisions.
  size_t min_entries() const { return min_entries_; }

 private:
  struct Orphan {
    RectT rect;
    uint32_t id;
    int level;  // level the entry must live at (0 = data record)
  };

  struct InsertResult {
    PageId page;                                      // id now holding node
    RectT mbr;                                        // updated subtree MBR
    std::optional<std::pair<RectT, PageId>> split;    // new sibling, if any
  };

  struct DeleteResult {
    PageId page = kInvalidPageId;  // id now holding the (written) node
    bool found = false;
    bool underflow = false;  // node dropped below min_entries
    RectT mbr = RectT::Empty();
  };

  // ---- insertion ------------------------------------------------------

  /// Inserts (rect, id) as an entry at `target_level` (0 inserts a data
  /// record into a leaf; higher levels reinsert orphaned subtrees).
  void InsertEntry(const RectT& rect, uint32_t id, int target_level) {
    if (tree_->empty()) {
      if (target_level > 0) {
        // Reinstalling an orphaned subtree into a fully collapsed tree: the
        // entry references a node at target_level - 1, which simply becomes
        // the new root.
        tree_->SetRoot(static_cast<PageId>(id), target_level - 1,
                       tree_->size());
        return;
      }
      std::vector<std::byte> buf(tree_->block_size());
      NodeView<D> node(buf.data(), tree_->block_size());
      node.Format(0);
      node.Append(rect, id);
      PageId page = io_.WriteNew(buf.data());
      tree_->SetRoot(page, 0, tree_->size());
      return;
    }
    PRTREE_CHECK(target_level <= tree_->height());
    InsertResult res =
        InsertRec(tree_->root(), tree_->height(), rect, id, target_level);
    if (res.split.has_value()) {
      GrowRoot(res.page, res.mbr, *res.split);
    } else if (res.page != tree_->root()) {
      // Copy-on-write shadowed the root itself; re-point (EndOp commits
      // the new root).
      tree_->SetRoot(res.page, tree_->height(), tree_->size());
    }
  }

  InsertResult InsertRec(PageId page, int level, const RectT& rect,
                         uint32_t id, int target_level) {
    std::vector<std::byte> buf(tree_->block_size());
    io_.Read(page, buf.data());
    NodeView<D> node(buf.data(), tree_->block_size());
    PRTREE_CHECK(node.level() == level);

    if (level == target_level) {
      if (!node.full()) {
        node.Append(rect, id);
        PageId out = io_.Write(page, buf.data());
        return InsertResult{out, node.ComputeMbr(), std::nullopt};
      }
      return SplitNode(page, &node, buf.data(), rect, id);
    }

    int child_idx = ChooseSubtree(node, rect);
    InsertResult child_res = InsertRec(node.GetId(child_idx), level - 1, rect,
                                       id, target_level);
    node.SetEntry(child_idx, child_res.mbr, child_res.page);
    if (!child_res.split.has_value()) {
      PageId out = io_.Write(page, buf.data());
      return InsertResult{out, node.ComputeMbr(), std::nullopt};
    }
    const auto& [split_mbr, split_page] = *child_res.split;
    if (!node.full()) {
      node.Append(split_mbr, split_page);
      PageId out = io_.Write(page, buf.data());
      return InsertResult{out, node.ComputeMbr(), std::nullopt};
    }
    return SplitNode(page, &node, buf.data(), split_mbr, split_page);
  }

  /// Guttman's ChooseLeaf criterion: least enlargement, ties by least area.
  int ChooseSubtree(const NodeView<D>& node, const RectT& rect) const {
    int best = 0;
    Real best_enlargement = 0;
    Real best_area = 0;
    for (int i = 0; i < node.count(); ++i) {
      RectT r = node.GetRect(i);
      Real enlargement = r.Enlargement(rect);
      Real area = r.Area();
      if (i == 0 || enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = i;
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    return best;
  }

  /// Splits an overflowing node: distributes its entries plus (rect, id)
  /// into the old page and a fresh sibling.
  InsertResult SplitNode(PageId page, NodeView<D>* node, std::byte* buf,
                         const RectT& rect, uint32_t id) {
    struct Entry {
      RectT rect;
      uint32_t id;
    };
    std::vector<Entry> entries;
    entries.reserve(node->count() + 1);
    for (int i = 0; i < node->count(); ++i) {
      entries.push_back(Entry{node->GetRect(i), node->GetId(i)});
    }
    entries.push_back(Entry{rect, id});

    std::vector<int> group_a, group_b;
    if (policy_ == SplitPolicy::kQuadratic) {
      QuadraticPartition(entries, &group_a, &group_b);
    } else {
      LinearPartition(entries, &group_a, &group_b);
    }

    uint16_t level = node->level();
    node->Format(level);
    for (int i : group_a) node->Append(entries[i].rect, entries[i].id);
    PageId page_a = io_.Write(page, buf);
    RectT mbr_a = node->ComputeMbr();

    std::vector<std::byte> buf_b(tree_->block_size());
    NodeView<D> node_b(buf_b.data(), tree_->block_size());
    node_b.Format(level);
    for (int i : group_b) node_b.Append(entries[i].rect, entries[i].id);
    RectT mbr_b = node_b.ComputeMbr();
    PageId page_b = io_.WriteNew(buf_b.data());

    return InsertResult{page_a, mbr_a, std::make_pair(mbr_b, page_b)};
  }

  template <typename Entry>
  void QuadraticPartition(const std::vector<Entry>& entries,
                          std::vector<int>* group_a,
                          std::vector<int>* group_b) const {
    const int n = static_cast<int>(entries.size());
    // PickSeeds: the pair wasting the most area if grouped together.
    int seed_a = 0, seed_b = 1;
    Real worst = -std::numeric_limits<Real>::infinity();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        Real waste = RectT::Cover(entries[i].rect, entries[j].rect).Area() -
                     entries[i].rect.Area() - entries[j].rect.Area();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    group_a->assign(1, seed_a);
    group_b->assign(1, seed_b);
    RectT mbr_a = entries[seed_a].rect;
    RectT mbr_b = entries[seed_b].rect;
    std::vector<bool> assigned(n, false);
    assigned[seed_a] = assigned[seed_b] = true;
    int remaining = n - 2;

    while (remaining > 0) {
      // If one group must take everything left to reach the minimum, do so.
      if (group_a->size() + remaining == min_entries_) {
        for (int i = 0; i < n; ++i) {
          if (!assigned[i]) {
            group_a->push_back(i);
            mbr_a.ExtendToCover(entries[i].rect);
            assigned[i] = true;
          }
        }
        break;
      }
      if (group_b->size() + remaining == min_entries_) {
        for (int i = 0; i < n; ++i) {
          if (!assigned[i]) {
            group_b->push_back(i);
            mbr_b.ExtendToCover(entries[i].rect);
            assigned[i] = true;
          }
        }
        break;
      }
      // PickNext: the entry with the strongest preference.
      int pick = -1;
      Real best_diff = -1;
      Real d_a_pick = 0, d_b_pick = 0;
      for (int i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        Real d_a = mbr_a.Enlargement(entries[i].rect);
        Real d_b = mbr_b.Enlargement(entries[i].rect);
        Real diff = std::abs(d_a - d_b);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          d_a_pick = d_a;
          d_b_pick = d_b;
        }
      }
      PRTREE_CHECK(pick >= 0);
      bool to_a;
      if (d_a_pick != d_b_pick) {
        to_a = d_a_pick < d_b_pick;
      } else if (mbr_a.Area() != mbr_b.Area()) {
        to_a = mbr_a.Area() < mbr_b.Area();
      } else {
        to_a = group_a->size() <= group_b->size();
      }
      if (to_a) {
        group_a->push_back(pick);
        mbr_a.ExtendToCover(entries[pick].rect);
      } else {
        group_b->push_back(pick);
        mbr_b.ExtendToCover(entries[pick].rect);
      }
      assigned[pick] = true;
      --remaining;
    }
  }

  template <typename Entry>
  void LinearPartition(const std::vector<Entry>& entries,
                       std::vector<int>* group_a,
                       std::vector<int>* group_b) const {
    const int n = static_cast<int>(entries.size());
    // LinearPickSeeds: per dimension, the pair with greatest normalised
    // separation (highest low side vs lowest high side).
    int seed_a = 0, seed_b = 1;
    Real best_sep = -std::numeric_limits<Real>::infinity();
    for (int d = 0; d < D; ++d) {
      int highest_lo = 0, lowest_hi = 0;
      Real min_lo = entries[0].rect.lo[d], max_hi = entries[0].rect.hi[d];
      for (int i = 1; i < n; ++i) {
        if (entries[i].rect.lo[d] > entries[highest_lo].rect.lo[d]) {
          highest_lo = i;
        }
        if (entries[i].rect.hi[d] < entries[lowest_hi].rect.hi[d]) {
          lowest_hi = i;
        }
        min_lo = std::min(min_lo, entries[i].rect.lo[d]);
        max_hi = std::max(max_hi, entries[i].rect.hi[d]);
      }
      if (highest_lo == lowest_hi) continue;
      Real width = max_hi - min_lo;
      Real sep = entries[highest_lo].rect.lo[d] -
                 entries[lowest_hi].rect.hi[d];
      Real norm = width > 0 ? sep / width : sep;
      if (norm > best_sep) {
        best_sep = norm;
        seed_a = lowest_hi;
        seed_b = highest_lo;
      }
    }
    group_a->assign(1, seed_a);
    group_b->assign(1, seed_b);
    RectT mbr_a = entries[seed_a].rect;
    RectT mbr_b = entries[seed_b].rect;
    int remaining = n - 2;
    for (int i = 0; i < n && remaining > 0; ++i) {
      if (i == seed_a || i == seed_b) continue;
      int left = remaining - 1;
      if (group_a->size() + static_cast<size_t>(left) + 1 == min_entries_) {
        group_a->push_back(i);
        mbr_a.ExtendToCover(entries[i].rect);
      } else if (group_b->size() + static_cast<size_t>(left) + 1 ==
                 min_entries_) {
        group_b->push_back(i);
        mbr_b.ExtendToCover(entries[i].rect);
      } else {
        Real d_a = mbr_a.Enlargement(entries[i].rect);
        Real d_b = mbr_b.Enlargement(entries[i].rect);
        if (d_a < d_b || (d_a == d_b && group_a->size() <= group_b->size())) {
          group_a->push_back(i);
          mbr_a.ExtendToCover(entries[i].rect);
        } else {
          group_b->push_back(i);
          mbr_b.ExtendToCover(entries[i].rect);
        }
      }
      --remaining;
    }
  }

  void GrowRoot(PageId old_page, const RectT& old_mbr,
                const std::pair<RectT, PageId>& sibling) {
    std::vector<std::byte> buf(tree_->block_size());
    NodeView<D> node(buf.data(), tree_->block_size());
    int new_height = tree_->height() + 1;
    node.Format(static_cast<uint16_t>(new_height));
    node.Append(old_mbr, old_page);
    node.Append(sibling.first, sibling.second);
    PageId page = io_.WriteNew(buf.data());
    tree_->SetRoot(page, new_height, tree_->size());
  }

  // ---- deletion -------------------------------------------------------

  DeleteResult DeleteRec(PageId page, int level, const RecordT& rec,
                         std::vector<Orphan>* orphans) {
    std::vector<std::byte> buf(tree_->block_size());
    io_.Read(page, buf.data());
    NodeView<D> node(buf.data(), tree_->block_size());
    DeleteResult res;
    res.page = page;

    if (node.is_leaf()) {
      for (int i = 0; i < node.count(); ++i) {
        if (node.GetId(i) == rec.id && node.GetRect(i) == rec.rect) {
          node.RemoveSwap(i);
          res.page = io_.Write(page, buf.data());
          res.found = true;
          res.underflow = node.count() < min_entries_;
          res.mbr = node.ComputeMbr();
          return res;
        }
      }
      return res;
    }

    // Batched "which subtrees can hold this rectangle" test (one kernel
    // pass instead of count() scalar Contains); candidates are then tried
    // in entry order exactly as before.  The indices are materialised
    // before descending because the recursive call below reuses the
    // scanner's mask scratch.
    std::vector<int> candidates;
    ForEachSetBit(scan_.CoversMask(node, rec.rect),
                  RectMaskWords(node.count()),
                  [&](int i) { candidates.push_back(i); });
    for (int i : candidates) {
      PageId child = node.GetId(i);
      DeleteResult child_res = DeleteRec(child, level - 1, rec, orphans);
      if (!child_res.found) continue;
      if (child_res.underflow && level - 1 < tree_->height()) {
        // Condense: drop the child node, salvage its entries for
        // reinsertion at their level.  child_res.page holds the
        // post-delete node (a fresh shadow under copy-on-write, `child`
        // itself otherwise); the original was already retired by the
        // child's Write.
        CollectOrphans(child_res.page, orphans);
        node.RemoveSwap(i);
      } else {
        node.SetEntry(i, child_res.mbr, child_res.page);
      }
      res.page = io_.Write(page, buf.data());
      res.found = true;
      res.underflow = node.count() < min_entries_;
      res.mbr = node.ComputeMbr();
      return res;
    }
    return res;
  }

  /// Moves all entries of the subtree node `page` into the orphan list and
  /// releases the node block.
  void CollectOrphans(PageId page, std::vector<Orphan>* orphans) {
    std::vector<std::byte> buf(tree_->block_size());
    io_.Read(page, buf.data());
    NodeView<D> node(buf.data(), tree_->block_size());
    for (int i = 0; i < node.count(); ++i) {
      orphans->push_back(Orphan{node.GetRect(i), node.GetId(i),
                                node.level() == 0 ? 0 : node.level()});
    }
    io_.Release(page);
  }

  void ShrinkRoot() {
    std::vector<std::byte> buf(tree_->block_size());
    while (true) {
      if (tree_->empty()) return;
      io_.Read(tree_->root(), buf.data());
      NodeView<D> node(buf.data(), tree_->block_size());
      if (node.count() == 0) {
        // Fully drained (leaf root) or fully condensed (internal root whose
        // only child underflowed); orphan reinsertion rebuilds from empty.
        size_t size = tree_->size();
        io_.Release(tree_->root());
        tree_->SetRoot(kInvalidPageId, 0, size);
        return;
      }
      if (node.is_leaf() || node.count() > 1) return;
      PageId only_child = node.GetId(0);
      io_.Release(tree_->root());
      tree_->SetRoot(only_child, tree_->height() - 1, tree_->size());
    }
  }

  RTree<D>* tree_;
  SplitPolicy policy_;
  UpdaterIO<D> io_;
  NodeScanner<D> scan_;  // batched delete-descent tests (rtree/node_scan.h)
  size_t min_entries_;
};

}  // namespace prtree

#endif  // PRTREE_RTREE_UPDATE_H_
