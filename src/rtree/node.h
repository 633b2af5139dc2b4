// On-disk R-tree node layout (one block per node, §3.1).
//
// A node is exactly one device block: a 16-byte header followed by the
// entry area.  An entry is four coordinates (for D = 2) plus a 4-byte
// identifier — a child PageId in internal nodes, an opaque DataId in
// leaves.  Entry bytes per slot are 2·D·8 + 4 = 36 for D = 2, so with
// 4 KB blocks a node holds the paper's maximum fan-out of 113.
//
// Header:
//   offset 0  u32  magic "PRTN"
//   offset 4  u16  tree level (0 = leaf)
//   offset 6  u16  entry count
//   offset 8  u8   layout version: always 2
//   offset 9..15   zero
//
// The entry area is five contiguous runs (SoA), each sized to the node's
// *capacity* (not its count):
//   lo[0][cap] … lo[D-1][cap]  hi[0][cap] … hi[D-1][cap]   (doubles)
//   id[cap]                                                 (u32)
// For D = 2 that is xmin[113] ymin[113] xmax[113] ymax[113] id[113].
// The runs exist so the batched kernels in geom/rect_batch.h can test
// 4 (AVX2) / 2 (NEON) MBRs per lane straight off a pinned pool frame —
// see rtree/node_scan.h for the traversal-side wrapper and the dispatch
// policy (runtime CPU probe, PRTREE_NO_SIMD=1 / -DPRTREE_SIMD=OFF
// force scalar; results are bit-identical either way).
//
// The layout byte is kept so that files written by older releases are
// detected: those stored packed 36-byte AoS entries and carry 0 at
// offset 8 (v1).  CheckFormat rejects them with a Status that says to
// rebuild the index; there is no in-place migration.
//
// The runs do not naturally align inside the page, so scalar access goes
// through memcpy-based readers/writers (no UB; the compiler lowers them
// to plain loads/stores) and the batched kernels use unaligned loads.
//
// Two views exist over a block: NodeView (mutable, for builders and the
// update paths, over a caller-owned buffer) and ConstNodeView (read-only,
// what the query engine wraps directly over pinned BufferPool memory — the
// zero-copy read path).  Both are the same template; the mutators are
// compiled out of the const instantiation.

#ifndef PRTREE_RTREE_NODE_H_
#define PRTREE_RTREE_NODE_H_

#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

#include "geom/rect.h"
#include "io/block_device.h"
#include "util/check.h"
#include "util/status.h"

namespace prtree {

/// Byte offset of the first entry in a node block.
inline constexpr size_t kNodeHeaderSize = 16;

/// Magic tag marking a formatted R-tree node block.
inline constexpr uint32_t kNodeMagic = 0x5052544Eu;  // "PRTN"

/// Byte offset of the layout-version byte inside the header.
inline constexpr size_t kNodeLayoutOffset = 8;

/// The layout-version byte every node carries (the SoA runs described
/// above).  Older files carry 0 (packed AoS), which is rejected.
inline constexpr uint8_t kNodeLayoutVersion = 2;

/// Size in bytes of one node entry for dimension D (its share of the
/// lo/hi/id runs).
template <int D>
constexpr size_t NodeEntrySize() {
  return 2 * D * sizeof(Real) + sizeof(uint32_t);
}

/// Maximum number of entries (fan-out) for dimension D and a given block
/// size.  113 for D = 2 with 4 KB blocks, matching §3.1.
template <int D>
constexpr size_t NodeCapacity(size_t block_size) {
  return (block_size - kNodeHeaderSize) / NodeEntrySize<D>();
}

/// \brief View over one node block in caller- or pool-owned memory.
///
/// The view does not own the buffer and performs no I/O.  Mutable views
/// wrap private buffers (callers read the block, wrap it, edit, and write
/// it back); const views may wrap shared pinned pool frames.
template <int D, bool Mutable>
class BasicNodeView {
 public:
  using BytePtr = std::conditional_t<Mutable, std::byte*, const std::byte*>;
  using RealPtr = std::conditional_t<Mutable, Real*, const Real*>;

  /// Wraps `block` (block_size bytes).  Does not validate; bytes read
  /// from a device must pass CheckFormat before any entry is touched.
  BasicNodeView(BytePtr block, size_t block_size)
      : block_(block), block_size_(block_size),
        capacity_(NodeCapacity<D>(block_size)) {}

  /// Initialises an empty node at the given tree level (0 = leaf).
  ///
  /// Zeroes the whole block past the magic/level/count words, not just
  /// the header: node buffers are reused across flushes (NodeWriter) and
  /// across serial/parallel serialization paths, and the bulk-load
  /// determinism contract compares node blocks byte for byte — the
  /// capacity-sized run tails past count and the slack between the entry
  /// area and the end of the block must all hold deterministic zeros,
  /// never a previous node's stale bytes.
  void Format(uint16_t level)
    requires Mutable
  {
    WriteU32(0, kNodeMagic);
    WriteU16(4, level);
    WriteU16(6, 0);  // count
    std::memset(block_ + kNodeLayoutOffset, 0,
                block_size_ - kNodeLayoutOffset);
    block_[kNodeLayoutOffset] = static_cast<std::byte>(kNodeLayoutVersion);
  }

  /// \brief The one parse check for node bytes read from a device or a
  /// file: OK if the block carries the node magic, the current layout
  /// version and a count within capacity; Corruption naming the first
  /// failure otherwise.  A v1 (AoS) block gets a reason that says to
  /// rebuild.  The count bound is what keeps GetRect/GetId inside the
  /// block on hostile input.
  Status CheckFormat() const {
    if (ReadU32(0) != kNodeMagic) {
      return Status::Corruption("not a formatted node");
    }
    const uint8_t version = static_cast<uint8_t>(block_[kNodeLayoutOffset]);
    if (version == 0) {
      return Status::Corruption(
          "node layout v1 (AoS) is no longer supported; rebuild the index");
    }
    if (version != kNodeLayoutVersion) {
      return Status::Corruption("unknown node layout version " +
                                std::to_string(version));
    }
    if (count() > capacity_) {
      return Status::Corruption("node count " + std::to_string(count()) +
                                " exceeds capacity " +
                                std::to_string(capacity_));
    }
    return Status::OK();
  }

  /// Tree level of this node; leaves are level 0.
  uint16_t level() const { return ReadU16(4); }
  bool is_leaf() const { return level() == 0; }

  uint16_t count() const { return ReadU16(6); }
  void set_count(uint16_t c)
    requires Mutable
  {
    PRTREE_DCHECK(c <= capacity_);
    WriteU16(6, c);
  }

  size_t capacity() const { return capacity_; }
  bool full() const { return count() >= capacity_; }

  /// Bounding rectangle of entry `i`.
  Rect<D> GetRect(int i) const {
    PRTREE_DCHECK(i >= 0 && i < count());
    Rect<D> r;
    for (int d = 0; d < D; ++d) {
      std::memcpy(&r.lo[d], CoordPtr(d, i), sizeof(Real));
      std::memcpy(&r.hi[d], CoordPtr(D + d, i), sizeof(Real));
    }
    return r;
  }

  /// Child PageId (internal node) or DataId (leaf) of entry `i`.
  uint32_t GetId(int i) const {
    PRTREE_DCHECK(i >= 0 && i < count());
    uint32_t id;
    std::memcpy(&id, IdBase() + static_cast<size_t>(i) * sizeof(uint32_t),
                sizeof(id));
    return id;
  }

  /// Overwrites entry `i`.
  void SetEntry(int i, const Rect<D>& r, uint32_t id)
    requires Mutable
  {
    PRTREE_DCHECK(i >= 0 && i < static_cast<int>(capacity_));
    for (int d = 0; d < D; ++d) {
      std::memcpy(CoordPtr(d, i), &r.lo[d], sizeof(Real));
      std::memcpy(CoordPtr(D + d, i), &r.hi[d], sizeof(Real));
    }
    std::memcpy(IdBase() + static_cast<size_t>(i) * sizeof(uint32_t), &id,
                sizeof(id));
  }

  /// Appends an entry; requires !full().
  void Append(const Rect<D>& r, uint32_t id)
    requires Mutable
  {
    uint16_t c = count();
    PRTREE_CHECK(c < capacity_);
    SetEntry(c, r, id);
    set_count(c + 1);
  }

  /// Removes entry `i` by swapping the last entry into its slot.
  ///
  /// The vacated last slot is re-zeroed so partial nodes keep the
  /// deterministic zeroed-tail contract after deletes, matching what
  /// Format + count Appends would have produced.
  void RemoveSwap(int i)
    requires Mutable
  {
    uint16_t c = count();
    PRTREE_DCHECK(i >= 0 && i < c);
    if (i != c - 1) SetEntry(i, GetRect(c - 1), GetId(c - 1));
    SetEntry(c - 1, Rect<D>{}, 0);
    set_count(c - 1);
  }

  /// Minimal bounding rectangle over all entries (Empty() if none).
  Rect<D> ComputeMbr() const {
    Rect<D> mbr = Rect<D>::Empty();
    for (int i = 0; i < count(); ++i) mbr.ExtendToCover(GetRect(i));
    return mbr;
  }

  /// Start of coordinate run k: runs 0..D-1 are lo[0..D-1], runs D..2D-1
  /// are hi[0..D-1].  For D = 2: 0 = xmin, 1 = ymin, 2 = xmax, 3 = ymax.
  ///
  /// Run pointers are NOT suitably aligned for Real in general (the header
  /// is 16 bytes but the block base can be anything) — hand them only to
  /// consumers that load unaligned, i.e. the rect_batch kernels.
  RealPtr CoordRun(int k) const {
    PRTREE_DCHECK(k >= 0 && k < 2 * D);
    return reinterpret_cast<RealPtr>(block_ + kNodeHeaderSize +
                                     static_cast<size_t>(k) * capacity_ *
                                         sizeof(Real));
  }

 private:
  // Byte address of coordinate run k, element i.
  BytePtr CoordPtr(int k, int i) const {
    return block_ + kNodeHeaderSize +
           (static_cast<size_t>(k) * capacity_ + static_cast<size_t>(i)) *
               sizeof(Real);
  }

  // Start of the id run: after the 2·D coordinate runs.
  BytePtr IdBase() const {
    return block_ + kNodeHeaderSize + 2 * D * capacity_ * sizeof(Real);
  }

  uint32_t ReadU32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, block_ + off, sizeof(v));
    return v;
  }
  uint16_t ReadU16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, block_ + off, sizeof(v));
    return v;
  }
  void WriteU32(size_t off, uint32_t v)
    requires Mutable
  {
    std::memcpy(block_ + off, &v, sizeof(v));
  }
  void WriteU16(size_t off, uint16_t v)
    requires Mutable
  {
    std::memcpy(block_ + off, &v, sizeof(v));
  }

  BytePtr block_;
  size_t block_size_;
  size_t capacity_;
};

/// Mutable view over a caller-owned buffer (builders, update paths).
template <int D>
using NodeView = BasicNodeView<D, true>;

/// Read-only view, safe over shared pinned pool memory (query paths).
template <int D>
using ConstNodeView = BasicNodeView<D, false>;

}  // namespace prtree

#endif  // PRTREE_RTREE_NODE_H_
