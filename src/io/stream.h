// Blocked sequential record streams — the library's equivalent of TPIE
// streams (§3.1 [3]).
//
// A Stream<T> is a growable sequence of trivially-copyable records stored in
// whole device blocks.  All bulk-loading algorithms consume and produce
// streams, so their I/O cost is measured by the device counters rather than
// modelled.
//
// Writes go through a WriteStager: full blocks are staged in allocation
// order and drained as WriteBatch() submissions (one io_uring syscall for a
// ring-depth train on the uring backend; a transparent passthrough
// everywhere else).  Flush() — which every read path calls first — drains
// the stager, so the write-then-read discipline callers already follow is
// exactly the drain discipline staging needs, and the device file a stream
// produces is byte-identical to the scalar-write days.

#ifndef PRTREE_IO_STREAM_H_
#define PRTREE_IO_STREAM_H_

#include <cstring>
#include <type_traits>
#include <vector>

#include "io/block_device.h"
#include "io/write_stager.h"
#include "util/check.h"

namespace prtree {

/// \brief A sequence of POD records packed into device blocks.
///
/// The stream owns its blocks and frees them on destruction, so device
/// occupancy accounting (peak_allocated) reflects live data.  Writing is
/// append-only through a one-block buffer; reading is sequential or by
/// explicit record range.
template <typename T>
class Stream {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "stream records must be trivially copyable");

  explicit Stream(BlockDevice* device)
      : device_(device),
        per_block_(device->block_size() / sizeof(T)),
        write_buf_(device->block_size()),
        stager_(device) {
    PRTREE_CHECK(per_block_ >= 1);
  }

  ~Stream() { FreeBlocks(); }

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Stream(Stream&& o) noexcept
      : device_(o.device_),
        per_block_(o.per_block_),
        pages_(std::move(o.pages_)),
        size_(o.size_),
        buffered_(o.buffered_),
        write_buf_(std::move(o.write_buf_)),
        stager_(std::move(o.stager_)),
        sealed_(o.sealed_) {
    o.pages_.clear();
    o.size_ = 0;
    o.buffered_ = 0;
    o.sealed_ = false;
  }

  Stream& operator=(Stream&& o) noexcept {
    if (this != &o) {
      FreeBlocks();
      device_ = o.device_;
      per_block_ = o.per_block_;
      pages_ = std::move(o.pages_);
      size_ = o.size_;
      buffered_ = o.buffered_;
      write_buf_ = std::move(o.write_buf_);
      stager_ = std::move(o.stager_);
      sealed_ = o.sealed_;
      o.pages_.clear();
      o.size_ = 0;
      o.buffered_ = 0;
      o.sealed_ = false;
    }
    return *this;
  }

  BlockDevice* device() const { return device_; }

  /// Total number of records in the stream (flushed + buffered).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Records per device block.
  size_t records_per_block() const { return per_block_; }

  /// Number of device blocks the stream occupies once flushed.
  size_t num_blocks() const { return (size_ + per_block_ - 1) / per_block_; }

  /// Appends one record, costing a device write every records_per_block()
  /// appends.  Appending after a partial-tail Flush() is a usage error (the
  /// stream's block-contiguous record indexing would break), so streams
  /// follow a write-then-read discipline.
  void Push(const T& value) {
    PRTREE_CHECK(!sealed_);
    std::memcpy(write_buf_.data() + buffered_ * sizeof(T), &value, sizeof(T));
    ++buffered_;
    ++size_;
    if (buffered_ == per_block_) FlushBuffer();
  }

  /// Appends a batch of records.
  void Append(const T* values, size_t n) {
    for (size_t i = 0; i < n; ++i) Push(values[i]);
  }
  void Append(const std::vector<T>& values) {
    Append(values.data(), values.size());
  }

  /// Flushes any partially filled tail block and drains every staged block
  /// to the device.  Idempotent; called automatically by readers — which is
  /// what makes staging invisible: no record is readable before Flush(),
  /// and after Flush() every one of the stream's blocks is on the device.
  /// Flushing a partial tail seals the stream against further appends.
  void Flush() {
    if (buffered_ > 0) {
      if (buffered_ < per_block_) sealed_ = true;
      FlushBuffer();
    }
    stager_.DrainAndRelease();
  }

  /// Reads records [first, first + count) into `out` (resized).  Costs one
  /// device read per distinct block touched.
  void ReadRange(size_t first, size_t count, std::vector<T>* out) {
    Flush();
    PRTREE_CHECK(first + count <= size_);
    out->resize(count);
    if (count == 0) return;
    std::vector<std::byte> buf(device_->block_size());
    size_t out_idx = 0;
    size_t block = first / per_block_;
    size_t offset = first % per_block_;
    while (out_idx < count) {
      AbortIfError(device_->Read(pages_[block], buf.data()));
      size_t take = std::min(per_block_ - offset, count - out_idx);
      std::memcpy(&(*out)[out_idx], buf.data() + offset * sizeof(T),
                  take * sizeof(T));
      out_idx += take;
      ++block;
      offset = 0;
    }
  }

  /// Reads the whole stream into `out`.
  void ReadAll(std::vector<T>* out) { ReadRange(0, size_, out); }

  /// Drops all records and frees the underlying blocks.
  void Clear() {
    FreeBlocks();
    pages_.clear();
    size_ = 0;
    buffered_ = 0;
    sealed_ = false;
  }

  /// \brief Sequential reader over a record range of a stream.
  ///
  /// Holds one block in memory at a time and the decoded current record.
  /// The first Peek() inside a block costs one device read; a repeated
  /// Peek() before Next() costs a flag test, so merge comparators may call
  /// it freely.
  class Reader {
   public:
    /// Reader over [first, first + count).
    Reader(Stream* stream, size_t first, size_t count)
        : stream_(stream),
          block_(first / stream->per_block_),
          offset_(first % stream->per_block_),
          remaining_(count),
          buf_(stream->device_->block_size()) {
      stream_->Flush();
      PRTREE_CHECK(first + count <= stream_->size_);
    }

    /// Reader over the whole stream.
    explicit Reader(Stream* stream) : Reader(stream, 0, stream->size()) {}

    bool Done() const { return remaining_ == 0; }

    /// Current record; requires !Done().
    const T& Peek() {
      PRTREE_DCHECK(!Done());
      if (!decoded_) Decode();
      return current_;
    }

    /// Returns the current record and advances.
    T Next() {
      T v = Peek();
      decoded_ = false;
      --remaining_;
      if (++offset_ == stream_->per_block_) {
        offset_ = 0;
        ++block_;
        loaded_ = false;
      }
      return v;
    }

   private:
    void Decode() {
      if (!loaded_) {
        AbortIfError(
            stream_->device_->Read(stream_->pages_[block_], buf_.data()));
        loaded_ = true;
      }
      std::memcpy(&current_, buf_.data() + offset_ * sizeof(T), sizeof(T));
      decoded_ = true;
    }

    Stream* stream_;
    size_t block_;      // block holding the current record
    size_t offset_;     // the current record's index within block_
    size_t remaining_;  // records left in the range, current included
    std::vector<std::byte> buf_;
    bool loaded_ = false;   // buf_ holds block_
    bool decoded_ = false;  // current_ holds the current record
    T current_{};
  };

 private:
  void FlushBuffer() {
    PageId page = device_->Allocate();
    stager_.Stage(page, write_buf_.data());
    pages_.push_back(page);
    buffered_ = 0;
    std::memset(write_buf_.data(), 0, write_buf_.size());
  }

  void FreeBlocks() {
    // Drain first: a staged write landing after Free() would overwrite the
    // free-list stamp — and the write counters must not depend on whether a
    // block happened to still be staged when the stream died.
    stager_.Drain();
    for (PageId p : pages_) device_->Free(p);
  }

  BlockDevice* device_;
  size_t per_block_;
  std::vector<PageId> pages_;
  size_t size_ = 0;
  size_t buffered_ = 0;
  std::vector<std::byte> write_buf_;
  WriteStager stager_;
  bool sealed_ = false;
};

}  // namespace prtree

#endif  // PRTREE_IO_STREAM_H_
