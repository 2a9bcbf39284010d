// chain.h — mbuf/nbuf-style scatter-gather ADU chains (ngp::buf).
//
// A BufChain is an ordered iovec of pool-backed slices: the receive path's
// replacement for the flat reassembly buffer. Fragments arrive in pool
// segments; the reassembler LINKS a slice of each segment into the ADU's
// chain instead of copying bytes into place, and the manipulation pass
// (checksum/decrypt) walks the gather view segment by segment — the bytes
// are touched once, where the NIC (here: the simulated link) put them.
//
// Ownership rules (DESIGN.md §12):
//   * a Slice holds one reference to its segment; copying a Slice adds a
//     reference, destroying one drops it — the pool recycles on the last;
//   * a chain OWNS its bytes logically even when a transient extra segment
//     reference exists (the ingress frame guard during the handler call):
//     the residual holder never reads the span again, so in-place
//     manipulation by the chain is safe;
//   * headroom (expand_front) may only grow into
//     segment capacity the slice's creator reserved for it — the pool
//     never zeroes recycled segments, so fresh room holds stale bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "buf/pool.h"
#include "util/bytes.h"

namespace ngp::buf {

/// A referenced byte range inside one pool segment.
struct Slice {
  BufRef ref;
  std::uint32_t off = 0;  ///< start within the segment
  std::uint32_t len = 0;  ///< bytes this slice covers

  Slice() = default;
  Slice(BufRef r, std::size_t o, std::size_t n) noexcept
      : ref(std::move(r)), off(static_cast<std::uint32_t>(o)),
        len(static_cast<std::uint32_t>(n)) {}

  /// A whole-segment slice with `headroom` bytes reserved in front.
  static Slice with_headroom(BufRef r, std::size_t headroom, std::size_t n) {
    return Slice{std::move(r), headroom, n};
  }

  bool empty() const noexcept { return len == 0; }

  ConstBytes bytes() const noexcept {
    return ConstBytes{ref.data() + off, len};
  }
  MutableBytes mutable_bytes() const noexcept {
    return MutableBytes{ref.data() + off, len};
  }

  std::size_t headroom() const noexcept { return off; }
  std::size_t trailroom() const noexcept {
    return ref ? ref.capacity() - off - len : 0;
  }

  /// Grows the slice frontward into its headroom (prepending a header
  /// without a copy). Requires n <= headroom().
  void expand_front(std::size_t n) noexcept {
    off -= static_cast<std::uint32_t>(n);
    len += static_cast<std::uint32_t>(n);
  }

  /// Sub-slice [pos, pos+n) sharing the same segment reference.
  Slice sub(std::size_t pos, std::size_t n) const {
    return Slice{ref, off + pos, n};
  }
};

/// Ordered slices forming one logical byte string.
class BufChain {
 public:
  BufChain() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t segment_count() const noexcept { return segs_.size(); }
  const Slice& segment(std::size_t i) const { return segs_.at(i); }
  Slice& segment(std::size_t i) { return segs_.at(i); }

  void clear() noexcept {
    segs_.clear();
    size_ = 0;
  }

  /// Makes room for `n` slices, so appending that many allocates once.
  void reserve(std::size_t n) { segs_.reserve(n); }

  /// Appends a slice at the tail. Empty slices are dropped; a slice that
  /// continues the previous one inside the same segment is coalesced so
  /// fragment-sized arrivals don't balloon the iovec.
  void append(Slice s) {
    if (s.len == 0) return;
    size_ += s.len;
    if (!segs_.empty()) {
      Slice& back = segs_.back();
      if (back.ref.data() == s.ref.data() && back.off + back.len == s.off) {
        back.len += s.len;
        return;
      }
    }
    segs_.push_back(std::move(s));
  }

  /// Appends another chain's slices (consumed).
  void append(BufChain&& o) {
    for (Slice& s : o.segs_) append(std::move(s));
    o.clear();
  }

  /// Prepends a slice at the head.
  void prepend(Slice s) {
    if (s.len == 0) return;
    size_ += s.len;
    segs_.insert(segs_.begin(), std::move(s));
  }

  /// Drops the first n bytes (n <= size()).
  void trim_front(std::size_t n);
  /// Drops the last n bytes (n <= size()).
  void trim_back(std::size_t n);

  /// Splits off and returns the first `at` bytes; this chain keeps the
  /// rest. A segment straddling the cut is shared (two slices, one ref
  /// each) — no bytes move.
  BufChain split(std::size_t at);

  /// Calls fn(ConstBytes) for each slice in order — the gather view the
  /// fused kernels iterate without materializing a flat buffer.
  template <typename F>
  void for_each(F&& fn) const {
    for (const Slice& s : segs_) fn(s.bytes());
  }
  /// Mutable gather view (in-place decrypt).
  template <typename F>
  void for_each_mutable(F&& fn) {
    for (Slice& s : segs_) fn(s.mutable_bytes());
  }

  /// Copies the chain's bytes into `dst` (dst.size() >= size()). One store
  /// pass; the CALLER charges the ledger (kernel discipline).
  void copy_out(MutableBytes dst) const;

  /// Reads [pos, pos+out.size()) into `out` (a ranged copy_out).
  void read(std::size_t pos, MutableBytes out) const;

  /// Flattens into a fresh owned buffer (the compatibility bridge to
  /// flat-buffer consumers). One load+store pass, caller charges.
  ByteBuffer flatten() const;

 private:
  std::vector<Slice> segs_;
  std::size_t size_ = 0;
};

}  // namespace ngp::buf
