#include "buf/chain.h"

#include <cassert>

namespace ngp::buf {

void BufChain::trim_front(std::size_t n) {
  assert(n <= size_);
  size_ -= n;
  std::size_t drop = 0;
  while (n > 0) {
    Slice& s = segs_[drop];
    if (s.len <= n) {
      n -= s.len;
      ++drop;
    } else {
      s.off += static_cast<std::uint32_t>(n);
      s.len -= static_cast<std::uint32_t>(n);
      n = 0;
    }
  }
  if (drop > 0) segs_.erase(segs_.begin(), segs_.begin() + drop);
}

void BufChain::trim_back(std::size_t n) {
  assert(n <= size_);
  size_ -= n;
  while (n > 0) {
    Slice& s = segs_.back();
    if (s.len <= n) {
      n -= s.len;
      segs_.pop_back();
    } else {
      s.len -= static_cast<std::uint32_t>(n);
      n = 0;
    }
  }
}

BufChain BufChain::split(std::size_t at) {
  assert(at <= size_);
  BufChain head;
  std::size_t need = at;
  std::size_t i = 0;
  while (need > 0) {
    Slice& s = segs_[i];
    if (s.len <= need) {
      need -= s.len;
      head.append(std::move(s));
      ++i;
    } else {
      // Straddling segment: both chains reference it, no bytes move.
      head.append(s.sub(0, need));
      s.off += static_cast<std::uint32_t>(need);
      s.len -= static_cast<std::uint32_t>(need);
      need = 0;
    }
  }
  if (i > 0) segs_.erase(segs_.begin(), segs_.begin() + i);
  size_ -= at;
  return head;
}

void BufChain::copy_out(MutableBytes dst) const {
  assert(dst.size() >= size_);
  std::size_t off = 0;
  for (const Slice& s : segs_) {
    copy_bytes(dst.data() + off, s.bytes().data(), s.len);
    off += s.len;
  }
}

void BufChain::read(std::size_t pos, MutableBytes out) const {
  assert(pos + out.size() <= size_);
  std::size_t want = out.size();
  std::size_t written = 0;
  std::size_t seg_start = 0;
  for (const Slice& s : segs_) {
    const std::size_t seg_end = seg_start + s.len;
    if (want == 0) break;
    if (seg_end > pos) {
      const std::size_t from = pos > seg_start ? pos - seg_start : 0;
      const std::size_t take = std::min(want, s.len - from);
      copy_bytes(out.data() + written, s.bytes().data() + from, take);
      written += take;
      pos += take;
      want -= take;
    }
    seg_start = seg_end;
  }
  assert(want == 0);
}

ByteBuffer BufChain::flatten() const {
  ByteBuffer out(size_);
  copy_out(out.span());
  return out;
}

}  // namespace ngp::buf
