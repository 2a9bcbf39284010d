// bytes.h — owning byte buffers and big-endian wire readers/writers.
//
// Every protocol module in ngp works over contiguous byte ranges. This file
// provides the one owning buffer type used throughout (ByteBuffer, aligned
// for word-oriented ILP loops), plus the big-endian serialization helpers
// (WireWriter into a pre-sized frame, the bounds-checked WireReader) used by
// every header codec in the suite.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ngp {

/// Read-only view of bytes. Non-owning; caller guarantees lifetime.
using ConstBytes = std::span<const std::uint8_t>;
/// Mutable view of bytes. Non-owning; caller guarantees lifetime.
using MutableBytes = std::span<std::uint8_t>;

/// Owning, word-aligned byte buffer.
///
/// The ILP fused loops (src/ilp) process data in 8-byte words; buffers
/// allocated through ByteBuffer are guaranteed 64-byte aligned so that the
/// word loops never straddle a cache line at the start and the benches
/// measure loop cost, not misalignment penalties.
class ByteBuffer {
 public:
  ByteBuffer() = default;

  /// Creates a zero-initialized buffer of `size` bytes.
  explicit ByteBuffer(std::size_t size) : data_(size, std::uint8_t{0}) {}

  /// Creates a buffer holding a copy of `bytes`.
  explicit ByteBuffer(ConstBytes bytes) : data_(bytes.begin(), bytes.end()) {}

  /// Creates a buffer from a string's bytes (no terminator).
  static ByteBuffer from_string(std::string_view s);

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  std::uint8_t* data() noexcept { return data_.data(); }
  const std::uint8_t* data() const noexcept { return data_.data(); }

  std::uint8_t& operator[](std::size_t i) { return data_[i]; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  MutableBytes span() noexcept { return {data_.data(), data_.size()}; }
  ConstBytes span() const noexcept { return {data_.data(), data_.size()}; }

  /// Subview [offset, offset+len); clamps to the buffer end.
  ConstBytes subspan(std::size_t offset, std::size_t len) const;

  void resize(std::size_t n) { data_.resize(n, std::uint8_t{0}); }
  void clear() noexcept { data_.clear(); }
  void append(ConstBytes bytes) { data_.insert(data_.end(), bytes.begin(), bytes.end()); }
  void append(std::uint8_t b) { data_.push_back(b); }

  bool operator==(const ByteBuffer& other) const noexcept = default;

 private:
  // 64-byte-aligned allocator so word loops start cache-line aligned.
  template <typename T>
  struct AlignedAlloc {
    using value_type = T;
    AlignedAlloc() = default;
    template <typename U>
    AlignedAlloc(const AlignedAlloc<U>&) noexcept {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) noexcept {
      ::operator delete(p, std::align_val_t{64});
    }
    bool operator==(const AlignedAlloc&) const noexcept { return true; }
  };

  std::vector<std::uint8_t, AlignedAlloc<std::uint8_t>> data_;
};

/// Renders bytes as lowercase hex ("deadbeef"). For logs and test failures.
std::string to_hex(ConstBytes bytes);

/// Parses lowercase/uppercase hex into bytes. Returns empty on bad input.
ByteBuffer from_hex(std::string_view hex);

/// memcpy that tolerates empty ranges (whose data() may be null — passing
/// null to memcpy is UB even for n == 0).
inline void copy_bytes(void* dst, const void* src, std::size_t n) noexcept {
  if (n != 0) std::memcpy(dst, src, n);
}

/// Big-endian writer used by all ngp header codecs.
///
/// It writes at a cursor into a buffer the caller sized for the whole
/// frame first, so encoding a frame costs at most one allocation, and none
/// when the caller supplies the bytes. Writing past the end is a program
/// bug, asserted in debug builds: every codec computes its frame's exact
/// length up front.
///
/// Network byte order (big-endian) throughout, matching the conventions the
/// paper's protocols (TCP, BER, XDR) use on the wire.
class WireWriter {
 public:
  explicit WireWriter(MutableBytes out) noexcept : out_(out) {}

  void u8(std::uint8_t v) noexcept { *take(1) = v; }
  void u16(std::uint16_t v) noexcept {
    std::uint8_t* p = take(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) noexcept {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) noexcept {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(ConstBytes b) noexcept { copy_bytes(take(b.size()), b.data(), b.size()); }

  std::size_t written() const noexcept { return pos_; }

 private:
  std::uint8_t* take(std::size_t n) noexcept {
    assert(n <= out_.size() - pos_ && "frame sized too small");
    std::uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }

  MutableBytes out_;
  std::size_t pos_ = 0;
};

/// Bounds-safe big-endian reader. All reads report success; a failed read
/// leaves the cursor unchanged and returns false, so callers can reject
/// truncated headers without exceptions on the datapath.
class WireReader {
 public:
  explicit WireReader(ConstBytes in) : in_(in) {}

  bool u8(std::uint8_t& v) noexcept {
    if (remaining() < 1) return false;
    v = in_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) noexcept {
    if (remaining() < 2) return false;
    v = static_cast<std::uint16_t>((std::uint16_t{in_[pos_]} << 8) | in_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) noexcept {
    std::uint16_t hi = 0, lo = 0;
    if (remaining() < 4) return false;
    u16(hi);
    u16(lo);
    v = (std::uint32_t{hi} << 16) | lo;
    return true;
  }
  bool u64(std::uint64_t& v) noexcept {
    std::uint32_t hi = 0, lo = 0;
    if (remaining() < 8) return false;
    u32(hi);
    u32(lo);
    v = (std::uint64_t{hi} << 32) | lo;
    return true;
  }
  /// Reads `n` bytes as a view into the underlying input.
  bool bytes(std::size_t n, ConstBytes& out) noexcept {
    if (remaining() < n) return false;
    out = in_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const noexcept { return in_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  ConstBytes rest() const noexcept { return in_.subspan(pos_); }

 private:
  ConstBytes in_;
  std::size_t pos_ = 0;
};

/// Host-endianness helpers for the presentation codecs.
inline std::uint32_t byteswap32(std::uint32_t v) noexcept {
  return __builtin_bswap32(v);
}
inline std::uint64_t byteswap64(std::uint64_t v) noexcept {
  return __builtin_bswap64(v);
}

/// Loads/stores that never violate alignment (compile to single moves).
inline std::uint32_t load_u32_be(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return byteswap32(v);  // hosts we target are little-endian
}
inline void store_u32_be(std::uint8_t* p, std::uint32_t v) noexcept {
  v = byteswap32(v);
  std::memcpy(p, &v, 4);
}
inline std::uint64_t load_u64_le(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline void store_u64_le(std::uint8_t* p, std::uint64_t v) noexcept {
  std::memcpy(p, &v, 8);
}

}  // namespace ngp
