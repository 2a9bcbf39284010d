// xdr.h — Sun External Data Representation (RFC 1014).
//
// XDR is the paper's second named transfer syntax (ref [16]); it is the
// syntax the RPC example uses for argument marshalling. Everything is
// big-endian and padded to 4-byte multiples. Unlike BER there are no tags
// or lengths on fixed-size items, so the integer-array fast paths reduce to
// a byteswap loop — which is exactly what makes XDR fusable into the ILP
// receive pipeline (Byteswap32Stage).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace ngp::xdr {

/// Serializes XDR items into a ByteBuffer.
class XdrWriter {
 public:
  explicit XdrWriter(ByteBuffer& out) : out_(out) {}

  void put_int(std::int32_t v) { put_uint(static_cast<std::uint32_t>(v)); }
  void put_uint(std::uint32_t v);
  void put_hyper(std::int64_t v) { put_uhyper(static_cast<std::uint64_t>(v)); }
  void put_uhyper(std::uint64_t v);
  void put_bool(bool v) { put_uint(v ? 1 : 0); }
  void put_float(float v);
  void put_double(double v);

  /// Fixed-length opaque: bytes + zero pad to 4.
  void put_opaque_fixed(ConstBytes data);
  /// Variable-length opaque: u32 length + bytes + pad.
  void put_opaque(ConstBytes data);
  /// String: same wire form as variable opaque.
  void put_string(std::string_view s);

  /// Variable-length array of int: u32 count + ints (fast path).
  void put_int_array(std::span<const std::int32_t> values);

 private:
  ByteBuffer& out_;
};

/// Deserializes XDR items.
class XdrReader {
 public:
  explicit XdrReader(ConstBytes in) : in_(in) {}

  Result<std::int32_t> get_int();
  Result<std::uint32_t> get_uint();
  Result<std::int64_t> get_hyper();
  Result<std::uint64_t> get_uhyper();
  Result<bool> get_bool();
  Result<float> get_float();
  Result<double> get_double();
  Result<ByteBuffer> get_opaque();               ///< variable-length
  Result<ConstBytes> get_opaque_view();          ///< variable-length, zero-copy
  Result<std::string> get_string();
  Result<std::vector<std::int32_t>> get_int_array();

  std::size_t remaining() const noexcept { return in_.size() - pos_; }
  bool at_end() const noexcept { return pos_ >= in_.size(); }

 private:
  Result<ConstBytes> take(std::size_t n);

  ConstBytes in_;
  std::size_t pos_ = 0;
};

/// Padding needed to reach a 4-byte boundary.
constexpr std::size_t pad4(std::size_t n) noexcept { return (4 - (n % 4)) % 4; }

// ---- Array fast paths (single pre-sized pass; fusable shape) --------------

/// Encodes count-prefixed big-endian int array in one pass.
ByteBuffer encode_int_array(std::span<const std::int32_t> values);

/// Zero-allocation variant: reuses `out`'s storage.
void encode_int_array_into(std::span<const std::int32_t> values, ByteBuffer& out);

/// Decodes the array; the inner loop is a byteswap over a contiguous run.
Result<std::vector<std::int32_t>> decode_int_array(ConstBytes data);

}  // namespace ngp::xdr
