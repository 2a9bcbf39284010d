#include "presentation/xdr.h"

#include <bit>
#include <cstring>

namespace ngp::xdr {

void XdrWriter::put_uint(std::uint32_t v) {
  const std::size_t off = out_.size();
  out_.resize(off + 4);
  store_u32_be(out_.data() + off, v);
}

void XdrWriter::put_uhyper(std::uint64_t v) {
  put_uint(static_cast<std::uint32_t>(v >> 32));
  put_uint(static_cast<std::uint32_t>(v));
}

void XdrWriter::put_float(float v) {
  static_assert(sizeof(float) == 4);
  put_uint(std::bit_cast<std::uint32_t>(v));
}

void XdrWriter::put_double(double v) {
  static_assert(sizeof(double) == 8);
  put_uhyper(std::bit_cast<std::uint64_t>(v));
}

void XdrWriter::put_opaque_fixed(ConstBytes data) {
  out_.append(data);
  for (std::size_t i = 0; i < pad4(data.size()); ++i) out_.append(std::uint8_t{0});
}

void XdrWriter::put_opaque(ConstBytes data) {
  put_uint(static_cast<std::uint32_t>(data.size()));
  put_opaque_fixed(data);
}

void XdrWriter::put_string(std::string_view s) {
  put_opaque({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void XdrWriter::put_int_array(std::span<const std::int32_t> values) {
  put_uint(static_cast<std::uint32_t>(values.size()));
  const std::size_t off = out_.size();
  out_.resize(off + values.size() * 4);
  std::uint8_t* p = out_.data() + off;
  for (std::int32_t v : values) {
    store_u32_be(p, static_cast<std::uint32_t>(v));
    p += 4;
  }
}

Result<ConstBytes> XdrReader::take(std::size_t n) {
  if (in_.size() - pos_ < n) return Error{ErrorCode::kTruncated, "XDR item"};
  ConstBytes view = in_.subspan(pos_, n);
  pos_ += n;
  return view;
}

Result<std::uint32_t> XdrReader::get_uint() {
  auto v = take(4);
  if (!v) return v.error();
  return load_u32_be(v->data());
}

Result<std::int32_t> XdrReader::get_int() {
  auto v = get_uint();
  if (!v) return v.error();
  return static_cast<std::int32_t>(*v);
}

Result<std::uint64_t> XdrReader::get_uhyper() {
  auto hi = get_uint();
  if (!hi) return hi.error();
  auto lo = get_uint();
  if (!lo) return lo.error();
  return (std::uint64_t{*hi} << 32) | *lo;
}

Result<std::int64_t> XdrReader::get_hyper() {
  auto v = get_uhyper();
  if (!v) return v.error();
  return static_cast<std::int64_t>(*v);
}

Result<bool> XdrReader::get_bool() {
  auto v = get_uint();
  if (!v) return v.error();
  if (*v > 1) return Error{ErrorCode::kMalformed, "bool not 0/1"};
  return *v == 1;
}

Result<float> XdrReader::get_float() {
  auto v = get_uint();
  if (!v) return v.error();
  return std::bit_cast<float>(*v);
}

Result<double> XdrReader::get_double() {
  auto v = get_uhyper();
  if (!v) return v.error();
  return std::bit_cast<double>(*v);
}

Result<ConstBytes> XdrReader::get_opaque_view() {
  auto len = get_uint();
  if (!len) return len.error();
  auto body = take(*len);
  if (!body) return body.error();
  auto pad = take(pad4(*len));
  if (!pad) return pad.error();
  return *body;
}

Result<ByteBuffer> XdrReader::get_opaque() {
  auto view = get_opaque_view();
  if (!view) return view.error();
  return ByteBuffer(*view);
}

Result<std::string> XdrReader::get_string() {
  auto view = get_opaque_view();
  if (!view) return view.error();
  return std::string(reinterpret_cast<const char*>(view->data()), view->size());
}

Result<std::vector<std::int32_t>> XdrReader::get_int_array() {
  auto count = get_uint();
  if (!count) return count.error();
  auto body = take(std::size_t{*count} * 4);
  if (!body) return body.error();
  std::vector<std::int32_t> out(*count);
  const std::uint8_t* p = body->data();
  for (std::uint32_t i = 0; i < *count; ++i) {
    out[i] = static_cast<std::int32_t>(load_u32_be(p + 4 * std::size_t{i}));
  }
  return out;
}

ByteBuffer encode_int_array(std::span<const std::int32_t> values) {
  ByteBuffer out;
  encode_int_array_into(values, out);
  return out;
}

void encode_int_array_into(std::span<const std::int32_t> values, ByteBuffer& out) {
  out.resize(4 + values.size() * 4);
  store_u32_be(out.data(), static_cast<std::uint32_t>(values.size()));
  std::uint8_t* p = out.data() + 4;
  for (std::int32_t v : values) {
    store_u32_be(p, static_cast<std::uint32_t>(v));
    p += 4;
  }
}

Result<std::vector<std::int32_t>> decode_int_array(ConstBytes data) {
  XdrReader r(data);
  auto out = r.get_int_array();
  if (!out) return out.error();
  if (!r.at_end()) return Error{ErrorCode::kMalformed, "trailing bytes"};
  return out;
}

}  // namespace ngp::xdr
