#include "presentation/record.h"

#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

#include "presentation/ber.h"
#include "presentation/lwts.h"
#include "presentation/plan.h"
#include "presentation/xdr.h"

namespace ngp {

bool field_matches(const FieldValue& value, FieldType type) noexcept {
  return value.index() == static_cast<std::size_t>(type);
}

Status validate_record(const RecordSchema& schema, const Record& record) {
  if (record.size() != schema.fields.size()) {
    return Error{ErrorCode::kMalformed,
                 schema.name + ": field count " + std::to_string(record.size()) +
                     " != schema " + std::to_string(schema.fields.size())};
  }
  for (std::size_t i = 0; i < record.size(); ++i) {
    if (!field_matches(record[i], schema.fields[i])) {
      return Error{ErrorCode::kMalformed,
                   schema.name + ": field " + std::to_string(i) + " type mismatch"};
    }
  }
  return Status::ok();
}

namespace {

/// A decoded field, built in place inside its Result. Returning a
/// FieldValue temporary instead moves a whole variant, and at -O2 with
/// sanitizers GCC then warns that alternatives the temporary never holds
/// may be read uninitialized (-Wmaybe-uninitialized).
template <typename T>
Result<FieldValue> decoded(T&& v) {
  return Result<FieldValue>(std::in_place, std::in_place_type<std::decay_t<T>>,
                            std::forward<T>(v));
}

}  // namespace

// ---- XDR ---------------------------------------------------------------------------

namespace {

void xdr_encode_field(xdr::XdrWriter& w, const FieldValue& v) {
  switch (static_cast<FieldType>(v.index())) {
    case FieldType::kInt32: w.put_int(std::get<std::int32_t>(v)); break;
    case FieldType::kInt64: w.put_hyper(std::get<std::int64_t>(v)); break;
    case FieldType::kFloat64: w.put_double(std::get<double>(v)); break;
    case FieldType::kString: w.put_string(std::get<std::string>(v)); break;
    case FieldType::kOpaque: w.put_opaque(std::get<ByteBuffer>(v).span()); break;
    case FieldType::kInt32Array:
      w.put_int_array(std::get<std::vector<std::int32_t>>(v));
      break;
  }
}

Result<FieldValue> xdr_decode_field(xdr::XdrReader& r, FieldType t) {
  switch (t) {
    case FieldType::kInt32: {
      auto v = r.get_int();
      if (!v) return v.error();
      return decoded(*v);
    }
    case FieldType::kInt64: {
      auto v = r.get_hyper();
      if (!v) return v.error();
      return decoded(*v);
    }
    case FieldType::kFloat64: {
      auto v = r.get_double();
      if (!v) return v.error();
      return decoded(*v);
    }
    case FieldType::kString: {
      auto v = r.get_string();
      if (!v) return v.error();
      return decoded(std::move(*v));
    }
    case FieldType::kOpaque: {
      auto v = r.get_opaque();
      if (!v) return v.error();
      return decoded(std::move(*v));
    }
    case FieldType::kInt32Array: {
      auto v = r.get_int_array();
      if (!v) return v.error();
      return decoded(std::move(*v));
    }
  }
  return Error{ErrorCode::kUnsupported, "unknown field type"};
}

// ---- BER ---------------------------------------------------------------------------

void ber_encode_field(ber::BerWriter& w, ByteBuffer& out, const FieldValue& v) {
  switch (static_cast<FieldType>(v.index())) {
    case FieldType::kInt32: w.write_integer(std::get<std::int32_t>(v)); break;
    case FieldType::kInt64: w.write_integer(std::get<std::int64_t>(v)); break;
    case FieldType::kFloat64: {
      // BER REAL is baroque; we carry doubles as an 8-byte OCTET STRING of
      // the IEEE-754 big-endian image (documented library restriction).
      std::uint8_t img[8];
      store_u64_le(img, byteswap64(std::bit_cast<std::uint64_t>(std::get<double>(v))));
      w.write_octet_string({img, 8});
      break;
    }
    case FieldType::kString: {
      const auto& s = std::get<std::string>(v);
      w.write_octet_string({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
      break;
    }
    case FieldType::kOpaque: w.write_octet_string(std::get<ByteBuffer>(v).span()); break;
    case FieldType::kInt32Array:
      out.append(ber::encode_int_array(std::get<std::vector<std::int32_t>>(v)).span());
      break;
  }
}

Result<FieldValue> ber_decode_field(ber::BerReader& r, FieldType t) {
  switch (t) {
    case FieldType::kInt32: {
      auto v = r.read_integer();
      if (!v) return v.error();
      if (*v < INT32_MIN || *v > INT32_MAX) {
        return Error{ErrorCode::kOutOfRange, "int32 field"};
      }
      return decoded(static_cast<std::int32_t>(*v));
    }
    case FieldType::kInt64: {
      auto v = r.read_integer();
      if (!v) return v.error();
      return decoded(*v);
    }
    case FieldType::kFloat64: {
      auto v = r.read_octet_string();
      if (!v) return v.error();
      if (v->size() != 8) return Error{ErrorCode::kMalformed, "float64 image"};
      return decoded(std::bit_cast<double>(byteswap64(load_u64_le(v->data()))));
    }
    case FieldType::kString: {
      auto v = r.read_octet_string();
      if (!v) return v.error();
      return decoded(std::string(reinterpret_cast<const char*>(v->data()), v->size()));
    }
    case FieldType::kOpaque: {
      auto v = r.read_octet_string();
      if (!v) return v.error();
      return decoded(ByteBuffer(*v));
    }
    case FieldType::kInt32Array: {
      auto seq = r.enter_sequence();
      if (!seq) return seq.error();
      std::vector<std::int32_t> out;
      while (!seq->at_end()) {
        auto v = seq->read_integer();
        if (!v) return v.error();
        if (*v < INT32_MIN || *v > INT32_MAX) {
          return Error{ErrorCode::kOutOfRange, "array element"};
        }
        out.push_back(static_cast<std::int32_t>(*v));
      }
      return decoded(std::move(out));
    }
  }
  return Error{ErrorCode::kUnsupported, "unknown field type"};
}

// ---- LWTS --------------------------------------------------------------------------
// Packed little-endian; variable-size fields carry a u32 byte length.

void lwts_put_u32(ByteBuffer& out, std::uint32_t v) {
  const std::size_t off = out.size();
  out.resize(off + 4);
  std::memcpy(out.data() + off, &v, 4);
}

bool lwts_get_u32(ConstBytes in, std::size_t& pos, std::uint32_t& v) {
  if (in.size() - pos < 4) return false;
  std::memcpy(&v, in.data() + pos, 4);
  pos += 4;
  return true;
}

void lwts_encode_field(ByteBuffer& out, const FieldValue& v) {
  switch (static_cast<FieldType>(v.index())) {
    case FieldType::kInt32: {
      lwts_put_u32(out, static_cast<std::uint32_t>(std::get<std::int32_t>(v)));
      break;
    }
    case FieldType::kInt64: {
      const auto u = static_cast<std::uint64_t>(std::get<std::int64_t>(v));
      const std::size_t off = out.size();
      out.resize(off + 8);
      store_u64_le(out.data() + off, u);
      break;
    }
    case FieldType::kFloat64: {
      const std::size_t off = out.size();
      out.resize(off + 8);
      store_u64_le(out.data() + off, std::bit_cast<std::uint64_t>(std::get<double>(v)));
      break;
    }
    case FieldType::kString: {
      const auto& s = std::get<std::string>(v);
      lwts_put_u32(out, static_cast<std::uint32_t>(s.size()));
      out.append({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
      break;
    }
    case FieldType::kOpaque: {
      const auto& b = std::get<ByteBuffer>(v);
      lwts_put_u32(out, static_cast<std::uint32_t>(b.size()));
      out.append(b.span());
      break;
    }
    case FieldType::kInt32Array: {
      const auto& a = std::get<std::vector<std::int32_t>>(v);
      lwts_put_u32(out, static_cast<std::uint32_t>(a.size()));
      const std::size_t off = out.size();
      out.resize(off + a.size() * 4);
      copy_bytes(out.data() + off, a.data(), a.size() * 4);
      break;
    }
  }
}

Result<FieldValue> lwts_decode_field(ConstBytes in, std::size_t& pos, FieldType t) {
  const Error truncated{ErrorCode::kTruncated, "LWTS field"};
  switch (t) {
    case FieldType::kInt32: {
      std::uint32_t v = 0;
      if (!lwts_get_u32(in, pos, v)) return truncated;
      return decoded(static_cast<std::int32_t>(v));
    }
    case FieldType::kInt64: {
      if (in.size() - pos < 8) return truncated;
      const auto v = static_cast<std::int64_t>(load_u64_le(in.data() + pos));
      pos += 8;
      return decoded(v);
    }
    case FieldType::kFloat64: {
      if (in.size() - pos < 8) return truncated;
      const double v = std::bit_cast<double>(load_u64_le(in.data() + pos));
      pos += 8;
      return decoded(v);
    }
    case FieldType::kString: {
      std::uint32_t len = 0;
      if (!lwts_get_u32(in, pos, len) || in.size() - pos < len) return truncated;
      std::string s(reinterpret_cast<const char*>(in.data() + pos), len);
      pos += len;
      return decoded(std::move(s));
    }
    case FieldType::kOpaque: {
      std::uint32_t len = 0;
      if (!lwts_get_u32(in, pos, len) || in.size() - pos < len) return truncated;
      ByteBuffer b(in.subspan(pos, len));
      pos += len;
      return decoded(std::move(b));
    }
    case FieldType::kInt32Array: {
      std::uint32_t count = 0;
      if (!lwts_get_u32(in, pos, count)) return truncated;
      const std::size_t bytes = std::size_t{count} * 4;
      if (in.size() - pos < bytes) return truncated;
      std::vector<std::int32_t> a(count);
      copy_bytes(a.data(), in.data() + pos, bytes);
      pos += bytes;
      return decoded(std::move(a));
    }
  }
  return Error{ErrorCode::kUnsupported, "unknown field type"};
}

Result<ByteBuffer> encode_interpreted_impl(TransferSyntax syntax,
                                           const RecordSchema& schema,
                                           const Record& record) {
  if (auto s = validate_record(schema, record); !s.is_ok()) return s.error();

  switch (syntax) {
    case TransferSyntax::kXdr: {
      ByteBuffer out;
      xdr::XdrWriter w(out);
      for (const auto& v : record) xdr_encode_field(w, v);
      return out;
    }
    case TransferSyntax::kBer:
    case TransferSyntax::kBerToolkit: {
      // Encode the body, then wrap as a SEQUENCE.
      ByteBuffer body;
      ber::BerWriter wb(body);
      for (const auto& v : record) ber_encode_field(wb, body, v);
      ByteBuffer out;
      ber::BerWriter w(out);
      w.begin_sequence(body.size());
      out.append(body.span());
      return out;
    }
    case TransferSyntax::kLwts: {
      ByteBuffer out;
      for (const auto& v : record) lwts_encode_field(out, v);
      return out;
    }
    case TransferSyntax::kRaw:
      return Error{ErrorCode::kUnsupported,
                   "raw mode carries no field structure; pick a syntax"};
  }
  return Error{ErrorCode::kUnsupported, "unknown syntax"};
}

Result<Record> decode_interpreted_impl(TransferSyntax syntax,
                                       const RecordSchema& schema, ConstBytes data) {
  Record out;
  out.reserve(schema.fields.size());

  switch (syntax) {
    case TransferSyntax::kXdr: {
      xdr::XdrReader r(data);
      for (FieldType t : schema.fields) {
        auto v = xdr_decode_field(r, t);
        if (!v) return v.error();
        out.push_back(std::move(*v));
      }
      if (!r.at_end()) return Error{ErrorCode::kMalformed, "trailing bytes"};
      return out;
    }
    case TransferSyntax::kBer:
    case TransferSyntax::kBerToolkit: {
      ber::BerReader top(data);
      auto seq = top.enter_sequence();
      if (!seq) return seq.error();
      for (FieldType t : schema.fields) {
        auto v = ber_decode_field(*seq, t);
        if (!v) return v.error();
        out.push_back(std::move(*v));
      }
      if (!seq->at_end()) return Error{ErrorCode::kMalformed, "trailing fields"};
      return out;
    }
    case TransferSyntax::kLwts: {
      std::size_t pos = 0;
      for (FieldType t : schema.fields) {
        auto v = lwts_decode_field(data, pos, t);
        if (!v) return v.error();
        out.push_back(std::move(*v));
      }
      if (pos != data.size()) return Error{ErrorCode::kMalformed, "trailing bytes"};
      return out;
    }
    case TransferSyntax::kRaw:
      return Error{ErrorCode::kUnsupported,
                   "raw mode carries no field structure; pick a syntax"};
  }
  return Error{ErrorCode::kUnsupported, "unknown syntax"};
}

}  // namespace

Result<ByteBuffer> encode_record_interpreted(TransferSyntax syntax,
                                             const RecordSchema& schema,
                                             const Record& record,
                                             obs::CostAccount* cost) {
  auto r = encode_interpreted_impl(syntax, schema, record);
  if (r && cost != nullptr) cost->charge_transform(r->size(), r->size());
  return r;
}

Result<Record> decode_record_interpreted(TransferSyntax syntax,
                                         const RecordSchema& schema, ConstBytes data,
                                         obs::CostAccount* cost) {
  auto r = decode_interpreted_impl(syntax, schema, data);
  if (r && cost != nullptr) cost->charge_transform(data.size(), data.size());
  return r;
}

// The public entry points route XDR/LWTS through the cached compiled plan
// (presentation/plan.h) and fall back to the interpreter for everything the
// compiler leaves alone (BER's value-dependent TLV framing, kRaw's
// unsupported error). Results are byte-identical either way — record_test
// and presentation fuzzing pin that.

Result<ByteBuffer> encode_record(TransferSyntax syntax, const RecordSchema& schema,
                                 const Record& record, obs::CostAccount* cost) {
  auto plan = presentation::cached_plan(schema, syntax);
  if (plan->compiled) return presentation::plan_encode(*plan, record, cost);
  return encode_record_interpreted(syntax, schema, record, cost);
}

Result<Record> decode_record(TransferSyntax syntax, const RecordSchema& schema,
                             ConstBytes data, obs::CostAccount* cost) {
  auto plan = presentation::cached_plan(schema, syntax);
  if (plan->compiled) return presentation::plan_decode(*plan, data, cost);
  return decode_record_interpreted(syntax, schema, data, cost);
}

}  // namespace ngp
