#include "presentation/ber.h"

namespace ngp::ber {

std::size_t integer_content_size(std::int64_t v) noexcept {
  // Minimal two's complement: strip redundant leading 0x00/0xFF bytes.
  std::size_t n = 8;
  while (n > 1) {
    const auto top = static_cast<std::uint8_t>(v >> (8 * (n - 1)));
    const auto next_msb = static_cast<std::uint8_t>(v >> (8 * (n - 2))) & 0x80;
    if ((top == 0x00 && next_msb == 0) || (top == 0xFF && next_msb != 0)) {
      --n;
    } else {
      break;
    }
  }
  return n;
}

std::size_t length_field_size(std::size_t len) noexcept {
  if (len < 128) return 1;
  std::size_t bytes = 0;
  for (std::size_t l = len; l != 0; l >>= 8) ++bytes;
  return 1 + bytes;
}

void BerWriter::write_tag(Tag t) { out_.append(static_cast<std::uint8_t>(t)); }

void BerWriter::write_length(std::size_t len) {
  if (len < 128) {
    out_.append(static_cast<std::uint8_t>(len));
    return;
  }
  std::uint8_t tmp[8];
  std::size_t n = 0;
  for (std::size_t l = len; l != 0; l >>= 8) tmp[n++] = static_cast<std::uint8_t>(l);
  out_.append(static_cast<std::uint8_t>(0x80 | n));
  while (n > 0) out_.append(tmp[--n]);  // big-endian
}

void BerWriter::write_boolean(bool v) {
  write_tag(Tag::kBoolean);
  write_length(1);
  out_.append(v ? std::uint8_t{0xFF} : std::uint8_t{0x00});
}

void BerWriter::write_integer(std::int64_t v) {
  write_tag(Tag::kInteger);
  const std::size_t n = integer_content_size(v);
  write_length(n);
  for (std::size_t i = n; i > 0; --i) {
    out_.append(static_cast<std::uint8_t>(v >> (8 * (i - 1))));
  }
}

void BerWriter::write_octet_string(ConstBytes v) {
  write_tag(Tag::kOctetString);
  write_length(v.size());
  out_.append(v);
}

void BerWriter::write_null() {
  write_tag(Tag::kNull);
  write_length(0);
}

namespace {

/// Appends one base-128 arc (high bit marks continuation).
void append_arc(ByteBuffer& out, std::uint32_t arc) {
  std::uint8_t tmp[5];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<std::uint8_t>(arc & 0x7F);
    arc >>= 7;
  } while (arc != 0);
  while (n > 1) out.append(static_cast<std::uint8_t>(tmp[--n] | 0x80));
  out.append(tmp[0]);
}

}  // namespace

Status BerWriter::write_oid(const ObjectId& oid) {
  if (oid.size() < 2) return Error{ErrorCode::kMalformed, "OID needs >= 2 arcs"};
  if (oid[0] > 2) return Error{ErrorCode::kOutOfRange, "first arc must be 0..2"};
  if (oid[0] < 2 && oid[1] >= 40) {
    return Error{ErrorCode::kOutOfRange, "second arc must be < 40 under arc 0/1"};
  }
  ByteBuffer content;
  append_arc(content, oid[0] * 40 + oid[1]);
  for (std::size_t i = 2; i < oid.size(); ++i) append_arc(content, oid[i]);
  write_tag(Tag::kOid);
  write_length(content.size());
  out_.append(content.span());
  return Status::ok();
}

void BerWriter::begin_sequence(std::size_t content_len) {
  write_tag(Tag::kSequence);
  write_length(content_len);
}

Result<Tlv> BerReader::next() {
  if (pos_ >= in_.size()) return Error{ErrorCode::kTruncated, "no TLV at end of input"};
  const std::size_t start = pos_;
  const std::uint8_t tag = in_[pos_++];
  if ((tag & 0x1F) == 0x1F) {
    return Error{ErrorCode::kUnsupported, "multi-byte tags not supported"};
  }
  if (pos_ >= in_.size()) return Error{ErrorCode::kTruncated, "missing length"};
  std::uint8_t first = in_[pos_++];
  std::size_t len = 0;
  if (first < 0x80) {
    len = first;
  } else {
    const std::size_t nbytes = first & 0x7F;
    if (nbytes == 0) return Error{ErrorCode::kUnsupported, "indefinite length"};
    if (nbytes > sizeof(std::size_t)) {
      return Error{ErrorCode::kMalformed, "length field too large"};
    }
    if (in_.size() - pos_ < nbytes) return Error{ErrorCode::kTruncated, "length bytes"};
    for (std::size_t i = 0; i < nbytes; ++i) len = (len << 8) | in_[pos_++];
  }
  if (in_.size() - pos_ < len) return Error{ErrorCode::kTruncated, "content"};
  Tlv tlv;
  tlv.tag = tag;
  tlv.content = in_.subspan(pos_, len);
  pos_ += len;
  tlv.total_size = pos_ - start;
  return tlv;
}

Result<std::int64_t> decode_integer_content(ConstBytes content) {
  if (content.empty()) return Error{ErrorCode::kMalformed, "empty INTEGER"};
  if (content.size() > 8) return Error{ErrorCode::kOutOfRange, "INTEGER > 64 bits"};
  if (content.size() >= 2) {
    // Reject non-minimal encodings (first 9 bits all equal).
    const bool lead0 = content[0] == 0x00 && (content[1] & 0x80) == 0;
    const bool lead1 = content[0] == 0xFF && (content[1] & 0x80) != 0;
    if (lead0 || lead1) return Error{ErrorCode::kMalformed, "non-minimal INTEGER"};
  }
  // Sign-extend from the first content byte.
  std::int64_t v = (content[0] & 0x80) ? -1 : 0;
  for (std::uint8_t b : content) v = (v << 8) | b;
  return v;
}

Result<bool> BerReader::read_boolean() {
  auto tlv = next();
  if (!tlv) return tlv.error();
  if (tlv->tag != static_cast<std::uint8_t>(Tag::kBoolean)) {
    return Error{ErrorCode::kMalformed, "expected BOOLEAN"};
  }
  if (tlv->content.size() != 1) return Error{ErrorCode::kMalformed, "BOOLEAN length"};
  return tlv->content[0] != 0;
}

Result<std::int64_t> BerReader::read_integer() {
  auto tlv = next();
  if (!tlv) return tlv.error();
  if (tlv->tag != static_cast<std::uint8_t>(Tag::kInteger)) {
    return Error{ErrorCode::kMalformed, "expected INTEGER"};
  }
  return decode_integer_content(tlv->content);
}

Result<ConstBytes> BerReader::read_octet_string() {
  auto tlv = next();
  if (!tlv) return tlv.error();
  if (tlv->tag != static_cast<std::uint8_t>(Tag::kOctetString)) {
    return Error{ErrorCode::kMalformed, "expected OCTET STRING"};
  }
  return tlv->content;
}

Status BerReader::read_null() {
  auto tlv = next();
  if (!tlv) return tlv.error();
  if (tlv->tag != static_cast<std::uint8_t>(Tag::kNull)) {
    return Error{ErrorCode::kMalformed, "expected NULL"};
  }
  if (!tlv->content.empty()) return Error{ErrorCode::kMalformed, "NULL with content"};
  return Status::ok();
}

Result<ObjectId> BerReader::read_oid() {
  auto tlv = next();
  if (!tlv) return tlv.error();
  if (tlv->tag != static_cast<std::uint8_t>(Tag::kOid)) {
    return Error{ErrorCode::kMalformed, "expected OBJECT IDENTIFIER"};
  }
  if (tlv->content.empty()) return Error{ErrorCode::kMalformed, "empty OID"};

  ObjectId oid;
  std::uint64_t arc = 0;
  int arc_bytes = 0;
  bool first = true;
  for (std::size_t i = 0; i < tlv->content.size(); ++i) {
    const std::uint8_t b = tlv->content[i];
    if (arc_bytes == 0 && b == 0x80) {
      return Error{ErrorCode::kMalformed, "non-minimal OID arc"};
    }
    arc = (arc << 7) | (b & 0x7F);
    if (++arc_bytes > 5) return Error{ErrorCode::kOutOfRange, "OID arc > 32 bits"};
    if ((b & 0x80) == 0) {
      if (first) {
        // Split the combined first two arcs.
        if (arc >= 80) {
          oid.push_back(2);
          oid.push_back(static_cast<std::uint32_t>(arc - 80));
        } else {
          oid.push_back(static_cast<std::uint32_t>(arc / 40));
          oid.push_back(static_cast<std::uint32_t>(arc % 40));
        }
        first = false;
      } else {
        if (arc > UINT32_MAX) return Error{ErrorCode::kOutOfRange, "OID arc"};
        oid.push_back(static_cast<std::uint32_t>(arc));
      }
      arc = 0;
      arc_bytes = 0;
    }
  }
  if (arc_bytes != 0) return Error{ErrorCode::kTruncated, "OID arc unterminated"};
  return oid;
}

Result<BerReader> BerReader::enter_sequence() {
  auto tlv = next();
  if (!tlv) return tlv.error();
  if (tlv->tag != static_cast<std::uint8_t>(Tag::kSequence)) {
    return Error{ErrorCode::kMalformed, "expected SEQUENCE"};
  }
  return BerReader(tlv->content);
}

ByteBuffer encode_int_array(std::span<const std::int32_t> values) {
  ByteBuffer out;
  encode_int_array_into(values, out);
  return out;
}

void encode_int_array_into(std::span<const std::int32_t> values, ByteBuffer& out) {
  // Pass 1: exact size, so the buffer is sized once (the tuned path).
  std::size_t content = 0;
  for (std::int32_t v : values) content += integer_tlv_size(v);
  out.resize(1 + length_field_size(content) + content);

  // Pass 2: emit directly into the buffer.
  std::uint8_t* p = out.data();
  *p++ = static_cast<std::uint8_t>(Tag::kSequence);
  if (content < 128) {
    *p++ = static_cast<std::uint8_t>(content);
  } else {
    std::uint8_t tmp[8];
    std::size_t n = 0;
    for (std::size_t l = content; l != 0; l >>= 8) tmp[n++] = static_cast<std::uint8_t>(l);
    *p++ = static_cast<std::uint8_t>(0x80 | n);
    while (n > 0) *p++ = tmp[--n];
  }
  for (std::int32_t v : values) {
    const std::size_t n = integer_content_size(v);
    *p++ = static_cast<std::uint8_t>(Tag::kInteger);
    *p++ = static_cast<std::uint8_t>(n);  // always < 128 for 32-bit ints
    for (std::size_t i = n; i > 0; --i) {
      *p++ = static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * (i - 1)));
    }
  }
}

ByteBuffer encode_int_array_checksummed(std::span<const std::int32_t> values,
                                        std::uint16_t& checksum_out) {
  std::size_t content = 0;
  for (std::int32_t v : values) content += integer_tlv_size(v);
  ByteBuffer out;
  out.resize(1 + length_field_size(content) + content);

  // One's-complement sum accumulated as bytes are produced. Byte parity is
  // tracked so odd-offset bytes land in the right half of their 16-bit
  // word (same technique as InternetChecksum::add).
  std::uint64_t sum = 0;
  bool odd = false;
  auto absorb = [&](std::uint8_t b) {
    sum += odd ? std::uint64_t{b} : (std::uint64_t{b} << 8);
    odd = !odd;
  };

  std::uint8_t* p = out.data();
  auto emit = [&](std::uint8_t b) {
    *p++ = b;
    absorb(b);
  };

  emit(static_cast<std::uint8_t>(Tag::kSequence));
  if (content < 128) {
    emit(static_cast<std::uint8_t>(content));
  } else {
    std::uint8_t tmp[8];
    std::size_t n = 0;
    for (std::size_t l = content; l != 0; l >>= 8) tmp[n++] = static_cast<std::uint8_t>(l);
    emit(static_cast<std::uint8_t>(0x80 | n));
    while (n > 0) emit(tmp[--n]);
  }
  for (std::int32_t v : values) {
    const std::size_t n = integer_content_size(v);
    emit(static_cast<std::uint8_t>(Tag::kInteger));
    emit(static_cast<std::uint8_t>(n));
    for (std::size_t i = n; i > 0; --i) {
      emit(static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * (i - 1))));
    }
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  checksum_out = static_cast<std::uint16_t>(~sum);
  return out;
}

Result<std::vector<std::int32_t>> decode_int_array(ConstBytes data) {
  BerReader top(data);
  auto seq = top.enter_sequence();
  if (!seq) return seq.error();
  std::vector<std::int32_t> out;
  // Hand-coded inner loop over the sequence content: no per-element value
  // nodes, no allocation beyond the output vector.
  BerReader& r = *seq;
  while (!r.at_end()) {
    auto v = r.read_integer();
    if (!v) return v.error();
    if (*v < INT32_MIN || *v > INT32_MAX) {
      return Error{ErrorCode::kOutOfRange, "element exceeds 32 bits"};
    }
    out.push_back(static_cast<std::int32_t>(*v));
  }
  return out;
}

// ---- Toolkit paths ---------------------------------------------------------
// Engineered the way early OSI toolkits were: every element becomes its own
// heap-allocated value node, encoding concatenates per-element buffers, and
// decoding walks a generic DOM. Correct, general — and slow, which is the
// point (bench_stack reproduces the paper's ISODE measurement with it).

namespace {

struct ToolkitValue {
  std::uint8_t tag;
  ByteBuffer content;
};

ByteBuffer toolkit_encode_value(const ToolkitValue& v) {
  ByteBuffer out;
  out.append(v.tag);
  // Generic length emission via the writer's algorithm, byte at a time.
  const std::size_t len = v.content.size();
  if (len < 128) {
    out.append(static_cast<std::uint8_t>(len));
  } else {
    std::uint8_t tmp[8];
    std::size_t n = 0;
    for (std::size_t l = len; l != 0; l >>= 8) tmp[n++] = static_cast<std::uint8_t>(l);
    out.append(static_cast<std::uint8_t>(0x80 | n));
    while (n > 0) out.append(tmp[--n]);
  }
  out.append(v.content.span());
  return out;
}

}  // namespace

ByteBuffer toolkit_encode_int_array(std::span<const std::int32_t> values) {
  // Build a DOM of per-element nodes (one allocation each), then fold.
  std::vector<ToolkitValue> nodes;
  nodes.reserve(values.size());
  for (std::int32_t v : values) {
    ToolkitValue node;
    node.tag = static_cast<std::uint8_t>(Tag::kInteger);
    const std::size_t n = integer_content_size(v);
    for (std::size_t i = n; i > 0; --i) {
      node.content.append(
          static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * (i - 1))));
    }
    nodes.push_back(std::move(node));
  }
  // Encode each node to its own buffer, then concatenate into the sequence
  // content (a second copy), then wrap (a third copy).
  ByteBuffer content;
  for (const auto& node : nodes) {
    ByteBuffer piece = toolkit_encode_value(node);
    content.append(piece.span());
  }
  ToolkitValue seq;
  seq.tag = static_cast<std::uint8_t>(Tag::kSequence);
  seq.content = std::move(content);
  return toolkit_encode_value(seq);
}

Result<std::vector<std::int32_t>> toolkit_decode_int_array(ConstBytes data) {
  // Generic DOM walk: parse every TLV into an owned node before converting.
  BerReader top(data);
  auto seq = top.enter_sequence();
  if (!seq) return seq.error();
  std::vector<ToolkitValue> nodes;
  BerReader& r = *seq;
  while (!r.at_end()) {
    auto tlv = r.next();
    if (!tlv) return tlv.error();
    ToolkitValue node;
    node.tag = tlv->tag;
    node.content = ByteBuffer(tlv->content);  // per-element copy
    nodes.push_back(std::move(node));
  }
  std::vector<std::int32_t> out;
  out.reserve(nodes.size());
  for (const auto& node : nodes) {
    if (node.tag != static_cast<std::uint8_t>(Tag::kInteger)) {
      return Error{ErrorCode::kMalformed, "expected INTEGER"};
    }
    auto v = decode_integer_content(node.content.span());
    if (!v) return v.error();
    if (*v < INT32_MIN || *v > INT32_MAX) {
      return Error{ErrorCode::kOutOfRange, "element exceeds 32 bits"};
    }
    out.push_back(static_cast<std::int32_t>(*v));
  }
  return out;
}

}  // namespace ngp::ber
