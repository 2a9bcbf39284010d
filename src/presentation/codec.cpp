#include "presentation/codec.h"

#include <algorithm>
#include <cstring>

#include "presentation/ber.h"
#include "presentation/lwts.h"
#include "presentation/xdr.h"

namespace ngp {

std::string_view transfer_syntax_name(TransferSyntax s) noexcept {
  switch (s) {
    case TransferSyntax::kRaw: return "raw";
    case TransferSyntax::kLwts: return "lwts";
    case TransferSyntax::kXdr: return "xdr";
    case TransferSyntax::kBer: return "ber";
    case TransferSyntax::kBerToolkit: return "ber_toolkit";
  }
  return "?";
}

ByteBuffer encode_int_array(TransferSyntax s, std::span<const std::int32_t> values,
                            obs::CostAccount* cost) {
  const std::size_t in_bytes = values.size() * 4;
  ByteBuffer out = [&] {
  switch (s) {
    case TransferSyntax::kRaw: {
      ByteBuffer out(values.size() * 4);
      copy_bytes(out.data(), values.data(), values.size() * 4);
      return out;
    }
    case TransferSyntax::kLwts: return lwts::encode_int_array(values);
    case TransferSyntax::kXdr: return xdr::encode_int_array(values);
    case TransferSyntax::kBer: return ber::encode_int_array(values);
    case TransferSyntax::kBerToolkit: return ber::toolkit_encode_int_array(values);
  }
  return ByteBuffer{};
  }();
  if (cost != nullptr) cost->charge_transform(in_bytes, out.size());
  return out;
}

Result<std::vector<std::int32_t>> decode_int_array(TransferSyntax s, ConstBytes data,
                                                   obs::CostAccount* cost) {
  auto out = [&]() -> Result<std::vector<std::int32_t>> {
  switch (s) {
    case TransferSyntax::kRaw: {
      if (data.size() % 4 != 0) return Error{ErrorCode::kMalformed, "raw array size"};
      std::vector<std::int32_t> out(data.size() / 4);
      copy_bytes(out.data(), data.data(), data.size());
      return out;
    }
    case TransferSyntax::kLwts: return lwts::decode_int_array(data);
    case TransferSyntax::kXdr: return xdr::decode_int_array(data);
    case TransferSyntax::kBer: return ber::decode_int_array(data);
    case TransferSyntax::kBerToolkit: return ber::toolkit_decode_int_array(data);
  }
  return Error{ErrorCode::kUnsupported, "unknown syntax"};
  }();
  if (cost != nullptr && out.ok()) cost->charge_transform(data.size(), out->size() * 4);
  return out;
}

ByteBuffer encode_octets(TransferSyntax s, ConstBytes data, obs::CostAccount* cost) {
  ByteBuffer out = [&] {
  switch (s) {
    case TransferSyntax::kRaw: return ByteBuffer(data);
    case TransferSyntax::kLwts: return lwts::encode_octets(data);
    case TransferSyntax::kXdr: {
      ByteBuffer out;
      xdr::XdrWriter w(out);
      w.put_opaque(data);
      return out;
    }
    case TransferSyntax::kBer:
    case TransferSyntax::kBerToolkit: {
      ByteBuffer out;
      ber::BerWriter w(out);
      w.write_octet_string(data);
      return out;
    }
  }
  return ByteBuffer{};
  }();
  if (cost != nullptr) cost->charge_transform(data.size(), out.size());
  return out;
}

Result<ByteBuffer> decode_octets(TransferSyntax s, ConstBytes data,
                                 obs::CostAccount* cost) {
  auto view = decode_octets_view(s, data);
  if (!view) return view.error();
  if (cost != nullptr) cost->charge_transform(data.size(), view->size());
  return ByteBuffer(*view);
}

Result<ConstBytes> decode_octets_view(TransferSyntax s, ConstBytes data) {
  switch (s) {
    case TransferSyntax::kRaw: return data;
    case TransferSyntax::kLwts: return lwts::decode_octets_view(data);
    case TransferSyntax::kXdr: {
      xdr::XdrReader r(data);
      return r.get_opaque_view();
    }
    case TransferSyntax::kBer:
    case TransferSyntax::kBerToolkit: {
      ber::BerReader r(data);
      return r.read_octet_string();
    }
  }
  return Error{ErrorCode::kUnsupported, "unknown syntax"};
}

Status decode_octets_chain(TransferSyntax s, buf::BufChain& chain) {
  if (s == TransferSyntax::kRaw) return Status::ok();  // no framing

  // Framing is always contiguous at the front and at most 16 bytes (BER
  // long form: tag + length-of-length + up to 8 length bytes; LWTS header
  // 8; XDR length 4), so one tiny ranged read suffices to parse it — the
  // payload slices are never touched.
  std::uint8_t head[16] = {};
  const std::size_t have = std::min<std::size_t>(chain.size(), sizeof(head));
  chain.read(0, {head, have});

  std::size_t prefix = 0;   // framing bytes before the payload
  std::size_t payload = 0;  // payload length
  switch (s) {
    case TransferSyntax::kLwts: {
      auto h = lwts::parse_header({head, have});
      if (!h) return h.error();
      if (h->type != lwts::TypeId::kOctets) {
        return Error{ErrorCode::kMalformed, "not octets"};
      }
      prefix = lwts::Header::kWireSize;
      payload = h->count;
      if (chain.size() - prefix < payload) {
        return Error{ErrorCode::kTruncated, "LWTS body"};
      }
      break;
    }
    case TransferSyntax::kXdr: {
      if (have < 4) return Error{ErrorCode::kTruncated, "XDR item"};
      const std::uint32_t len = load_u32_be(head);
      prefix = 4;
      payload = len;
      // The wire carries the zero pad to 4 after the body; it must be
      // present (the flat reader take()s it) and is trimmed with the tail.
      if (chain.size() - prefix < std::size_t{len} + xdr::pad4(len)) {
        return Error{ErrorCode::kTruncated, "XDR item"};
      }
      break;
    }
    case TransferSyntax::kBer:
    case TransferSyntax::kBerToolkit: {
      if (have < 2) return Error{ErrorCode::kTruncated, "BER header"};
      if (head[0] != static_cast<std::uint8_t>(ber::Tag::kOctetString)) {
        return Error{ErrorCode::kMalformed, "not an OCTET STRING"};
      }
      std::size_t len = 0;
      std::size_t len_bytes = 1;
      if (head[1] < 0x80) {
        len = head[1];
      } else {
        const std::size_t n = head[1] & 0x7F;
        if (n == 0) return Error{ErrorCode::kUnsupported, "indefinite length"};
        if (n > 8) return Error{ErrorCode::kMalformed, "BER length"};
        if (have < 2 + n) return Error{ErrorCode::kTruncated, "BER length"};
        for (std::size_t i = 0; i < n; ++i) len = (len << 8) | head[2 + i];
        len_bytes = 1 + n;
      }
      prefix = 1 + len_bytes;
      payload = len;
      if (chain.size() - prefix < payload) {
        return Error{ErrorCode::kTruncated, "BER content"};
      }
      break;
    }
    default:
      return Error{ErrorCode::kUnsupported, "unknown syntax"};
  }

  chain.trim_front(prefix);
  chain.trim_back(chain.size() - payload);
  return Status::ok();
}

}  // namespace ngp
