// ber.h — ASN.1 Basic Encoding Rules subset (ISO 8824/8825).
//
// The paper's §4 presentation experiments are built on ASN.1: a hand-coded
// conversion of an integer array into ASN.1 ran 4-5x slower than a copy,
// and the ISODE toolkit's generic path ran ~30x slower than the raw case.
// This module provides both ends of that range:
//
//   * BerWriter/BerReader        — general TLV codec (tuned, value types)
//   * encode_int_array/decode_int_array          — hand-coded array paths
//   * toolkit_encode_int_array/toolkit_decode_...— deliberately generic,
//     allocation-per-element "prototype toolkit" paths, modelling ISODE's
//     engineering (DESIGN.md substitution table)
//
// Supported universal types: BOOLEAN, INTEGER, OCTET STRING, NULL,
// SEQUENCE (constructed). Definite lengths only (BER long/short form).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace ngp::ber {

/// Universal class tag numbers we implement.
enum class Tag : std::uint8_t {
  kBoolean = 0x01,
  kInteger = 0x02,
  kOctetString = 0x04,
  kNull = 0x05,
  kOid = 0x06,
  kSequence = 0x30,  // constructed bit already set
};

/// An OBJECT IDENTIFIER value (arc components). OSI protocols name
/// abstract and transfer syntaxes by OID; the ALF session negotiator uses
/// these to identify the offered syntaxes on the wire.
using ObjectId = std::vector<std::uint32_t>;

/// Number of content bytes a two's-complement INTEGER needs.
std::size_t integer_content_size(std::int64_t v) noexcept;

/// Number of bytes the definite-form length field needs for `len`.
std::size_t length_field_size(std::size_t len) noexcept;

/// Total encoded size of an INTEGER TLV.
inline std::size_t integer_tlv_size(std::int64_t v) noexcept {
  const std::size_t c = integer_content_size(v);
  return 1 + length_field_size(c) + c;
}

/// Serializes BER TLVs into a ByteBuffer.
class BerWriter {
 public:
  explicit BerWriter(ByteBuffer& out) : out_(out) {}

  void write_boolean(bool v);
  void write_integer(std::int64_t v);
  void write_octet_string(ConstBytes v);
  void write_null();
  /// Requires >= 2 components, first in 0..2, second < 40 for first 0/1.
  Status write_oid(const ObjectId& oid);

  /// Emits a SEQUENCE header for `content_len` content bytes; the caller
  /// then writes exactly that many bytes of TLVs.
  void begin_sequence(std::size_t content_len);

 private:
  void write_tag(Tag t);
  void write_length(std::size_t len);

  ByteBuffer& out_;
};

/// One parsed TLV: tag byte, content view.
struct Tlv {
  std::uint8_t tag = 0;
  ConstBytes content;
  std::size_t total_size = 0;  ///< bytes consumed including tag and length
};

/// Pull-parser over a BER byte stream.
class BerReader {
 public:
  explicit BerReader(ConstBytes in) : in_(in) {}

  /// Parses the TLV at the cursor. Errors: kTruncated, kMalformed,
  /// kUnsupported (indefinite length).
  Result<Tlv> next();

  /// Typed helpers; each checks the tag and advances on success.
  Result<bool> read_boolean();
  Result<std::int64_t> read_integer();
  Result<ConstBytes> read_octet_string();
  Status read_null();
  Result<ObjectId> read_oid();

  /// Enters a SEQUENCE and returns a reader over its content.
  Result<BerReader> enter_sequence();

  bool at_end() const noexcept { return pos_ >= in_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  ConstBytes in_;
  std::size_t pos_ = 0;
};

/// Decodes an INTEGER TLV's content bytes (minimal two's complement).
Result<std::int64_t> decode_integer_content(ConstBytes content);

// ---- Hand-coded array paths (the paper's "hand coded conversion routine").

/// Encodes `values` as SEQUENCE OF INTEGER with one pre-sized pass.
ByteBuffer encode_int_array(std::span<const std::int32_t> values);

/// Zero-allocation variant: reuses `out`'s storage.
void encode_int_array_into(std::span<const std::int32_t> values, ByteBuffer& out);

/// ILP variant of encode_int_array: computes the RFC 1071 checksum of the
/// encoded bytes INSIDE the encode loop, so the output is never re-read.
/// Reproduces the paper's §4 "converted and checksummed in one step"
/// experiment (28 -> 24 Mb/s on the R2000). Byte-identical output and the
/// same checksum as a separate internet_checksum() pass (tested property).
ByteBuffer encode_int_array_checksummed(std::span<const std::int32_t> values,
                                        std::uint16_t& checksum_out);

/// Decodes a SEQUENCE OF INTEGER produced by any conforming encoder.
Result<std::vector<std::int32_t>> decode_int_array(ConstBytes data);

// ---- Toolkit paths: generic, per-element allocation, recursive descent.
// Deliberately engineered like a prototype OSI toolkit so bench_stack can
// reproduce the paper's ~30x gap (see DESIGN.md substitutions).

ByteBuffer toolkit_encode_int_array(std::span<const std::int32_t> values);
Result<std::vector<std::int32_t>> toolkit_decode_int_array(ConstBytes data);

}  // namespace ngp::ber
