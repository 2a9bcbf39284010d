// result.h — lightweight expected-style error handling for the datapath.
//
// The protocol datapath must not throw: loss, truncation and corruption are
// normal events, not exceptional ones (the paper's §3 lists "detecting
// network transmission problems" as a routine transfer-control function).
// Result<T> carries either a value or an Error with a stable code.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace ngp {

/// Stable error taxonomy shared across modules.
enum class ErrorCode {
  kOk = 0,
  kTruncated,       ///< input shorter than a header/field requires
  kMalformed,       ///< syntactically invalid encoding
  kChecksumMismatch,///< integrity check failed
  kOutOfRange,      ///< value outside protocol limits
  kUnsupported,     ///< valid but not implemented (e.g. exotic BER form)
  kWouldBlock,      ///< flow control: try again later
  kClosed,          ///< endpoint no longer accepts data
  kDuplicate,       ///< already-seen data unit
  kNotFound,        ///< unknown connection/ADU id
  kLimitExceeded,   ///< buffer or window limit hit
};

/// Human-readable name for an ErrorCode (for logs and test output).
constexpr const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kChecksumMismatch: return "checksum_mismatch";
    case ErrorCode::kOutOfRange: return "out_of_range";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kWouldBlock: return "would_block";
    case ErrorCode::kClosed: return "closed";
    case ErrorCode::kDuplicate: return "duplicate";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kLimitExceeded: return "limit_exceeded";
  }
  return "unknown";
}

/// An error code plus optional context message.
struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  std::string to_string() const {
    std::string s = error_code_name(code);
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }
};

/// Either a T or an Error. Minimal std::expected stand-in (C++20 target).
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}                      // NOLINT
  Result(Error err) : v_(std::move(err)) {}                      // NOLINT
  Result(ErrorCode code, std::string msg = {})                   // NOLINT
      : v_(Error{code, std::move(msg)}) {}
  /// Builds the value in place from `args`: no T temporary is moved in.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : v_(std::in_place_index<0>, std::forward<Args>(args)...) {}

  bool ok() const noexcept { return std::holds_alternative<T>(v_); }
  explicit operator bool() const noexcept { return ok(); }

  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(v_));
  }

  T value_or(T fallback) const& { return ok() ? std::get<T>(v_) : std::move(fallback); }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(v_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Error> v_;
};

/// Result<void> analogue: success or an Error.
class Status {
 public:
  Status() = default;  // ok
  Status(Error err) : err_(std::move(err)) {}  // NOLINT
  Status(ErrorCode code, std::string msg = {}) : err_{code, std::move(msg)} {}  // NOLINT

  static Status ok() { return {}; }

  bool is_ok() const noexcept { return err_.code == ErrorCode::kOk; }
  explicit operator bool() const noexcept { return is_ok(); }

  const Error& error() const noexcept { return err_; }
  ErrorCode code() const noexcept { return err_.code; }
  std::string to_string() const { return is_ok() ? "ok" : err_.to_string(); }

 private:
  Error err_;
};

}  // namespace ngp
