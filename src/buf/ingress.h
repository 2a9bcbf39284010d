// ingress.h — the "current ingress frame" context (ngp::buf).
//
// Every frame handler in the repo is `std::function<void(ConstBytes)>`:
// links, faulty paths, relays and the sessiond dispatcher all forward a
// borrowed span. Threading a pool reference through each signature would
// touch every intermediary for one consumer, so every link instead
// PUBLISHES the pool segment backing the span for the duration of the
// handler call, via this RAII scope on the delivering thread.
//
// A downstream consumer (AlfReceiver) that wants to keep bytes past the
// handler return checks whether the span it was handed lies INSIDE the
// published segment (BufRef::contains). If yes it takes its own reference
// — zero copy; if no (an intermediary re-framed or mutated a copy, or the
// frame never crossed a link) it falls back to copying, which is always
// correct. That containment test is what lets FaultyPath corrupt a COPY
// of a frame without any zero-copy machinery noticing or caring.
#pragma once

#include "buf/chain.h"

namespace ngp::buf {

/// Scope guard: publishes `s` as the current ingress frame on this thread.
/// Nests (an inner scope shadows, then restores, the outer one).
class IngressFrame {
 public:
  explicit IngressFrame(const Slice& s) noexcept : prev_(current_) {
    current_ = &s;
  }
  ~IngressFrame() { current_ = prev_; }
  IngressFrame(const IngressFrame&) = delete;
  IngressFrame& operator=(const IngressFrame&) = delete;

  /// The slice backing the frame currently being delivered on this thread,
  /// or nullptr outside any ingress scope.
  static const Slice* current() noexcept { return current_; }

 private:
  static inline thread_local const Slice* current_ = nullptr;
  const Slice* prev_;
};

}  // namespace ngp::buf
