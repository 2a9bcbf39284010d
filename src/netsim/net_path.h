// net_path.h — abstract transmission path.
//
// §5 of the paper insists the protocol architecture must not be welded to
// the transmission unit of the day ("classic packet switching is not the
// only method of multiplexing that will be used"). NetPath is that seam:
// transports (TCP-like and ALF) are written against it, and run unchanged
// over a packet link or an ATM cell link (or anything else that can carry
// a frame).
#pragma once

#include <cstddef>

#include "util/bytes.h"
#include "netsim/link.h"

namespace ngp {

/// A unidirectional frame-delivery service.
class NetPath {
 public:
  virtual ~NetPath() = default;

  /// Offers one frame for transmission. False = rejected at the sender
  /// (oversize/backpressure); silent loss in flight is still possible.
  ///
  /// The frame is borrowed for the call only. An implementation that needs
  /// the bytes afterwards (a link's serializer, a replay history) copies
  /// them before it returns, so the caller may reuse the buffer as soon as
  /// send() returns: AlfSender encodes every fragment into one frame
  /// buffer. A synchronous path runs the far end's handler inside send();
  /// if that handler calls back into the caller, the caller must not
  /// overwrite the frame it lent (AlfSender asserts it does not).
  virtual bool send(ConstBytes frame) = 0;

  /// Registers the delivery callback.
  virtual void set_handler(FrameHandler handler) = 0;

  /// Largest frame this path accepts.
  virtual std::size_t max_frame_size() const = 0;
};

/// Adapter presenting a Link as a NetPath.
class LinkPath final : public NetPath {
 public:
  explicit LinkPath(Link& link) : link_(link) {}

  bool send(ConstBytes frame) override { return link_.send(frame); }
  void set_handler(FrameHandler handler) override { link_.set_handler(std::move(handler)); }
  std::size_t max_frame_size() const override { return link_.config().mtu; }

 private:
  Link& link_;
};

}  // namespace ngp
