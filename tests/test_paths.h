// test_paths.h — shared in-process NetPath doubles and ALF test fixtures.
//
// These started life inside robustness_test.cpp; the fault-injection work
// made them load-bearing for several suites (robustness, fault, chaos,
// fuzz), so they live here once instead of being re-declared per file.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "alf/receiver.h"
#include "alf/wire.h"
#include "netsim/net_path.h"
#include "util/event_loop.h"

namespace ngp::test {

/// Synchronous in-process NetPath: send() delivers immediately. Lets tests
/// inject hand-crafted frames without a simulator.
class LoopbackPath final : public NetPath {
 public:
  bool send(ConstBytes frame) override {
    if (handler_) handler_(frame);
    return true;
  }
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  std::size_t max_frame_size() const override { return 65535; }
  /// Whether a handler is registered: teardown tests check that a
  /// destroyed component left none behind.
  bool has_handler() const noexcept { return static_cast<bool>(handler_); }

 private:
  FrameHandler handler_;
};

/// Sink path that records frames without delivering anywhere.
class SinkPath final : public NetPath {
 public:
  bool send(ConstBytes frame) override {
    frames.push_back(ByteBuffer(frame));
    return true;
  }
  void set_handler(FrameHandler) override {}
  std::size_t max_frame_size() const override { return 65535; }

  std::vector<ByteBuffer> frames;
};

/// Builds a wire-consistent data fragment with the given claimed geometry.
/// The claims are deliberately caller-controlled: hostile tests forge them.
inline alf::DataFragment make_fragment(std::uint16_t session, std::uint32_t adu_id,
                                       ConstBytes payload, std::uint32_t adu_len,
                                       std::uint32_t off) {
  alf::DataFragment f;
  f.session = session;
  f.adu_id = adu_id;
  f.name = generic_name(adu_id);
  f.syntax = TransferSyntax::kRaw;
  f.checksum_kind = ChecksumKind::kInternet;
  f.adu_len = adu_len;
  f.frag_off = off;
  f.payload = payload;
  return f;
}

/// A receiver wired to a loopback data path and a recording feedback path:
/// inject() hands it arbitrary fragments synchronously.
struct ReceiverFixture {
  EventLoop loop;
  LoopbackPath data;
  SinkPath feedback;
  alf::SessionConfig scfg;
  std::unique_ptr<alf::AlfReceiver> receiver;
  std::vector<Adu> delivered;

  explicit ReceiverFixture(alf::SessionConfig cfg = {}) : scfg(cfg) {
    receiver = std::make_unique<alf::AlfReceiver>(loop, data, feedback, scfg);
    receiver->set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
  }

  void inject(const alf::DataFragment& f) {
    ByteBuffer frame = alf::encode_fragment(f);
    data.send(frame.span());
  }
};

}  // namespace ngp::test
