// alloc_ledger_test.cpp — the control ledger: heap allocations on the
// per-ADU path, counted exactly over seeded steady-state windows.
//
// This executable replaces global operator new in every form (plain and
// align_val_t, scalar and array, throwing and nothrow) with versions that
// count each call; ByteBuffer allocates through the aligned form. Every
// window below runs on one thread over the deterministic simulator, so
// its count is exact and pinned at tolerance 0: a change that adds or
// removes an allocation on the per-ADU path fails here and prints the new
// figure. The path windows also count the loop's events, pinned the same
// way. The simulator allocates nothing per frame: the event loop keeps
// each callable inline in a reused slot, and a link keeps its frames in a
// reused in-flight table, so the counts below are the protocol's own. They
// are the GNU C++ library's: its std::map allocates a node per element and
// its std::deque 512-byte nodes. Sanitizer builds replace operator new
// themselves, so the suite is only built without NGP_SANITIZE
// (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "engine/engine.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "util/event_loop.h"
#include "util/rng.h"

#include "test_paths.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n != 0 ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted_aligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted_aligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ngp::alf {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

// ---- Framing ----------------------------------------------------------------------

/// A 1500-byte-MTU path that stamps the allocation count at each send():
/// what the sender allocates between two frames of one ADU is what framing
/// a fragment costs.
class StampPath final : public NetPath {
 public:
  StampPath() { stamps.reserve(1024); }
  bool send(ConstBytes) override {
    stamps.push_back(allocs());
    return true;
  }
  void set_handler(FrameHandler) override {}
  std::size_t max_frame_size() const override { return 1500; }

  std::vector<std::uint64_t> stamps;
};

TEST(AllocLedger, SenderFramingAllocatesNothingPerFragment) {
  // One 40-fragment ADU with a short tail, plain and with encryption plus
  // FEC parity: every data and parity fragment is encoded into the
  // sender's one frame buffer, so nothing is allocated from the first
  // frame to the last.
  for (bool fec_and_crypto : {false, true}) {
    SCOPED_TRACE(fec_and_crypto ? "encrypted, fec_k 3" : "plain");
    EventLoop loop;
    StampPath out;
    test::SinkPath feedback;
    SessionConfig scfg;
    scfg.retransmit = RetransmitPolicy::kNone;
    scfg.checksum = ChecksumKind::kCrc32;
    scfg.encrypt = fec_and_crypto;
    scfg.fec_k = fec_and_crypto ? 3 : 0;
    AlfSender sender(loop, out, feedback, scfg);
    const std::size_t cap = fragment_payload_capacity(out.max_frame_size());
    const ByteBuffer data = payload_of(cap * 39 + 100, 3);
    ASSERT_TRUE(sender.send_adu(generic_name(1), data.span()).ok());
    const std::size_t frames = 40 + (fec_and_crypto ? 14 : 0);
    ASSERT_EQ(out.stamps.size(), frames);
    EXPECT_EQ(out.stamps.back() - out.stamps.front(), 0u)
        << "allocations while framing " << frames - 1 << " fragments";
  }
}

// ---- Sender -> Link -> receiver ---------------------------------------------------

constexpr std::size_t kWarmup = 4096;     // ADUs before counting starts
constexpr std::size_t kMeasured = 4096;   // ADUs counted

/// What flows over the path: the ADU size, the ADUs in flight per step,
/// the checksum, encryption, and whether a 0-worker engine runs the
/// receiver's jobs (inline, settled at the harvest).
struct Shape {
  std::size_t adu_bytes;
  std::size_t window;
  ChecksumKind checksum;
  bool encrypt;
  bool engine;
};

/// small_rpc's shape: 64-byte ADUs (one fragment), CRC-32, W = 32.
constexpr Shape kOneFragment{64, 32, ChecksumKind::kCrc32, false, false};
/// bulk_xdr's shape: 16 KiB ADUs (12 fragments), ChaCha20 and the Internet
/// checksum, W = 8, on an engine.
constexpr Shape kTwelveFragments{16384, 8, ChecksumKind::kInternet, true, true};

/// A sender and a receiver over a gigabit link, chain delivery, no loss,
/// no feedback timers.
struct Loop {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  engine::Engine eng;  // 0 workers: jobs run inline, settle at the harvest
  AlfSender sender;
  AlfReceiver receiver;
  Shape shape;
  ByteBuffer payload;
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::uint64_t events = 0;  ///< loop events run

  static LinkConfig gigabit() {
    LinkConfig lc;
    lc.bandwidth_bps = 1e9;
    lc.propagation_delay = kMillisecond;
    lc.queue_limit = 1 << 16;
    return lc;
  }
  static SessionConfig config(const Shape& shape) {
    SessionConfig scfg;
    scfg.checksum = shape.checksum;
    scfg.encrypt = shape.encrypt;
    scfg.retransmit = RetransmitPolicy::kNone;  // no name book; pinned below
    scfg.progress_interval = 3600 * kSecond;
    scfg.stall_timeout = 0;
    return scfg;
  }

  explicit Loop(const Shape& s)
      : channel(loop, gigabit()),
        data(channel.forward),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sender(loop, data, feedback_rx, config(s)),
        receiver(loop, data, feedback_tx, config(s)),
        shape(s),
        payload(payload_of(s.adu_bytes, 9)) {
    if (s.engine) receiver.set_engine(&eng, 200 * kMicrosecond);
    receiver.set_on_adu_chain([this](AduChain&&) { ++delivered; });
  }

  /// Sends `n` ADUs, a window at a time, each window run to delivery.
  void run(std::size_t n) {
    for (std::size_t end = sent + n; sent < end;) {
      for (std::size_t i = 0; i < shape.window; ++i) {
        ASSERT_TRUE(sender.send_adu(generic_name(sent++), payload.span()).ok());
      }
      while (delivered < sent) events += loop.run_until(loop.now() + kMillisecond);
    }
  }
};

struct Counts {
  std::uint64_t allocs;
  std::uint64_t events;
};

/// Allocations and loop events over kMeasured ADUs after kWarmup.
Counts steady_state(const Shape& shape) {
  Loop l(shape);
  l.run(kWarmup);
  const std::uint64_t before = allocs();
  const std::uint64_t events_before = l.events;
  l.run(kMeasured);
  const Counts c{allocs() - before, l.events - events_before};
  EXPECT_EQ(l.delivered, kWarmup + kMeasured);
  EXPECT_EQ(l.receiver.stats().adus_chain_delivered, kWarmup + kMeasured);
  return c;
}

// Per one-fragment ADU: the sender's staging copy and store entry; the
// receiver's book entry, its one-slice reassembly map and the segment
// array of the chain it delivers. On top, the sender's fragment deque
// takes a 512-byte node every 32 fragments. The frame's one loop event
// allocates nothing.
constexpr std::uint64_t kAllocsPerAdu = 5;
constexpr std::uint64_t kInlineAllocs = kAllocsPerAdu * kMeasured + kMeasured / 32;

TEST(AllocLedger, OneFragmentAduInline) {
  const Counts c = steady_state(kOneFragment);
  EXPECT_EQ(c.allocs, kInlineAllocs) << static_cast<double>(c.allocs) / kMeasured
                                     << " allocations per ADU";
  EXPECT_EQ(c.events, kMeasured) << "one loop event per frame";
}

TEST(AllocLedger, OneFragmentAduThroughAZeroWorkerEngine) {
  // The engine adds its harvest timer, one loop event per window, and no
  // allocation: the timer sits in a reused slot and the completion
  // vectors keep their capacity.
  Shape shape = kOneFragment;
  shape.engine = true;
  const Counts c = steady_state(shape);
  EXPECT_EQ(c.allocs, kInlineAllocs) << static_cast<double>(c.allocs) / kMeasured
                                     << " allocations per ADU";
  EXPECT_EQ(c.events, kMeasured + kMeasured / shape.window)
      << "one loop event per frame plus the harvests";
}

TEST(AllocLedger, TwelveFragmentEncryptedAdu) {
  // bulk_xdr's shape. Per ADU: the staging copy, the sender's store entry,
  // the receiver's book entry, one reassembly-map node per fragment and
  // the chain's segment array, reserved once for the twelve slices; the
  // sender's fragment deque takes a 512-byte node every 32 fragments.
  const Counts c = steady_state(kTwelveFragments);
  constexpr std::uint64_t kFrames = 12;
  EXPECT_EQ(c.allocs, (4 + kFrames) * kMeasured + kFrames * kMeasured / 32)
      << static_cast<double>(c.allocs) / kMeasured << " allocations per ADU";
  // The harvest timer runs once per two ADUs here: its 200 us delay
  // against an ADU every 136 us on the gigabit link.
  EXPECT_EQ(c.events, kFrames * kMeasured + kMeasured / 2)
      << "one loop event per frame plus the harvests";
}

// ---- The recompute name book ------------------------------------------------------

/// Allocations while one sender stages `n` one-fragment ADUs under `policy`.
std::uint64_t staging_allocs(RetransmitPolicy policy, std::size_t n) {
  EventLoop loop;
  test::LoopbackPath out;  // no handler: frames vanish
  test::SinkPath feedback;
  SessionConfig scfg;
  scfg.retransmit = policy;
  AlfSender sender(loop, out, feedback, scfg);
  const ByteBuffer data = payload_of(64, 11);
  const std::uint64_t before = allocs();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(sender.send_adu(generic_name(i), data.span()).ok());
  }
  const std::uint64_t used = allocs() - before;
  EXPECT_EQ(sender.stats().names_held,
            policy == RetransmitPolicy::kApplicationRecompute ? n : 0u);
  return used;
}

TEST(AllocLedger, NameBookForAWholeAssociation) {
  // The same 65,536 ADUs staged with and without the recompute policy:
  // the difference is what the name book allocated. One slot per id,
  // grown by doubling, where a map paid a node per ADU.
  constexpr std::size_t kAdus = std::size_t{1} << 16;
  const std::uint64_t with_names =
      staging_allocs(RetransmitPolicy::kApplicationRecompute, kAdus);
  const std::uint64_t without = staging_allocs(RetransmitPolicy::kNone, kAdus);
  ASSERT_GE(with_names, without);
  EXPECT_LE(with_names - without, 20u);
}

}  // namespace
}  // namespace ngp::alf
