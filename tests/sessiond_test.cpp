// sessiond_test.cpp — the sharded session plane (DESIGN.md §11).
//
// Covers the table in isolation (toy sessions: shard uniformity, LRU idle
// GC, admission control, shed priority), the dispatcher (create-on-first-
// frame, unroutable accounting), the redesigned facade (open/close RAII,
// validation, byte-identical equivalence with the hand-wired idiom, the
// attach set surviving supervised restarts), teardown of a dispatcher
// with frames still arriving, and TSan-visible concurrent dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/session.h"
#include "alf/wire.h"
#include "buf/pool.h"
#include "engine/engine.h"
#include "netsim/fault.h"
#include "netsim/net_path.h"
#include "obs/metrics.h"
#include "presentation/plan.h"
#include "sessiond/session_table.h"
#include "sessiond/sessiond.h"
#include "util/result.h"

#include "test_paths.h"

namespace ngp::sessiond {
namespace {

// ---- helpers ---------------------------------------------------------------

/// Counts frames; optionally records payload sizes. The table calls
/// on_frame with the shard lock held, so the counter is atomic to make the
/// concurrent-dispatch test TSan-meaningful.
class ToySession final : public Session {
 public:
  explicit ToySession(std::atomic<std::uint64_t>* global = nullptr)
      : global_(global) {}
  void on_frame(ConstBytes frame) override {
    frames += 1;
    bytes += frame.size();
    if (global_ != nullptr) global_->fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;

 private:
  std::atomic<std::uint64_t>* global_;
};

/// A complete single-fragment DATA frame for `session`, deliverable as one
/// ADU (frag spans the whole ADU, checksum computed over the payload).
ByteBuffer make_data_frame(std::uint16_t session, std::uint32_t adu_id,
                           std::size_t payload_len = 32) {
  static thread_local std::vector<std::uint8_t> payload;
  payload.assign(payload_len, static_cast<std::uint8_t>(adu_id));
  alf::DataFragment f;
  f.session = session;
  f.adu_id = adu_id;
  f.name = generic_name(adu_id);
  f.adu_len = static_cast<std::uint32_t>(payload.size());
  f.frag_off = 0;
  f.adu_checksum = compute_checksum(ChecksumKind::kInternet,
                                    ConstBytes(payload.data(), payload.size()));
  f.payload = ConstBytes(payload.data(), payload.size());
  return alf::encode_fragment(f);
}

SessionFactory toy_factory(std::atomic<std::uint64_t>* global = nullptr) {
  return [global](const FlowId&, ConstBytes) -> SessionPtr {
    return std::make_unique<ToySession>(global);
  };
}

// ---- wire peeks (satellite 3) ----------------------------------------------

TEST(WirePeek, FlowIdAndTypeFromEveryMessageKind) {
  const ByteBuffer data = make_data_frame(0x1234, 7);
  EXPECT_EQ(alf::peek_message_type(data.span()), alf::MessageType::kData);
  EXPECT_EQ(alf::peek_flow_id(data.span()), 0x1234);

  const ByteBuffer done = alf::encode_done({0xBEEF, 10});
  EXPECT_EQ(alf::peek_message_type(done.span()), alf::MessageType::kDone);
  EXPECT_EQ(alf::peek_flow_id(done.span()), 0xBEEF);

  alf::NackMessage nack;
  nack.session = 42;
  nack.adu_ids = {1, 2};
  const ByteBuffer nb = alf::encode_nack(nack);
  EXPECT_EQ(alf::peek_message_type(nb.span()), alf::MessageType::kNack);
  EXPECT_EQ(alf::peek_flow_id(nb.span()), 42);
}

TEST(WirePeek, SharedBoundsCheckRejectsGarbage) {
  // All three peeks ride one bounds-checked prefix read: short frames, bad
  // magic, and out-of-range types must fail identically.
  const std::uint8_t short_frame[] = {alf::kMagic, 0, 0};
  EXPECT_FALSE(alf::peek_message_type(ConstBytes(short_frame, 3)));
  EXPECT_FALSE(alf::peek_flow_id(ConstBytes(short_frame, 3)));

  std::uint8_t bad_magic[] = {0x42, 0, 0, 1};
  EXPECT_FALSE(alf::peek_message_type(ConstBytes(bad_magic, 4)));
  EXPECT_FALSE(alf::peek_flow_id(ConstBytes(bad_magic, 4)));

  std::uint8_t bad_type[] = {alf::kMagic, 99, 0, 1};
  EXPECT_FALSE(alf::peek_message_type(ConstBytes(bad_type, 4)));
  EXPECT_FALSE(alf::peek_flow_id(ConstBytes(bad_type, 4)));

  EXPECT_FALSE(alf::peek_message_type({}));
  EXPECT_FALSE(alf::peek_flow_id({}));
}

// ---- SessionTable ----------------------------------------------------------

TEST(SessionTable, ShardDistributionIsUniform) {
  SessionTableConfig cfg;
  cfg.shards = 16;
  SessionTable table(cfg);
  ASSERT_EQ(table.shard_count(), 16u);

  constexpr std::size_t kFlows = 8192;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const FlowId flow{static_cast<std::uint32_t>(1 + i / 1000),
                      static_cast<std::uint16_t>(i % 1000)};
    ASSERT_TRUE(table.insert(flow, std::make_unique<ToySession>(), 0).ok());
  }
  EXPECT_EQ(table.size(), kFlows);

  // splitmix64 over sequential keys should land within ±25% of the mean
  // per shard — a loose bound that still catches a broken mixer (identity
  // hash puts sequential session ids in a handful of shards).
  const auto sizes = table.shard_sizes();
  const std::size_t mean = kFlows / sizes.size();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], mean * 3 / 4) << "shard " << i << " underloaded";
    EXPECT_LT(sizes[i], mean * 5 / 4) << "shard " << i << " overloaded";
  }
}

TEST(SessionTable, InsertDuplicateEraseContains) {
  SessionTable table;
  const FlowId flow{1, 7};
  auto r = table.insert(flow, std::make_unique<ToySession>(), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(table.contains(flow));

  auto dup = table.insert(flow, std::make_unique<ToySession>(), 0);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ErrorCode::kDuplicate);
  EXPECT_EQ(table.size(), 1u);

  EXPECT_TRUE(table.erase(flow));
  EXPECT_FALSE(table.contains(flow));
  EXPECT_FALSE(table.erase(flow));
  EXPECT_EQ(table.size(), 0u);
}

TEST(SessionTable, SessionPointersSurviveGrowth) {
  SessionTableConfig cfg;
  cfg.shards = 1;
  cfg.initial_shard_capacity = 4;
  SessionTable table(cfg);

  std::vector<Session*> ptrs;
  for (std::uint16_t i = 0; i < 200; ++i) {
    auto r = table.insert({1, i}, std::make_unique<ToySession>(), 0);
    ASSERT_TRUE(r.ok());
    ptrs.push_back(r.value());
  }
  // Growth rehashes bucket pointers, not entries: the session a flow maps
  // to must be the one insert() returned.
  for (std::uint16_t i = 0; i < 200; ++i) {
    bool found = table.with_session({1, i}, 0, [&](Session& s) {
      EXPECT_EQ(&s, ptrs[i]);
    });
    EXPECT_TRUE(found);
  }
}

TEST(SessionTable, GlobalAdmissionCapRejects) {
  SessionTableConfig cfg;
  cfg.max_sessions = 4;
  SessionTable table(cfg);
  for (std::uint16_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.insert({1, i}, std::make_unique<ToySession>(), 0).ok());
  }
  auto r = table.insert({1, 99}, std::make_unique<ToySession>(), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kLimitExceeded);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.stats().admission_rejects, 1u);

  // Freeing a slot re-opens admission.
  EXPECT_TRUE(table.erase({1, 0}));
  EXPECT_TRUE(table.insert({1, 99}, std::make_unique<ToySession>(), 0).ok());
}

TEST(SessionTable, HighwaterShedsLowestPriorityLeastRecent) {
  SessionTableConfig cfg;
  cfg.shards = 1;  // one shard so every flow contends for the same water line
  cfg.shard_highwater = 3;
  SessionTable table(cfg);
  // session_id 10 is the low-priority flow; everything else outranks it.
  table.set_priority(
      [](const FlowId& f) { return f.session_id == 10 ? 0 : 5; });

  std::vector<std::pair<FlowId, EvictReason>> evicted;
  table.set_on_evict([&](const FlowId& f, Session&, EvictReason why) {
    evicted.emplace_back(f, why);
  });

  ASSERT_TRUE(table.insert({1, 10}, std::make_unique<ToySession>(), 0).ok());
  ASSERT_TRUE(table.insert({1, 11}, std::make_unique<ToySession>(), 1).ok());
  ASSERT_TRUE(table.insert({1, 12}, std::make_unique<ToySession>(), 2).ok());
  // Keep the low-priority flow the MOST recently active: priority must
  // outrank recency when picking the victim.
  EXPECT_TRUE(table.with_session({1, 10}, 3, [](Session&) {}));

  ASSERT_TRUE(table.insert({1, 13}, std::make_unique<ToySession>(), 4).ok());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, (FlowId{1, 10}));
  EXPECT_EQ(evicted[0].second, EvictReason::kShed);
  EXPECT_FALSE(table.contains({1, 10}));
  EXPECT_EQ(table.stats().evictions_shed, 1u);

  // With priorities equal, recency decides: 11 is now the LRU tail.
  ASSERT_TRUE(table.insert({1, 14}, std::make_unique<ToySession>(), 5).ok());
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[1].first, (FlowId{1, 11}));
}

TEST(SessionTable, PinnedEntriesAreNeverShed) {
  SessionTableConfig cfg;
  cfg.shards = 1;
  cfg.shard_highwater = 2;
  SessionTable table(cfg);
  ASSERT_TRUE(
      table.insert({1, 1}, std::make_unique<ToySession>(), 0, true).ok());
  ASSERT_TRUE(
      table.insert({1, 2}, std::make_unique<ToySession>(), 0, true).ok());
  // All residents pinned: no victim, the insert itself must be refused.
  auto r = table.insert({1, 3}, std::make_unique<ToySession>(), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kLimitExceeded);
  EXPECT_TRUE(table.contains({1, 1}));
  EXPECT_TRUE(table.contains({1, 2}));
}

TEST(SessionTable, IdleSweepEvictsStaleKeepsActiveAndPinned) {
  SessionTableConfig cfg;
  cfg.idle_timeout = 100;
  SessionTable table(cfg);
  ASSERT_TRUE(table.insert({1, 1}, std::make_unique<ToySession>(), 0).ok());
  ASSERT_TRUE(table.insert({1, 2}, std::make_unique<ToySession>(), 0).ok());
  ASSERT_TRUE(
      table.insert({1, 3}, std::make_unique<ToySession>(), 0, true).ok());

  std::vector<FlowId> evicted;
  table.set_on_evict([&](const FlowId& f, Session&, EvictReason why) {
    EXPECT_EQ(why, EvictReason::kIdle);
    evicted.push_back(f);
  });

  // Flow 2 stays live via dispatch; flows 1 (unpinned) and 3 (pinned) idle.
  EXPECT_TRUE(table.with_session({1, 2}, 90, [](Session&) {}));
  EXPECT_EQ(table.sweep_idle(150), 1u);  // only the stale unpinned flow
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (FlowId{1, 1}));
  EXPECT_TRUE(table.contains({1, 2}));
  EXPECT_TRUE(table.contains({1, 3}));
  EXPECT_EQ(table.stats().evictions_idle, 1u);

  // Unpinning makes flow 3 sweepable like anything else.
  EXPECT_TRUE(table.pin({1, 3}, false));
  EXPECT_EQ(table.sweep_idle(10'000), 2u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(SessionTable, RouteCreatesOnFirstFrameThenRoutes) {
  SessionTable table;
  const SessionFactory factory = toy_factory();
  const ByteBuffer frame = make_data_frame(5, 1);

  EXPECT_EQ(table.route({1, 5}, 0, frame.span(), &factory),
            SessionTable::RouteOutcome::kCreated);
  EXPECT_EQ(table.route({1, 5}, 1, frame.span(), &factory),
            SessionTable::RouteOutcome::kRouted);
  EXPECT_EQ(table.size(), 1u);

  // Both the creating frame and the routed frame reached the session.
  std::uint64_t frames = 0;
  table.with_session({1, 5}, 2, [&](Session& s) {
    frames = static_cast<ToySession&>(s).frames;
  });
  EXPECT_EQ(frames, 2u);

  // No factory (or a refusing one) -> miss, frame dropped.
  EXPECT_EQ(table.route({1, 6}, 3, frame.span(), nullptr),
            SessionTable::RouteOutcome::kNoSession);
  const SessionFactory refuse = [](const FlowId&, ConstBytes) -> SessionPtr {
    return nullptr;
  };
  EXPECT_EQ(table.route({1, 6}, 4, frame.span(), &refuse),
            SessionTable::RouteOutcome::kNoSession);
}

TEST(SessionTable, RouteReportsAdmissionRejection) {
  SessionTableConfig cfg;
  cfg.max_sessions = 1;
  SessionTable table(cfg);
  const SessionFactory factory = toy_factory();
  const ByteBuffer frame = make_data_frame(1, 1);
  EXPECT_EQ(table.route({1, 1}, 0, frame.span(), &factory),
            SessionTable::RouteOutcome::kCreated);
  EXPECT_EQ(table.route({1, 2}, 1, frame.span(), &factory),
            SessionTable::RouteOutcome::kRejected);
  EXPECT_EQ(table.stats().admission_rejects, 1u);
}

// ---- Dispatcher ------------------------------------------------------------

TEST(Dispatcher, CreateOnFirstFrameAndStats) {
  EventLoop loop;
  SessionTable table;
  Dispatcher dispatcher(loop, table);
  dispatcher.set_factory(toy_factory());

  const std::uint32_t peer_a = 7;
  const std::uint32_t peer_b = 8;
  const ByteBuffer f1 = make_data_frame(100, 1);
  const ByteBuffer f2 = make_data_frame(100, 2);

  dispatcher.dispatch(peer_a, f1.span());  // creates (peer_a, 100)
  dispatcher.dispatch(peer_a, f2.span());  // routes
  dispatcher.dispatch(peer_b, f1.span());  // same session id, OTHER peer:
                                           // a distinct flow, new session
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains({peer_a, 100}));
  EXPECT_TRUE(table.contains({peer_b, 100}));

  const std::uint8_t garbage[] = {0x00, 0x01, 0x02, 0x03};
  dispatcher.dispatch(peer_a, ConstBytes(garbage, 4));

  const Dispatcher::Stats s = dispatcher.stats();
  EXPECT_EQ(s.frames_dispatched, 4u);
  EXPECT_EQ(s.sessions_created, 2u);
  EXPECT_EQ(s.frames_routed, 1u);
  EXPECT_EQ(s.frames_unroutable, 1u);
  EXPECT_EQ(s.creates_rejected, 0u);
}

TEST(Dispatcher, BindAssignsDistinctPeers) {
  EventLoop loop;
  LinkConfig lc;
  DuplexChannel ch_a(loop, lc);
  DuplexChannel ch_b(loop, lc);
  LinkPath in_a(ch_a.forward);
  LinkPath in_b(ch_b.forward);

  SessionTable table;
  Dispatcher dispatcher(loop, table);
  dispatcher.set_factory(toy_factory());
  const std::uint32_t pa = dispatcher.bind(in_a);
  const std::uint32_t pb = dispatcher.bind(in_b);
  EXPECT_NE(pa, pb);

  // The same session id entering through different links lands in
  // different flows — frames delivered through the bound handlers.
  const ByteBuffer frame = make_data_frame(1, 1);
  ch_a.forward.send(frame.span());
  ch_b.forward.send(frame.span());
  loop.run();
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains({pa, 1}));
  EXPECT_TRUE(table.contains({pb, 1}));
}

TEST(Dispatcher, TeardownClearsTheHandlerOnEveryBoundPath) {
  // bind() leaves a handler closing over the dispatcher on each ingress
  // path: once the dispatcher is destroyed, a frame arriving on any of
  // them must drop instead of calling into freed memory.
  EventLoop loop;
  test::LoopbackPath in_a;
  test::LoopbackPath in_b;
  SessionTable table;
  {
    auto dispatcher = std::make_unique<Dispatcher>(loop, table);
    dispatcher->set_factory(toy_factory());
    dispatcher->bind(in_a);
    dispatcher->bind(in_b, 42);
    const ByteBuffer frame = make_data_frame(1, 1);
    in_a.send(frame.span());
    EXPECT_EQ(table.size(), 1u);
  }
  EXPECT_FALSE(in_a.has_handler());
  EXPECT_FALSE(in_b.has_handler());
  const ByteBuffer frame = make_data_frame(2, 1);
  in_a.send(frame.span());
  in_b.send(frame.span());
  EXPECT_EQ(table.size(), 1u);
}

// ---- Sessiond facade -------------------------------------------------------

struct Harness {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath data;
  LinkPath feedback_tx;
  LinkPath feedback_rx;

  explicit Harness(double loss = 0.0, std::uint64_t seed = 2026)
      : channel(loop, make_link(seed)),
        data(channel.forward),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse) {
    channel.forward.set_loss_rate(loss);
  }
  static LinkConfig make_link(std::uint64_t seed) {
    LinkConfig lc;
    lc.bandwidth_bps = 10e6;
    lc.propagation_delay = 5 * kMillisecond;
    lc.seed = seed;
    return lc;
  }
  SessionPaths paths() { return {&data, &feedback_tx, &feedback_rx}; }
};

/// Runs a 20-ADU transfer over a 5% lossy link and returns a deterministic
/// trace: delivery order + final endpoint counters.
std::string run_transfer(alf::AlfSender& sender, alf::AlfReceiver& receiver,
                         EventLoop& loop) {
  std::string trace;
  receiver.set_on_adu([&](Adu&& adu) {
    trace += adu.name.to_string();
    trace += ';';
  });
  ByteBuffer payload(600);
  for (std::uint64_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i);
    }
    EXPECT_TRUE(sender.send_adu(generic_name(i), payload.span()).ok());
  }
  sender.finish();
  loop.run();
  trace += "tx=" + std::to_string(sender.stats().fragments_sent);
  trace += ",rx=" + std::to_string(receiver.stats().adus_delivered);
  trace += ",nack=" + std::to_string(receiver.stats().nacks_sent);
  trace += ",t=" + std::to_string(loop.now());
  return trace;
}

TEST(Sessiond, OpenMatchesHandWiredByteForByte) {
  alf::SessionConfig session;
  session.retransmit = alf::RetransmitPolicy::kTransportBuffered;

  // The idiom this API replaces, exactly as every pre-sessiond example
  // wired it: sender constructed first, then receiver.
  std::string hand_wired;
  {
    Harness h(0.05);
    alf::AlfSender sender(h.loop, h.data, h.feedback_rx, session);
    alf::AlfReceiver receiver(h.loop, h.data, h.feedback_tx, session);
    hand_wired = run_transfer(sender, receiver, h.loop);
  }

  std::string facade;
  {
    Harness h(0.05);
    Sessiond daemon(h.loop);
    auto handle = daemon.open(session, h.paths());
    ASSERT_TRUE(handle.ok());
    facade = run_transfer(handle.value()->sender(), handle.value()->receiver(),
                          h.loop);
  }

  // Identical seeds, identical event sequence: the migration is observable
  // only in the source code.
  EXPECT_EQ(facade, hand_wired);
  EXPECT_NE(hand_wired.find("rx=20"), std::string::npos);
}

TEST(Sessiond, HandleIsRaiiAndCloseIsIdempotent) {
  Harness h;
  Sessiond daemon(h.loop);
  alf::SessionConfig session;

  auto r = daemon.open(session, h.paths());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(daemon.table().size(), 1u);
  EXPECT_TRUE(r.value().valid());
  EXPECT_TRUE(daemon.table().contains(r.value().flow()));

  // Move transfers ownership; the source goes invalid without closing.
  SessionHandle moved = std::move(r.value());
  EXPECT_FALSE(r.value().valid());
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(daemon.table().size(), 1u);

  moved.close();
  EXPECT_FALSE(moved.valid());
  EXPECT_EQ(daemon.table().size(), 0u);
  moved.close();  // idempotent

  // Destruction closes too.
  {
    auto r2 = daemon.open(session, h.paths());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(daemon.table().size(), 1u);
  }
  EXPECT_EQ(daemon.table().size(), 0u);
}

TEST(Sessiond, OpenRejectsInvalidConfigAndDuplicates) {
  Harness h;
  Sessiond daemon(h.loop);

  alf::SessionConfig bad;
  bad.fec_k = 1;
  auto r = daemon.open(bad, h.paths());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kOutOfRange);
  EXPECT_EQ(daemon.table().size(), 0u);

  alf::SessionConfig session;
  EXPECT_FALSE(daemon.open(session, {nullptr, nullptr, nullptr}).ok());

  // Same (peer, session_id) twice is a duplicate flow; auto-peer opens of
  // the same session id are distinct flows by design.
  OpenOptions fixed;
  fixed.peer = 77;
  auto a = daemon.open(session, h.paths(), fixed);
  ASSERT_TRUE(a.ok());
  auto b = daemon.open(session, h.paths(), fixed);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error().code, ErrorCode::kDuplicate);
  auto c = daemon.open(session, h.paths());
  EXPECT_TRUE(c.ok());
}

TEST(Sessiond, OpenedSessionsArePinnedAgainstIdleSweep) {
  Harness h;
  Sessiond::Config cfg;
  cfg.table.idle_timeout = 1 * kMillisecond;
  Sessiond daemon(h.loop, cfg);
  alf::SessionConfig session;
  auto handle = daemon.open(session, h.paths());
  ASSERT_TRUE(handle.ok());

  h.loop.schedule_after(10 * kMillisecond, [] {});
  h.loop.run();
  EXPECT_EQ(daemon.sweep_idle(), 0u);
  EXPECT_EQ(daemon.table().size(), 1u);
}

TEST(Sessiond, SupervisedOpenCompletesUnderLoss) {
  Harness h(0.05);
  Sessiond daemon(h.loop);
  alf::SessionConfig session;
  session.retransmit = alf::RetransmitPolicy::kTransportBuffered;

  OpenOptions opts;
  opts.supervisor.emplace();
  auto handle = daemon.open(session, h.paths(), opts);
  ASSERT_TRUE(handle.ok());
  ASSERT_NE(handle.value()->supervisor(), nullptr);

  bool complete = false;
  std::uint64_t delivered = 0;
  handle.value()->set_on_adu([&](Adu&&) { ++delivered; });
  handle.value()->set_on_complete([&] { complete = true; });

  ByteBuffer payload(400);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(handle.value()->send_adu(generic_name(i), payload.span()).ok());
  }
  handle.value()->finish();
  h.loop.run();
  EXPECT_TRUE(complete);
  EXPECT_EQ(delivered, 10u);
}

TEST(Sessiond, SupervisedRestartKeepsTheWholeAttachSet) {
  // open() forwards OpenOptions::attach whole to the supervisor, which
  // applies it to every receiver incarnation: after a forced restart the
  // live receiver still offloads to the engine, copies into the session's
  // pool and fuses the plan.
  EventLoop loop;
  LinkConfig lc;
  lc.bandwidth_bps = 100e6;
  lc.propagation_delay = 2 * kMillisecond;
  lc.queue_limit = 1 << 16;
  DuplexChannel channel(loop, lc);
  buf::BufferPool link_pool;
  buf::BufferPool rx_pool;
  channel.forward.set_rx_pool(&link_pool);
  channel.reverse.set_rx_pool(&link_pool);
  LinkPath raw_data(channel.forward);
  // The outage outlasts the stall watchdog (one restart). FaultyPath hands
  // the receiver copies of the frames, so every placement is a copy into
  // whichever pool the live incarnation has attached.
  FaultPlan outage;
  outage.seed = 99;
  outage.scheduled_outages.push_back({3 * kMillisecond, 800 * kMillisecond});
  FaultyPath data(loop, raw_data, outage);
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);

  engine::Engine eng;  // workers = 0: inline, deterministic
  alf::SessionConfig session;
  session.syntax = TransferSyntax::kXdr;
  session.stall_timeout = 400 * kMillisecond;
  session.nack_delay = 10 * kMillisecond;
  session.nack_retry = 20 * kMillisecond;
  session.max_nacks = 30;
  const auto plan = presentation::cached_plan(
      RecordSchema{"ints", {FieldType::kInt32Array}}, session.syntax);

  Sessiond daemon(loop);
  OpenOptions opts;
  opts.supervisor = resilience::SupervisorConfig{
      .restart_backoff = 50 * kMillisecond};
  opts.attach.engine = &eng;
  opts.attach.rx_pool = &rx_pool;
  opts.attach.presentation = plan;
  auto handle = daemon.open(session, {&data, &feedback_tx, &feedback_rx}, opts);
  ASSERT_TRUE(handle.ok());
  bool complete = false;
  std::uint64_t delivered = 0;
  handle.value()->set_on_adu([&](Adu&&) { ++delivered; });
  handle.value()->set_on_complete([&] { complete = true; });

  const std::uint64_t default_allocs = buf::default_pool().stats().allocs;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const Record rec{std::vector<std::int32_t>(1000, static_cast<std::int32_t>(i))};
    auto wire = presentation::plan_encode(*plan, rec);
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE(handle.value()->send_adu(generic_name(i), wire->span()).ok());
  }
  handle.value()->finish();
  loop.run();

  ASSERT_TRUE(complete);
  EXPECT_EQ(delivered, 20u);
  ASSERT_GE(handle.value()->supervisor()->stats().restarts, 1u);
  const alf::ReceiverStats& st = handle.value()->receiver().stats();
  EXPECT_GT(st.adus_engine_offloaded, 0u);
  EXPECT_GT(st.adus_presentation_fused, 0u);
  EXPECT_GT(st.fragments_pool_copied, 0u);
  // Every placement copy, in every incarnation, went to the attached pool.
  EXPECT_EQ(buf::default_pool().stats().allocs, default_allocs);
}

TEST(Sessiond, ReceiverFactoryServesDemuxedFlows) {
  // The server shape: one ingress link, one feedback egress, sessions
  // materialized by the dispatcher as flows appear.
  EventLoop loop;
  LinkConfig lc;
  lc.seed = 7;
  DuplexChannel ch(loop, lc);
  LinkPath ingress(ch.forward);
  LinkPath feedback(ch.reverse);

  Sessiond daemon(loop);
  std::vector<std::string> delivered;
  alf::SessionConfig base;
  ReceiverFactoryOptions fopts;
  fopts.configure = [&](const FlowId& flow, alf::AlfReceiver& rx) {
    rx.set_on_adu([&delivered, flow](Adu&& adu) {
      delivered.push_back(std::to_string(flow.session_id) + ":" +
                          adu.name.to_string());
    });
  };
  daemon.set_factory(alf_receiver_factory(loop, feedback, base, fopts));
  daemon.bind(ingress);

  for (std::uint16_t sid = 1; sid <= 3; ++sid) {
    const ByteBuffer frame = make_data_frame(sid, 1, 64);
    ch.forward.send(frame.span());
  }
  loop.run();

  EXPECT_EQ(daemon.table().size(), 3u);
  EXPECT_EQ(daemon.dispatcher().stats().sessions_created, 3u);
  ASSERT_EQ(delivered.size(), 3u);  // single-fragment ADUs deliver on arrival
}

TEST(Sessiond, EvictHookAndMetricsSnapshotsAreByteIdentical) {
  // One deterministic scenario, run twice: the exported metrics JSON (the
  // aggregation order, the per-shard nesting, every counter) must match
  // byte for byte — ISSUE.md's reproducibility bar for the new plane.
  auto run_once = [] {
    EventLoop loop;
    Sessiond::Config cfg;
    cfg.table.shards = 4;
    cfg.table.idle_timeout = 10 * kMillisecond;
    Sessiond daemon(loop, cfg);
    daemon.set_factory(toy_factory());

    std::size_t idle_evictions = 0;
    daemon.set_on_evict([&](const FlowId&, EvictReason why) {
      if (why == EvictReason::kIdle) ++idle_evictions;
    });

    obs::MetricsRegistry registry;
    registry.add("sessiond", daemon);

    for (std::uint16_t sid = 0; sid < 64; ++sid) {
      const ByteBuffer frame = make_data_frame(sid, 1);
      daemon.dispatcher().dispatch(1, frame.span());
    }
    // Keep even-numbered flows warm past the horizon, sweep the rest.
    loop.schedule_after(8 * kMillisecond, [&daemon, &loop] {
      for (std::uint16_t sid = 0; sid < 64; sid += 2) {
        const ByteBuffer frame = make_data_frame(sid, 2);
        daemon.dispatcher().dispatch(1, frame.span());
      }
      loop.schedule_after(4 * kMillisecond,
                          [&daemon] { daemon.sweep_idle(); });
    });
    loop.run();

    EXPECT_EQ(idle_evictions, 32u);
    EXPECT_EQ(daemon.table().size(), 32u);
    return registry.snapshot().to_json();
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("sessiond.table.shard0.occupancy"), std::string::npos);
  EXPECT_NE(first.find("sessiond.dispatch.sessions_created"),
            std::string::npos);
}

// ---- locking & admission regressions ---------------------------------------

/// Erases its own flow the moment a frame arrives — the table must accept
/// same-shard re-entry from under its own dispatch lock.
class SelfErasingSession final : public Session {
 public:
  SelfErasingSession(SessionTable& table, FlowId flow, int* frames)
      : table_(table), flow_(flow), frames_(frames) {}
  void on_frame(ConstBytes) override {
    *frames_ += 1;
    EXPECT_TRUE(table_.erase(flow_));
    EXPECT_FALSE(table_.contains(flow_));  // removal is visible immediately
  }

 private:
  SessionTable& table_;
  FlowId flow_;
  int* frames_;
};

TEST(SessionTable, SessionMayEraseItselfFromItsOwnDispatch) {
  SessionTable table;
  const FlowId flow{1, 7};
  int frames = 0;
  ASSERT_TRUE(
      table.insert(flow, std::make_unique<SelfErasingSession>(table, flow, &frames), 0)
          .ok());

  // route() holds the shard lock across on_frame; the erase inside used to
  // deadlock on the non-recursive shard mutex.
  const ByteBuffer f = make_data_frame(7, 1);
  EXPECT_EQ(table.route(flow, 0, f.span(), nullptr),
            SessionTable::RouteOutcome::kRouted);
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(table.size(), 0u);

  // Same guarantee through the with_session functor.
  ASSERT_TRUE(table.insert(flow, std::make_unique<ToySession>(), 0).ok());
  EXPECT_TRUE(table.with_session(
      flow, 0, [&](Session&) { EXPECT_TRUE(table.erase(flow)); }));
  EXPECT_EQ(table.size(), 0u);
}

TEST(SessionTable, EvictionCallbacksRunOutsideTheShardLock) {
  SessionTableConfig cfg;
  cfg.shards = 1;
  cfg.idle_timeout = 10;
  SessionTable table(cfg);
  ASSERT_TRUE(table.insert({1, 1}, std::make_unique<ToySession>(), 0).ok());
  ASSERT_TRUE(table.insert({1, 2}, std::make_unique<ToySession>(), 0).ok());
  ASSERT_TRUE(table.insert({1, 3}, std::make_unique<ToySession>(), 5).ok());

  std::size_t evictions = 0;
  table.set_on_evict([&](const FlowId& flow, Session&, EvictReason why) {
    EXPECT_EQ(why, EvictReason::kIdle);
    ++evictions;
    // The hook fires after the shard unlocks: re-entering the table —
    // lookups, stats, even inserting a replacement into the same shard —
    // must not deadlock.
    EXPECT_FALSE(table.contains(flow));
    (void)table.stats();
    if (flow.session_id == 1) {
      ASSERT_TRUE(table.insert({2, 1}, std::make_unique<ToySession>(), 12).ok());
    }
  });
  EXPECT_EQ(table.sweep_idle(12), 2u);  // {1,1} and {1,2} idle; {1,3} warm
  EXPECT_EQ(evictions, 2u);
  EXPECT_TRUE(table.contains({2, 1}));
  EXPECT_EQ(table.size(), 2u);
}

TEST(SessionTable, RejectedInsertNeverCostsAResidentSession) {
  SessionTableConfig cfg;
  cfg.shards = 1;
  cfg.max_sessions = 3;
  cfg.shard_highwater = 3;
  SessionTable table(cfg);
  for (std::uint16_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(table.insert({1, i}, std::make_unique<ToySession>(), i).ok());
  }
  EXPECT_EQ(table.size(), 3u);

  // At the global cap AND the shard's high water: admit by replacement —
  // the coldest resident ({1,0}) is shed only once admission is certain.
  ASSERT_TRUE(table.insert({1, 100}, std::make_unique<ToySession>(), 10).ok());
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.stats().evictions_shed, 1u);
  EXPECT_FALSE(table.contains({1, 0}));

  // With every resident pinned the insert is refused — and the refusal
  // must not have shed anyone first (the net-loss bug: evict, then find
  // the cap rejects the newcomer anyway).
  for (const FlowId f : {FlowId{1, 1}, FlowId{1, 2}, FlowId{1, 100}}) {
    ASSERT_TRUE(table.pin(f, true));
  }
  auto r = table.insert({1, 101}, std::make_unique<ToySession>(), 11);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kLimitExceeded);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.stats().evictions_shed, 1u);  // unchanged
  EXPECT_EQ(table.stats().admission_rejects, 1u);
}

TEST(Sessiond, FailedOpenLeavesResidentSessionLive) {
  Harness h;
  Sessiond daemon(h.loop);
  alf::SessionConfig session;
  OpenOptions fixed;
  fixed.peer = 77;
  auto a = daemon.open(session, h.paths(), fixed);
  ASSERT_TRUE(a.ok());

  // A duplicate open must fail WITHOUT touching the shared paths: open()
  // used to construct endpoints first, which re-registered (then, on the
  // rejected insert, orphaned) the very handlers session `a` lives on.
  ASSERT_FALSE(daemon.open(session, h.paths(), fixed).ok());
  EXPECT_EQ(daemon.table().size(), 1u);

  // The resident association still works end to end.
  bool complete = false;
  std::uint64_t delivered = 0;
  a.value()->set_on_adu([&](Adu&&) { ++delivered; });
  a.value()->set_on_complete([&] { complete = true; });
  ByteBuffer payload(256);
  ASSERT_TRUE(a.value()->send_adu(generic_name(1), payload.span()).ok());
  a.value()->finish();
  h.loop.run();
  EXPECT_TRUE(complete);
  EXPECT_EQ(delivered, 1u);
}

TEST(Sessiond, CloseWithFramesInFlightIsSafe) {
  Harness h;
  Sessiond daemon(h.loop);
  alf::SessionConfig session;
  auto handle = daemon.open(session, h.paths());
  ASSERT_TRUE(handle.ok());

  // Close while frames are still in the simulated pipe: the destroyed
  // endpoints unregister their path handlers, so late deliveries drop on
  // a handlerless path instead of calling into freed objects.
  ByteBuffer payload(256);
  ASSERT_TRUE(handle.value()->send_adu(generic_name(1), payload.span()).ok());
  handle.value().close();
  EXPECT_EQ(daemon.table().size(), 0u);
  h.loop.run();
}

TEST(Sessiond, FactorySessionMayEraseItselfOnComplete) {
  // The natural server cleanup: a demuxed flow removes itself the moment
  // its transfer completes. on_complete fires inside route() — under the
  // owning shard's lock — so this deadlocked before same-shard re-entry
  // was supported.
  EventLoop loop;
  LinkConfig lc;
  lc.seed = 9;
  DuplexChannel ch(loop, lc);
  LinkPath ingress(ch.forward);
  LinkPath feedback(ch.reverse);

  Sessiond daemon(loop);
  std::uint64_t completions = 0;
  alf::SessionConfig base;
  ReceiverFactoryOptions fopts;
  fopts.configure = [&](const FlowId& flow, alf::AlfReceiver& rx) {
    rx.set_on_complete([&completions, &daemon, flow] {
      ++completions;
      EXPECT_TRUE(daemon.table().erase(flow));
    });
  };
  daemon.set_factory(alf_receiver_factory(loop, feedback, base, fopts));
  daemon.bind(ingress);

  const ByteBuffer data = make_data_frame(5, 1);
  ch.forward.send(data.span());
  const ByteBuffer done = alf::encode_done({5, 1});
  ch.forward.send(done.span());
  loop.run();

  EXPECT_EQ(completions, 1u);
  EXPECT_EQ(daemon.table().size(), 0u);
  EXPECT_EQ(daemon.dispatcher().stats().sessions_created, 1u);
}

TEST(Sessiond, SetFlightIsIdempotentPerRecorder) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "NGP_OBS=OFF build";
  EventLoop loop;
  Sessiond daemon(loop);
  obs::FlightRecorder flight(+[](const void*) -> SimTime { return 0; },
                             nullptr);
  const std::size_t before = flight.track_count();
  daemon.set_flight(&flight);
  daemon.set_flight(&flight);  // repeat enable: no duplicate track
  EXPECT_EQ(flight.track_count(), before + 1);
  daemon.set_flight(nullptr);  // disable...
  daemon.set_flight(&flight);  // ...and re-enable: cached track reused
  EXPECT_EQ(flight.track_count(), before + 1);
}

// ---- concurrency (TSan lane) -----------------------------------------------

TEST(SessionTableThreads, ConcurrentDispatchAcrossShards) {
  // Many writer threads, one table: create-on-first-frame races on every
  // shard, then sustained routing. TSan must see clean per-shard locking;
  // the counts prove no frame was lost or double-applied.
  SessionTableConfig cfg;
  cfg.shards = 8;
  SessionTable table(cfg);
  std::atomic<std::uint64_t> total_frames{0};
  const SessionFactory factory = toy_factory(&total_frames);

  constexpr int kThreads = 4;
  constexpr int kFlowsPerThread = 64;
  constexpr int kFramesPerFlow = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFramesPerFlow; ++i) {
        for (int f = 0; f < kFlowsPerThread; ++f) {
          const FlowId flow{static_cast<std::uint32_t>(t + 1),
                            static_cast<std::uint16_t>(f)};
          const ByteBuffer frame =
              make_data_frame(flow.session_id, static_cast<std::uint32_t>(i));
          const auto outcome = table.route(flow, i, frame.span(), &factory);
          ASSERT_TRUE(outcome == SessionTable::RouteOutcome::kRouted ||
                      outcome == SessionTable::RouteOutcome::kCreated);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(table.size(),
            static_cast<std::size_t>(kThreads * kFlowsPerThread));
  EXPECT_EQ(total_frames.load(),
            static_cast<std::uint64_t>(kThreads * kFlowsPerThread *
                                       kFramesPerFlow));
  const SessionTableStats stats = table.stats();
  EXPECT_EQ(stats.inserts,
            static_cast<std::uint64_t>(kThreads * kFlowsPerThread));
  EXPECT_EQ(stats.occupancy, table.size());
}

}  // namespace
}  // namespace ngp::sessiond
