// Reliable delivery over faulty rails (ISSUE 2): lossy-link injection,
// ack/retransmit with exponential backoff, duplicate/out-of-order
// suppression, payload CRC repair, and rail failover.
//
// All tests but ReliabilityHold run on the deterministic SimWorld fabric
// with seeded fault plans, so every loss/duplication/reordering pattern
// replays bit-identically. ReliabilityHold runs shm rails under real
// progress threads and wall-clock timers.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

EngineConfig reliable_cfg() {
  EngineConfig cfg;
  cfg.reliability = true;
  cfg.payload_crc = true;
  return cfg;
}

drv::FaultPlan lossy_plan(std::uint64_t seed) {
  drv::FaultPlan plan;
  plan.drop = 0.01;
  plan.corrupt = 0.001;
  plan.duplicate = 0.005;
  plan.reorder = 0.005;
  plan.seed = seed;
  return plan;
}

class ReliabilityTest : public ::testing::Test {
 protected:
  void build(const EngineConfig& cfg, const drv::FaultPlan& plan_ab,
             const drv::FaultPlan& plan_ba,
             const drv::Capabilities& caps = drv::test_profile()) {
    world_ = std::make_unique<SimWorld>(2, cfg);
    world_->connect(0, 1, caps, plan_ab, plan_ba);
    a_ = world_->node(0).open_channel(1, 7);
    b_ = world_->node(1).open_channel(0, 7);
  }

  std::unique_ptr<SimWorld> world_;
  Channel a_, b_;
};

// Acceptance: 1% drop + 0.1% corrupt + duplication + reordering still
// delivers every message exactly once, in per-channel order, with the
// retransmit machinery visibly doing work.
TEST_F(ReliabilityTest, LossyEagerDeliversExactlyOnceInOrder) {
  build(reliable_cfg(), lossy_plan(11), lossy_plan(22));
  constexpr std::size_t kMsgs = 300;
  std::vector<SendHandle> handles;
  handles.reserve(kMsgs);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const std::size_t n = 64 + (i % 7) * 199;
    handles.push_back(
        send_bytes(a_, pattern(n, static_cast<std::uint32_t>(i))));
  }
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const std::size_t n = 64 + (i % 7) * 199;
    EXPECT_EQ(recv_bytes(b_, n), pattern(n, static_cast<std::uint32_t>(i)))
        << "message " << i;
  }
  for (const SendHandle& h : handles) EXPECT_TRUE(world_->node(0).wait_send(h));
  EXPECT_TRUE(world_->node(0).flush());

  // The wire really was faulty, and the reliability layer really repaired it.
  const drv::FaultStats& faults = world_->endpoint(0, 1, 0).fault_stats();
  EXPECT_GT(faults.dropped, 0u);
  auto& tx = world_->node(0).stats();
  auto& rx = world_->node(1).stats();
  EXPECT_GT(tx.counter("rel.retransmits"), 0u);
  EXPECT_GT(tx.counter("rel.acks_rx"), 0u);
  EXPECT_GT(rx.counter("rel.acks_tx"), 0u);
  // Exactly once: the receiver completed precisely kMsgs messages even
  // though duplicates and retransmits arrived.
  EXPECT_EQ(rx.counter("rx.msgs_completed"), kMsgs);
}

// Rendezvous bulk (stream 1) under the same faults: RTS/CTS control and the
// chunk stream are both retransmitted until the transfer completes.
TEST_F(ReliabilityTest, LossyRendezvousDeliversExactlyOnce) {
  EngineConfig cfg = reliable_cfg();
  cfg.rdv_chunk = 4096;
  build(cfg, lossy_plan(33), lossy_plan(44));
  const Bytes big = pattern(256 * 1024, 9);
  send_bytes(a_, big, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, big.size()), big);
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_EQ(world_->node(1).stats().counter("rx.msgs_completed"), 1u);
  EXPECT_GT(world_->node(0).stats().counter("rel.retransmits"), 0u);
}

// A flipped payload bit is caught by the payload CRC (or, if it lands in
// the header, by the header CRC), the packet is dropped, and retransmission
// repairs the stream — the application sees clean bytes.
TEST_F(ReliabilityTest, CorruptedPayloadIsDroppedAndRepaired) {
  drv::FaultPlan plan;
  plan.corrupt = 0.10;
  plan.seed = 55;
  build(reliable_cfg(), plan, {});
  constexpr std::size_t kMsgs = 200;
  for (std::size_t i = 0; i < kMsgs; ++i)
    send_bytes(a_, pattern(512, static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < kMsgs; ++i)
    EXPECT_EQ(recv_bytes(b_, 512), pattern(512, static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(world_->node(0).flush());
  const drv::FaultStats& faults = world_->endpoint(0, 1, 0).fault_stats();
  EXPECT_GT(faults.corrupted, 0u);
  auto& rx = world_->node(1).stats();
  // Every corrupted packet was rejected by one of the two CRC layers.
  EXPECT_GT(rx.counter("rel.payload_crc_drops") + rx.counter("rx.malformed"),
            0u);
  EXPECT_EQ(rx.counter("rx.msgs_completed"), kMsgs);
}

// Duplicated and reordered packets are suppressed on RX: the go-back-N
// receiver only ever accepts the next expected sequence.
TEST_F(ReliabilityTest, DuplicationAndReorderingAreSuppressed) {
  drv::FaultPlan plan;
  plan.duplicate = 0.2;
  plan.reorder = 0.2;
  plan.seed = 66;
  build(reliable_cfg(), plan, {});
  constexpr std::size_t kMsgs = 150;
  for (std::size_t i = 0; i < kMsgs; ++i)
    send_bytes(a_, pattern(128, static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < kMsgs; ++i)
    EXPECT_EQ(recv_bytes(b_, 128), pattern(128, static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(world_->node(0).flush());
  const drv::FaultStats& faults = world_->endpoint(0, 1, 0).fault_stats();
  EXPECT_GT(faults.duplicated, 0u);
  auto& rx = world_->node(1).stats();
  EXPECT_GT(rx.counter("rel.dup_drops") + rx.counter("rel.ooo_drops"), 0u);
  EXPECT_EQ(rx.counter("rx.msgs_completed"), kMsgs);
}

// Acceptance: killing one of two rails mid-stream completes the transfer on
// the survivor. The un-acked chunks on the dead rail are replayed.
TEST_F(ReliabilityTest, FailoverMidStreamCompletesOnSurvivor) {
  EngineConfig cfg = reliable_cfg();
  cfg.rdv_chunk = 16 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::mx_myrinet_profile());
  a_ = world_->node(0).open_channel(1, 7, TrafficClass::Bulk);
  b_ = world_->node(1).open_channel(0, 7, TrafficClass::Bulk);

  const Bytes big = pattern(1 << 20, 3);
  send_bytes(a_, big, SendMode::Later);
  Bytes out(big.size());
  IncomingMessage im = b_.begin_recv();
  im.unpack(out.data(), out.size(), RecvMode::Cheaper);
  // Let the split bulk stream make real progress on both rails...
  world_->run_until([&] {
    return world_->node(1).stats().counter("rx.bulk_chunks") >= 8;
  });
  // ...then pull the cable on rail 0.
  world_->fail_link(0, 1, 0);
  im.finish();
  EXPECT_EQ(out, big);
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_GE(world_->node(0).stats().counter("rel.rail_failovers"), 1u);

  // Post-failover traffic routes to the survivor transparently.
  send_bytes(a_, pattern(256, 42));
  EXPECT_EQ(recv_bytes(b_, 256), pattern(256, 42));
}

// Eager backlog + in-flight packets fail over too: kill the rail right
// after posting, before anything is acknowledged.
TEST_F(ReliabilityTest, EagerBacklogFailsOverInOrder) {
  EngineConfig cfg = reliable_cfg();
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  constexpr std::size_t kMsgs = 40;
  for (std::size_t i = 0; i < kMsgs; ++i)
    send_bytes(a_, pattern(96, static_cast<std::uint32_t>(i)));
  world_->fail_link(0, 1, 0);  // in-flight packets are lost on the wire
  for (std::size_t i = 0; i < kMsgs; ++i)
    EXPECT_EQ(recv_bytes(b_, 96), pattern(96, static_cast<std::uint32_t>(i)))
        << "message " << i;
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_GE(world_->node(0).stats().counter("rel.rail_failovers"), 1u);
}

// A later message on a channel may overtake an earlier one on a faster
// rail and be finished first. The receiver's replay filter must drop only
// fragments of finished messages, not those of the earlier one still open.
TEST_F(ReliabilityTest, MessageFinishedFirstKeepsEarlierOpenMessage) {
  world_ = std::make_unique<SimWorld>(2, reliable_cfg());
  world_->connect(0, 1, drv::tcp_gige_profile());
  world_->connect(0, 1, drv::mx_myrinet_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  send_bytes(a_, pattern(2000, 0));  // message 0, on the slow rail 0
  world_->node(0).set_class_rail(TrafficClass::SmallEager, 1);
  send_bytes(a_, pattern(64, 1));  // message 1, on the fast rail 1
  IncomingMessage m0 = b_.begin_recv();
  IncomingMessage m1 = b_.begin_recv();
  Bytes out1(64);
  m1.unpack(out1.data(), out1.size());
  m1.finish();
  EXPECT_EQ(out1, pattern(64, 1));
  world_->run();  // message 0 lands, on the slow rail
  EXPECT_EQ(world_->node(1).stats().counter("rel.dup_drops"), 0u);
  Bytes out0(2000);
  m0.unpack(out0.data(), out0.size());
  m0.finish();
  EXPECT_EQ(out0, pattern(2000, 0));
  EXPECT_TRUE(world_->node(0).flush());
}

// Snapshot rail state stays consistent with the failure machinery
// (satellite: RailInfo state / unacked bookkeeping).
TEST_F(ReliabilityTest, SnapshotReportsRailStates) {
  EngineConfig cfg = reliable_cfg();
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  send_bytes(a_, pattern(64, 1));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 1));

  Engine::Snapshot before = world_->node(0).snapshot();
  ASSERT_EQ(before.peers.size(), 1u);
  ASSERT_EQ(before.peers[0].rails.size(), 2u);
  for (const auto& ri : before.peers[0].rails)
    EXPECT_EQ(ri.state, RailState::Up);

  world_->fail_link(0, 1, 0);
  world_->run();

  for (NodeId n = 0; n < 2; ++n) {
    Engine::Snapshot after = world_->node(n).snapshot();
    ASSERT_EQ(after.peers[0].rails.size(), 2u);
    EXPECT_EQ(after.peers[0].rails[0].state, RailState::Down);
    EXPECT_EQ(after.peers[0].rails[1].state, RailState::Up);
    EXPECT_EQ(after.peers[0].rails[0].unacked_packets, 0u)
        << "dead rail must hold no un-acked traffic after failover";
    EXPECT_NE(after.to_string().find("state=down"), std::string::npos);
  }

  // The dead rail never carries new traffic.
  send_bytes(a_, pattern(64, 2));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 2));
  EXPECT_TRUE(world_->node(0).flush());
}

// With every rail dead and no survivor, sends fail fast instead of hanging:
// wait_send() returns false, send_failed() turns true, flush() still
// terminates.
TEST_F(ReliabilityTest, AllRailsDeadFailsSendsFast) {
  build(reliable_cfg(), {}, {});
  send_bytes(a_, pattern(64, 1));
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 1));

  world_->fail_link(0, 1, 0);
  world_->run();

  SendHandle h = send_bytes(a_, pattern(64, 2));
  EXPECT_FALSE(world_->node(0).wait_send(h));
  EXPECT_TRUE(world_->node(0).send_failed(h));
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_GT(world_->node(0).stats().counter("rel.failed_sends"), 0u);
}

// A black-hole link (100% loss one way) exhausts the retry budget: the RTO
// backs off exponentially, the rail degrades, and the engine finally gives
// up and declares it Down.
TEST_F(ReliabilityTest, RetryBudgetExhaustionFailsRail) {
  drv::FaultPlan black_hole;
  black_hole.drop = 1.0;
  black_hole.seed = 77;
  build(reliable_cfg(), black_hole, {});
  SendHandle h = send_bytes(a_, pattern(256, 1));
  EXPECT_FALSE(world_->node(0).wait_send(h));
  EXPECT_TRUE(world_->node(0).send_failed(h));
  auto& st = world_->node(0).stats();
  EXPECT_GE(st.counter("rel.rto_backoffs"), kRelMaxRetries);
  EXPECT_GT(st.counter("rel.retransmits"), 0u);
  Engine::Snapshot snap = world_->node(0).snapshot();
  EXPECT_EQ(snap.peers[0].rails[0].state, RailState::Down);
  EXPECT_TRUE(world_->node(0).flush());
}

// Two reliable senders whose eager windows are both full still ack each
// other: no data packet can leave to carry the owed ack, so it goes out on
// its own. Retransmissions carry only the acks of their first transmission,
// so without that, neither window ever opens and both rails die after the
// retry budget.
TEST_F(ReliabilityTest, TinyWindowBidirectionalCompletes) {
  for (const char* strategy : {"fifo", "aggreg"}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(std::string(strategy) + ", window " +
                   std::to_string(window));
      EngineConfig cfg = reliable_cfg();
      cfg.strategy = strategy;
      cfg.rel_window = window;
      build(cfg, {}, {});
      constexpr std::uint32_t kMsgs = 300;
      std::vector<SendHandle> ha, hb;
      for (std::uint32_t i = 0; i < kMsgs; ++i) {
        ha.push_back(send_bytes(a_, pattern(256, i)));
        hb.push_back(send_bytes(b_, pattern(256, kMsgs + i)));
      }
      for (std::uint32_t i = 0; i < kMsgs; ++i) {
        ASSERT_TRUE(world_->node(0).wait_send(ha[i])) << "a→b send " << i;
        ASSERT_TRUE(world_->node(1).wait_send(hb[i])) << "b→a send " << i;
      }
      for (std::uint32_t i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(recv_bytes(b_, 256), pattern(256, i)) << i;
        EXPECT_EQ(recv_bytes(a_, 256), pattern(256, kMsgs + i)) << i;
      }
      for (NodeId n : {NodeId{0}, NodeId{1}}) {
        auto& st = world_->node(n).stats();
        EXPECT_EQ(st.counter("rel.rail_failovers"), 0u) << "node " << n;
        EXPECT_GT(st.counter("rel.acks_tx"), 0u) << "node " << n;
      }
    }
  }
}

// Randomized soak (satellite): two lossy rails, three channels with mixed
// eager/rendezvous sizes, bidirectional traffic, and a scheduled
// mid-transfer link failure on rail 1 (FaultPlan::fail_at). Everything must
// arrive exactly once, in per-channel order.
TEST_F(ReliabilityTest, RandomizedLossySoakWithScheduledFailover) {
  EngineConfig cfg = reliable_cfg();
  cfg.rdv_chunk = 8 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  drv::FaultPlan heavy_ab = lossy_plan(101);
  drv::FaultPlan heavy_ba = lossy_plan(102);
  heavy_ab.drop = heavy_ba.drop = 0.02;
  world_->connect(0, 1, drv::mx_myrinet_profile(), heavy_ab, heavy_ba);
  drv::FaultPlan dying = lossy_plan(103);
  dying.fail_at = 2 * kNanosPerMilli;  // cable pulled mid-soak
  world_->connect(0, 1, drv::mx_myrinet_profile(), dying, lossy_plan(104));

  Channel a1 = world_->node(0).open_channel(1, 7);
  Channel b1 = world_->node(1).open_channel(0, 7);
  Channel a2 = world_->node(0).open_channel(1, 8, TrafficClass::Bulk);
  Channel b2 = world_->node(1).open_channel(0, 8, TrafficClass::Bulk);
  Channel a3 = world_->node(0).open_channel(1, 9);
  Channel b3 = world_->node(1).open_channel(0, 9);

  constexpr std::size_t kSmall = 120;
  constexpr std::size_t kBulk = 12;
  constexpr std::size_t kBack = 60;
  for (std::size_t i = 0; i < kSmall; ++i) {
    const std::size_t n = 32 + (i % 11) * 331;
    send_bytes(a1, pattern(n, static_cast<std::uint32_t>(1000 + i)));
  }
  std::vector<Bytes> bulk_payloads;  // SendMode::Later references in place
  bulk_payloads.reserve(kBulk);
  for (std::size_t i = 0; i < kBulk; ++i) {
    bulk_payloads.push_back(
        pattern(48 * 1024, static_cast<std::uint32_t>(2000 + i)));
    send_bytes(a2, bulk_payloads.back(), SendMode::Later);
  }
  for (std::size_t i = 0; i < kBack; ++i)
    send_bytes(b3, pattern(512, static_cast<std::uint32_t>(3000 + i)));

  for (std::size_t i = 0; i < kSmall; ++i) {
    const std::size_t n = 32 + (i % 11) * 331;
    EXPECT_EQ(recv_bytes(b1, n),
              pattern(n, static_cast<std::uint32_t>(1000 + i)))
        << "small " << i;
  }
  for (std::size_t i = 0; i < kBulk; ++i)
    EXPECT_EQ(recv_bytes(b2, 48 * 1024),
              pattern(48 * 1024, static_cast<std::uint32_t>(2000 + i)))
        << "bulk " << i;
  for (std::size_t i = 0; i < kBack; ++i)
    EXPECT_EQ(recv_bytes(a3, 512),
              pattern(512, static_cast<std::uint32_t>(3000 + i)))
        << "back " << i;

  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_TRUE(world_->node(1).flush());
  auto& s0 = world_->node(0).stats();
  auto& s1 = world_->node(1).stats();
  EXPECT_EQ(s1.counter("rx.msgs_completed"), kSmall + kBulk);
  EXPECT_EQ(s0.counter("rx.msgs_completed"), kBack);
  EXPECT_GT(s0.counter("rel.retransmits") + s1.counter("rel.retransmits"), 0u);
  EXPECT_GE(s0.counter("rel.rail_failovers") + s1.counter("rel.rail_failovers"),
            1u);
  // Rail 1 really died on both sides.
  EXPECT_EQ(world_->node(0).snapshot().peers[0].rails[1].state,
            RailState::Down);
  EXPECT_EQ(world_->node(1).snapshot().peers[0].rails[1].state,
            RailState::Down);
  // flush() looks at the senders only; the receive side must drain too.
  world_->run();
  for (NodeId n : {NodeId{0}, NodeId{1}}) {
    const Engine::Snapshot snap = world_->node(n).snapshot();
    EXPECT_TRUE(snap.quiescent()) << "node " << n << ": " << snap.to_string();
    EXPECT_EQ(world_->node(n).stats().counter("rx.malformed"), 0u)
        << "node " << n;
  }
}

// A one-sided request replayed across rails is served once. Node 0 is the
// requester and node 1 the target; rail 0 loses every packet from the
// target to the requester, rail 1 is clean. The requester's request then
// goes unacked on rail 0, and so does the target's reply: each side fails
// rail 0 over in its own time and replays what it had sent there on rail 1.
// Replayed requests carry the requester's token, by which the target knows
// it served them.
class RmaReplayTest : public ::testing::Test {
 protected:
  void build(const EngineConfig& requester) {
    world_ = std::make_unique<SimWorld>(
        std::vector<EngineConfig>{requester, reliable_cfg()});
    drv::FaultPlan black_hole;
    black_hole.drop = 1.0;
    world_->connect(0, 1, drv::test_profile(), {}, black_hole);
    world_->connect(0, 1, drv::test_profile());
    window_ = pattern(64 * 1024, 5);
    world_->node(1).expose_window(5, window_.data(), window_.size());
  }

  /// Both engines drained: no transfer, request or chunk left behind, and
  /// no replay mistaken for a malformed packet.
  void expect_settled() {
    world_->run();
    EXPECT_TRUE(world_->node(1).flush());
    for (NodeId n : {NodeId{0}, NodeId{1}}) {
      const Engine::Snapshot snap = world_->node(n).snapshot();
      EXPECT_TRUE(snap.quiescent()) << "node " << n << ": " << snap.to_string();
      EXPECT_EQ(world_->node(n).stats().counter("rx.malformed"), 0u)
          << "node " << n;
      EXPECT_EQ(snap.peers[0].rails[0].state, RailState::Down) << "node " << n;
    }
  }

  void get_served_once(std::size_t len) {
    Bytes out(len);
    SendHandle h = world_->node(0).rma_get(1, 5, 0, out.data(), out.size());
    EXPECT_TRUE(world_->node(0).wait_send(h));
    EXPECT_EQ(out, Bytes(window_.begin(),
                         window_.begin() + static_cast<std::ptrdiff_t>(len)));
    expect_settled();
    EXPECT_EQ(world_->node(1).stats().counter("rx.rma_gets"), 1u);
  }

  std::unique_ptr<SimWorld> world_;
  Bytes window_;
};

// The requester fails rail 0 over first and replays the get on rail 1. At
// the parent the target served it twice; the second reply, under a fresh
// token, landed after the get had completed and left a transfer behind.
TEST_F(RmaReplayTest, LargeGetReplayedByTheRequesterIsServedOnce) {
  build(reliable_cfg());
  get_served_once(32 * 1024);
}

// With a slower requester RTO the target fails over first: its reply moves
// to rail 1 and completes the get. The requester's later replay of the get
// must not start a second reply that nobody answers.
TEST_F(RmaReplayTest, LargeGetReplayedAfterTheReplyIsServedOnce) {
  EngineConfig slow = reliable_cfg();
  slow.rel_rto_initial = 2 * kNanosPerMilli;
  slow.rel_rto_max = 50 * kNanosPerMilli;
  build(slow);
  get_served_once(32 * 1024);
}

TEST_F(RmaReplayTest, SmallGetIsServedOnce) {
  build(reliable_cfg());
  get_served_once(512);
}

TEST_F(RmaReplayTest, SmallPutIsServedOnce) {
  build(reliable_cfg());
  const Bytes data = pattern(512, 9);
  SendHandle h = world_->node(0).rma_put(1, 5, 0, data.data(), data.size());
  EXPECT_TRUE(world_->node(0).wait_send(h));
  EXPECT_EQ(Bytes(window_.begin(), window_.begin() + 512), data);
  expect_settled();
  EXPECT_EQ(world_->node(1).stats().counter("rx.rma_puts"), 1u);
}

// One side of a ShmEndpoint pair whose send() hands each frame on `hold`
// later, in order, from a thread of its own: a driver that keeps a copy
// longer than the whole retry budget (a UDP frame behind the credit window,
// a descheduled IO thread) while nothing is lost.
class HoldingEndpoint final : public drv::DriverEndpoint {
 public:
  explicit HoldingEndpoint(std::unique_ptr<drv::DriverEndpoint> inner)
      : inner_(std::move(inner)), thread_([this] { run(); }) {}
  ~HoldingEndpoint() override { close(); }

  void set_hold(std::chrono::milliseconds hold) {
    std::lock_guard lk(mu_);
    hold_ = hold;
  }
  const drv::Capabilities& caps() const override { return inner_->caps(); }
  void set_handler(drv::EndpointHandler* h) override { inner_->set_handler(h); }
  void send(drv::TrackId track, const GatherList& gl,
            std::uint64_t token) override {
    std::lock_guard lk(mu_);
    q_.push_back(Frame{track, gl.flatten(), token,
                       std::chrono::steady_clock::now() + hold_});
    cv_.notify_one();
  }
  void progress() override { inner_->progress(); }
  void close() override {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    inner_->close();
  }

 private:
  struct Frame {
    drv::TrackId track;
    Bytes bytes;
    std::uint64_t token;
    std::chrono::steady_clock::time_point due;
  };

  void run() {
    std::unique_lock lk(mu_);
    while (!stop_) {
      if (q_.empty() || std::chrono::steady_clock::now() < q_.front().due) {
        if (q_.empty())
          cv_.wait(lk);
        else
          cv_.wait_until(lk, q_.front().due);
        continue;
      }
      Frame f = std::move(q_.front());
      q_.pop_front();
      GatherList gl;
      gl.add(f.bytes.data(), f.bytes.size());
      inner_->send(f.track, gl, f.token);
    }
  }

  std::unique_ptr<drv::DriverEndpoint> inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Frame> q_;
  std::chrono::milliseconds hold_{0};
  bool stop_ = false;
  std::thread thread_;
};

// A copy still inside the driver has not left the host, so a timeout
// resends nothing and counts no retry for it. Otherwise the 11 timeouts of
// the retry budget (~62 ms) run out under a 150 ms hold, and the sender
// fails its only rail with nothing lost.
TEST(ReliabilityHold, SendHeldInTheDriverKeepsTheRail) {
  EngineConfig cfg = reliable_cfg();
  cfg.progress_threads = 1;
  RealTimerHost ta, tb;
  Engine a(0, cfg, ta);
  Engine b(1, cfg, tb);
  auto pair = drv::ShmEndpoint::make_pair();
  auto holding = std::make_unique<HoldingEndpoint>(std::move(pair.a));
  HoldingEndpoint& hold = *holding;
  a.add_rail(1, std::move(holding));
  b.add_rail(0, std::move(pair.b));
  a.start_progress_thread();
  b.start_progress_thread();
  Channel tx = a.open_channel(1, 1), rx = b.open_channel(0, 1);
  for (std::uint32_t i = 0; i < 20; ++i) {  // warm-up, nothing held
    send_bytes(tx, pattern(64, i));
    EXPECT_EQ(recv_bytes(rx, 64), pattern(64, i));
  }
  hold.set_hold(std::chrono::milliseconds(150));
  SendHandle h = send_bytes(tx, pattern(64, 99));
  EXPECT_TRUE(a.wait_send(h));
  EXPECT_EQ(recv_bytes(rx, 64), pattern(64, 99));
  EXPECT_EQ(a.rail_state(1, 0), RailState::Up);
  EXPECT_EQ(a.stats().counter("rel.rail_failovers"), 0u);
  a.stop_progress_thread();
  b.stop_progress_thread();
}

// Reliability off (the default) must be wire-compatible with itself and pay
// nothing: no rel counters move on a clean link.
TEST_F(ReliabilityTest, ReliabilityOffCostsNothingOnCleanLink) {
  EngineConfig cfg;  // defaults: reliability off
  build(cfg, {}, {});
  for (std::size_t i = 0; i < 50; ++i)
    send_bytes(a_, pattern(256, static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(recv_bytes(b_, 256), pattern(256, static_cast<std::uint32_t>(i)));
  EXPECT_TRUE(world_->node(0).flush());
  auto& st = world_->node(0).stats();
  EXPECT_EQ(st.counter("rel.retransmits"), 0u);
  EXPECT_EQ(st.counter("rel.acks_rx"), 0u);
  EXPECT_EQ(world_->node(1).stats().counter("rel.acks_tx"), 0u);
}

}  // namespace
}  // namespace mado::core
